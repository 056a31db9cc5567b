"""Exact worst-case rate formulas for projected subgradient methods.

Every function returns the gap after N steps in units of B * R, where B
bounds the subgradient norms and R the distance from the initial point to a
minimizer.  Multiply by B * R for absolute gaps.  Throughout, s_k denotes
the seed-1 step-size sequence from :mod:`subgradlab.sequences`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import EmptySchedule, InvariantViolation, OptimizationFailed, StepOutOfRange
from .sequences import s


def _validate_horizon(N: int) -> int:
    try:
        n = int(N)
    except (OverflowError, ValueError):  # an infinite or NaN N
        n = 0
    if n != N or n < 1:
        raise ValueError(f"horizon must be an integer >= 1, got {N}")
    return n


def _validate_step(h: float, name: str = "h") -> float:
    if h is None or not math.isfinite(h := float(h)) or h <= 0:
        raise StepOutOfRange(f"{name} must be a finite positive number, got {h}")
    return h


def _validate_steps(h) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1:
        raise ValueError(f"steps must be a 1-D sequence, got shape {h.shape}")
    if h.size == 0:
        raise EmptySchedule("need at least one step")
    if not (np.isfinite(h) & (h > 0)).all():
        raise StepOutOfRange("steps must be finite and positive")
    return h


def _validate_scale(B: float, R: float) -> tuple[float, float]:
    B, R = float(B), float(R)
    if not (0 < B < math.inf and 0 < R < math.inf):
        raise ValueError(f"B and R must be finite and positive, got B={B}, R={R}")
    lo, hi = sys.float_info.min, sys.float_info.max
    if not (lo <= B * R <= hi and lo <= R / B <= hi):
        raise ValueError(
            f"B*R and R/B must be normal floats, between {lo} and {hi}; got B={B}, R={R}"
        )
    return B, R


def knee(N: int) -> float:
    """The step 1 / s_{N+1}^2 at which the constant-step worst case switches
    from the straight walk to the long-step construction."""
    N = _validate_horizon(N)
    return 1.0 / s(1.0, N + 1) ** 2


def constant_step_rate(N: int, h: float) -> float:
    """Tight last-iterate gap of N steps with constant normalized step h.

    The step size h is measured in units of R / B (so the method moves by
    h * R / B times the subgradient).  The worst case changes character at
    the knee h = 1 / s_{N+1}^2:

        1 - N h                                          for h <= knee,
        (s_{N+1}^2 / 2 - N) h + 1 / (2 s_{N+1}^2 h)      for h >  knee,

    and both branches agree at the knee.
    """
    N = _validate_horizon(N)
    h = _validate_step(h)
    return _constant_step_rate(N, h, s(1.0, N + 1))


def _constant_step_rate(N: int, h: float, sN1: float) -> float:
    """``constant_step_rate`` for a valid N and h, given sN1 = s_{N+1}."""
    s2 = sN1**2
    if h <= 1.0 / s2:
        return 1.0 - N * h
    return (0.5 * s2 - N) * h + 1.0 / (2.0 * s2 * h)


class OptimalConstantStep(NamedTuple):
    h_star: float
    rate: float


def optimal_constant_step(N: int) -> OptimalConstantStep:
    """Minimizer and minimum of ``constant_step_rate`` over h > 0.

    h* = 1 / (s_{N+1} sqrt(s_{N+1}^2 - 2N)) with value sqrt(1 - 2N / s_{N+1}^2).
    """
    N = _validate_horizon(N)
    return _optimal_constant_step(N, s(1.0, N + 1))


def _optimal_constant_step(N: int, sN1: float) -> OptimalConstantStep:
    """``optimal_constant_step`` for a valid N, given sN1 = s_{N+1}."""
    h_star = 1.0 / (sN1 * math.sqrt(sN1 * sN1 - 2.0 * N))
    rate = math.sqrt(1.0 - 2.0 * N / (sN1 * sN1))
    if abs(_constant_step_rate(N, h_star, sN1) - rate) > 1e-12 * max(1.0, rate):
        raise InvariantViolation(f"h*={h_star} misses the optimal rate {rate} for N={N}")
    return OptimalConstantStep(h_star, rate)


class WeakenedRateBounds(NamedTuple):
    log_form: float
    optimal_log_form: float


def weakened_rate_bounds(N: int, h: float) -> WeakenedRateBounds:
    """Looser but more readable envelopes of the constant-step rate.

    ``log_form``         = (1 + log(N)/4) h + 1 / (4 (N+1) h)
    ``optimal_log_form`` = sqrt(1 + log(N)/4) / sqrt(N+1)

    The first dominates the long-step branch of ``constant_step_rate``, the
    second dominates the optimal constant-step rate; both facts are checked
    on every call, with s_{N+1} computed once.
    """
    N = _validate_horizon(N)
    if N < 2:
        raise ValueError(f"the weakened forms are stated for N >= 2, got {N}")
    h = _validate_step(h)
    sN1 = s(1.0, N + 1)
    quarter_log = 0.25 * math.log(N)
    log_form = (1.0 + quarter_log) * h + 1.0 / (4.0 * (N + 1) * h)
    optimal_log_form = math.sqrt(1.0 + quarter_log) / math.sqrt(N + 1)
    if h > 1.0 / sN1**2 and _constant_step_rate(N, h, sN1) > log_form + 1e-12:
        raise InvariantViolation(f"log form {log_form} is below the rate at N={N}, h={h}")
    if _optimal_constant_step(N, sN1).rate > optimal_log_form + 1e-12:
        raise InvariantViolation(f"optimal log form {optimal_log_form} is too low at N={N}")
    return WeakenedRateBounds(log_form, optimal_log_form)


def constant_length_rate(N: int, t: float) -> float:
    """Tight last-iterate gap of N steps of constant normalized length t.

    Each step moves exactly t * R along the unit subgradient direction; the
    worst case coincides with the constant-step formula with t in place of h.
    """
    N = _validate_horizon(N)
    t = _validate_step(t, name="t")
    return constant_step_rate(N, t)


def optimal_method_rate(N: int) -> float:
    """Last-iterate guarantee 1 / sqrt(N+1) of the decreasing-step schedules."""
    N = _validate_horizon(N)
    return 1.0 / math.sqrt(N + 1.0)


# The same number is the best gap any step-size choice can guarantee after N steps.
lower_bound = optimal_method_rate


def classical_lower_bound(N: int) -> float:
    """The textbook lower bound 1 / (2 (2 + sqrt(N+1))) for comparison.

    Weaker than :func:`lower_bound` by roughly a factor of two for large N.
    """
    N = _validate_horizon(N)
    return 1.0 / (2.0 * (2.0 + math.sqrt(N + 1.0)))


# --- two-step schedules and the "no universal second step" certificate -------

# Every two-step schedule considered here starts with this first step.
TWO_STEP_FIRST = 1.0 / (2.0 * math.sqrt(2.0))

# The second step's worst case switches regime at this value.
TWO_STEP_KNEE = 1.0 / (8.0 * math.sqrt(2.0))


def two_step_worst_gap(h2: float) -> float:
    """Worst-case last-iterate gap of the schedule (1/(2 sqrt 2), h2), N = 2.

    Piecewise in the second step:

        1/sqrt(2) - h2                                       for h2 <= 1/(8 sqrt 2),
        h2 + 1/(64 h2) + 16 h2 / (1 + 8 sqrt(2) h2)^2        for h2 >  1/(8 sqrt 2),

    continuous at the knee.  Both branches are realized exactly by the
    two-step worst-case instances in :mod:`subgradlab.worstcase`.
    """
    h2 = _validate_step(h2, name="h2")
    if h2 <= TWO_STEP_KNEE:
        return 1.0 / math.sqrt(2.0) - h2
    return h2 + 1.0 / (64.0 * h2) + 16.0 * h2 / (1.0 + 8.0 * math.sqrt(2.0) * h2) ** 2


class NoUniversalStepCertificate(NamedTuple):
    gap_floor: float
    h2_star: float
    margin: float


def _golden_min(
    func: Callable[[float], float], a: float, b: float, tol: float
) -> tuple[float, float]:
    """Golden-section minimization of a unimodal function on [a, b].

    Returns (argmin, min).  Raises ``OptimizationFailed`` when the minimizer
    lands on the bracket boundary, i.e. the interval did not contain an
    interior minimum.
    """
    lo, hi = float(a), float(b)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = func(c), func(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = func(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = func(d)
    x = 0.5 * (lo + hi)
    if x - a < 1e-8 or b - x < 1e-8:
        raise OptimizationFailed(
            f"minimum of the bracket [{a}, {b}] lies on the boundary at {x}"
        )
    return x, func(x)


def no_universal_step_certificate() -> NoUniversalStepCertificate:
    """Numeric certificate that no second step size works in both regimes.

    Minimizes ``two_step_worst_gap`` over the long branch (the short branch
    is strictly decreasing, so the global minimum lies past the knee) by
    golden section on [1/(8 sqrt 2), 10] to absolute tolerance 1e-10.  The
    floor is about 0.5786, strictly above the 1/sqrt(3) an ideal two-step
    schedule would need, hence the certificate.  Returns
    ``(gap_floor, h2_star, margin)`` with ``margin = gap_floor - 1/sqrt(3)``.
    """
    h2_star, gap_floor = _golden_min(two_step_worst_gap, TWO_STEP_KNEE, 10.0, 1e-10)
    return NoUniversalStepCertificate(
        gap_floor, h2_star, gap_floor - 1.0 / math.sqrt(3.0)
    )


@dataclass(frozen=True)
class RateReport:
    """A predicted worst-case bound next to an observed gap."""

    N: int
    regime: str
    predicted_bound: float
    observed_gap: float | None = None

    @property
    def slack(self) -> float | None:
        if self.observed_gap is None:
            return None
        return self.predicted_bound - self.observed_gap
