"""The projected subgradient method and its step-size schedules.

One iteration from x^k with step size h_k and subgradient g^k at x^k is

    x^{k+1} = P_X(x^k - h_k g^k).

``run`` executes N such iterations, evaluates the final point once more for
its value and subgradient, and returns the whole trajectory as a
:class:`RunTrace`.  The solver treats the instance as a black box: it never
reads ``f_star`` or ``x_star``; gaps are measured afterwards by the
``*_gap`` helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ProblemInstance, as_point
from .errors import IncompatibleLength, InfeasibleReference, ScheduleExhausted
from .rates import _validate_horizon, _validate_scale, _validate_step, _validate_steps


@dataclass(frozen=True)
class StepSchedule:
    """A rule producing the step size h_k for each iteration k = 1..N.

    ``rule(k, B, R)`` is a formula of the iteration k and the instance's
    constants B and R.  It gives h_k itself, or, when ``by_length`` is set,
    the step length t_k: then h_k = t_k / ||g^k|| and every move has length
    t_k.  ``N`` is the horizon a schedule was planned for and ``max_steps``
    the length of a custom schedule; both are ``None`` when they do not
    apply.  The constructors:

    ``custom``               user-supplied raw step sizes, used verbatim
    ``constant_normalized``  h_k = h * R / B for a dimensionless parameter h
    ``constant_length``      t_k = t * R: every step has length t * R
    ``optimal_last_iterate`` h_k = R (N+1-k) / (B (N+1)^{3/2})
    ``optimal_length``       t_k = R (N+1-k) / (N+1)^{3/2}
    """

    rule: Callable[[int, float, float], float]
    by_length: bool = False
    N: int | None = None
    max_steps: int | None = None

    @classmethod
    def custom(cls, steps: Sequence[float]) -> "StepSchedule":
        steps = tuple(_validate_steps(steps).tolist())
        return cls(lambda k, B, R: steps[k - 1], max_steps=len(steps))

    @classmethod
    def constant_normalized(cls, h: float) -> "StepSchedule":
        h = _validate_step(h, "h")
        return cls(lambda k, B, R: h * R / B)

    @classmethod
    def constant_length(cls, t: float) -> "StepSchedule":
        t = _validate_step(t, "t")
        return cls(lambda k, B, R: t * R, by_length=True)

    @classmethod
    def optimal_last_iterate(cls, N: int) -> "StepSchedule":
        N = _validate_horizon(N)
        return cls(lambda k, B, R: R * (N + 1 - k) / (B * (N + 1) ** 1.5), N=N)

    @classmethod
    def optimal_length(cls, N: int) -> "StepSchedule":
        N = _validate_horizon(N)
        return cls(
            lambda k, B, R: R * (N + 1 - k) / (N + 1) ** 1.5, by_length=True, N=N
        )

    def check_supports(self, N: int) -> None:
        """Raise unless this schedule can drive N iterations."""
        if self.max_steps is not None and self.max_steps < N:
            raise ScheduleExhausted(
                f"custom schedule has {self.max_steps} steps, need {N}"
            )
        if self.N is not None and self.N != N:
            raise IncompatibleLength(
                f"schedule was planned for horizon {self.N}, asked to run {N}"
            )

    def step_size(self, k: int, p: ProblemInstance, g_norm: float) -> float:
        """The step size multiplying g^k at iteration k (1-based)."""
        step = self.rule(k, p.B, p.R)
        return step / g_norm if self.by_length else step

    def nominal_step(self, k: int, p: ProblemInstance) -> float:
        """A positive stand-in for h_k when no subgradient is available.

        Used only to pad the trace after an early stop at a zero
        subgradient; the padded entries multiply a zero vector, so any
        positive value preserves the trace identities.  Length-based
        schedules report the intended step length.
        """
        return self.rule(k, p.B, p.R)


@dataclass
class RunTrace:
    """Everything the method produced over one run of N iterations.

    ``values`` holds f(x^1) .. f(x^{N+1}), ``steps`` the N step sizes
    actually applied, ``points`` the (N+1) x dim array of iterates and
    ``subgradients`` the (N+1) x dim array of oracle answers g^1 .. g^{N+1},
    the last one queried at x^{N+1} with iteration index N+1.
    """

    values: np.ndarray
    steps: np.ndarray
    points: np.ndarray
    subgradients: np.ndarray
    terminated_early: bool

    @property
    def horizon(self) -> int:
        return len(self.steps)


def run(
    p: ProblemInstance,
    schedule: StepSchedule,
    x1=None,
    N: int | None = None,
) -> RunTrace:
    """Run N projected subgradient iterations from x1.

    ``x1`` defaults to the instance's canonical start.  ``N`` defaults to
    the schedule's planned horizon when it has one.  When the oracle returns
    a (numerically) zero subgradient the method has nothing to move along:
    the current point is replicated through x^{N+1}, the remaining step
    slots are padded with nominal positive values, and the trace is flagged
    ``terminated_early``; the final query at index N+1 is still made.
    """
    if N is None:
        if schedule.N is None:
            raise ValueError("N is required for schedules without a planned horizon")
        N = schedule.N
    N = _validate_horizon(N)
    schedule.check_supports(N)
    if x1 is None:
        if p.x_start is None:
            raise ValueError("instance has no canonical start; pass x1 explicitly")
        x1 = p.x_start
    x = as_point(x1, p.dimension)
    if not p.is_feasible(x):
        raise InfeasibleReference("initial point is not in the feasible set")

    values = np.empty(N + 1)
    steps = np.empty(N)
    points = np.empty((N + 1, p.dimension))
    subgradients = np.empty((N + 1, p.dimension))
    points[0] = x
    terminated_early = False

    for k in range(1, N + 1):
        sample = p.evaluate(x, k)
        values[k - 1] = sample.value
        g = sample.subgradient
        subgradients[k - 1] = g
        if sample.is_zero:
            terminated_early = True
            values[k - 1 :] = sample.value
            for j in range(k, N + 1):
                steps[j - 1] = schedule.nominal_step(j, p)
            points[k:] = x
            subgradients[k - 1 :] = g
            break
        h_k = schedule.step_size(k, p, sample.norm)
        steps[k - 1] = h_k
        x = p.projection(x - h_k * g)
        points[k] = x

    last = p.evaluate(x, N + 1)
    values[N] = last.value
    subgradients[N] = last.subgradient

    return RunTrace(
        values=values,
        steps=steps,
        points=points,
        subgradients=subgradients,
        terminated_early=terminated_early,
    )


def _settle_gap(raw: float, p: ProblemInstance) -> float:
    """Clamp the tiny negative gaps float arithmetic can produce to zero."""
    tol = 1e-12 * max(1.0, p.B * p.R)
    if raw < -tol:
        raise ValueError(
            f"gap {raw} is more negative than rounding can explain; "
            f"the instance's f_star = {p.f_star} looks wrong"
        )
    return max(raw, 0.0)


def last_gap(trace: RunTrace, p: ProblemInstance) -> float:
    """f(x^{N+1}) - f_star."""
    return _settle_gap(float(trace.values[-1]) - p.f_star, p)


def best_gap(trace: RunTrace, p: ProblemInstance) -> float:
    """min_k f(x^k) - f_star over k = 1..N+1."""
    return _settle_gap(float(np.min(trace.values)) - p.f_star, p)


def avg_gap(trace: RunTrace, p: ProblemInstance, h: Sequence[float]) -> float:
    """Gap at the step-weighted average of the iterates.

    ``h`` must contain N+1 values: the N realized steps extended by one more
    positive h_{N+1}; the average uses weights h_k / sum(h) over x^1..x^{N+1}.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or len(h) != trace.horizon + 1:
        raise IncompatibleLength(
            f"need {trace.horizon + 1} step values (including h_(N+1)), got {h.shape}"
        )
    _validate_steps(h)
    weights = h / h.sum()
    x_avg = weights @ trace.points
    return _settle_gap(float(p.evaluate(x_avg).value) - p.f_star, p)


def best_iterate_bound(h: Sequence[float], B: float, R: float) -> float:
    """Classical guarantee for the best iterate seen in N+1 evaluations:

        min_{1<=k<=N+1} f(x^k) - f_star <= (R^2 + B^2 sum h_k^2) / (2 sum h_k)

    where ``h`` lists h_1 .. h_{N+1}.  Valid for every positive step
    sequence, so callers are free to extend a realized schedule by any
    positive h_{N+1}.
    """
    h = _validate_steps(h)
    B, R = _validate_scale(B, R)
    return float((R * R + B * B * np.sum(h * h)) / (2.0 * np.sum(h)))
