"""Numerical certification of the weighted telescoping inequality.

The convergence proofs in this package all flow through one inequality.
Fix a trajectory x^1 .. x^{N+1} of the method with realized steps
h_1 .. h_N, any reference point x_hat in the feasible set, a positive
non-decreasing weight sequence v_0 <= v_1 <= ... <= v_{N+1}, and one extra
step size h_{N+1} > 0.  With the combination coefficients

    c_k = h_k v_k^2 - (v_k - v_{k-1}) * sum_{i=k}^{N+1} h_i v_i,

the inequality states

    sum_{k=1}^{N+1} c_k (f(x^k) - f(x_hat))
        <= v_0^2 ||x^1 - x_hat||^2 / 2 + sum_{k=1}^{N+1} h_k^2 v_k^2 ||g^k||^2 / 2.

It needs a subgradient at the final point, hence one extra oracle call,
which ``solver.run`` makes and records in the trace.
Choosing the weights well makes c_1 .. c_N vanish and turns the left side
into a pure last-iterate gap; the builders below produce exactly those
choices.  ``verify_lemma`` evaluates both sides on an actual trace so the
inequality can be checked wholesale on random weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Sequence

import numpy as np

from .core import ProblemInstance, as_point
from .errors import (
    IncompatibleLength,
    InfeasibleReference,
    MonotonicityViolation,
    StepOutOfRange,
)
from .rates import _validate_horizon, _validate_scale, _validate_step
from .sequences import iter_s, s
from .solver import RunTrace


@dataclass(frozen=True)
class WeightSequence:
    """Weights v_0 .. v_{N+1} plus the extra step h_{N+1} they pair with."""

    v: np.ndarray
    h_last: float

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError(f"weights must be a 1-D sequence, got shape {v.shape}")
        check_weight_rows(v[None])
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "h_last", _validate_step(self.h_last, "h_last"))

    @property
    def horizon(self) -> int:
        return len(self.v) - 2


def check_weight_rows(v: np.ndarray, h_last: np.ndarray | None = None) -> None:
    """``WeightSequence``'s checks on each row of the weights v (T, N + 2)
    and, when given, on its extra step ``h_last[t]``: raise the first failing
    row's first error."""
    if v.shape[1] < 2:
        raise IncompatibleLength("need at least v_0 and v_1")
    finite = np.isfinite(v).all(axis=1)
    # v[:, 1:] < v[:, :-1] is np.diff(v) < 0 on the finite rows
    ordered = (v[:, 0] > 0) & ~(v[:, 1:] < v[:, :-1]).any(axis=1)
    bad = ~(finite & ordered)
    if h_last is not None:
        bad |= ~(np.isfinite(h_last) & (h_last > 0))
    if bad.any():
        t = int(bad.argmax())
        if not finite[t]:
            raise ValueError("weights have non-finite entries")
        if not ordered[t]:
            raise MonotonicityViolation("weights must be positive and non-decreasing")
        _validate_step(h_last[t], "h_last")


def _realized_steps(w: WeightSequence, steps: Sequence[float]) -> np.ndarray:
    """The N realized steps, checked against the weights' horizon."""
    steps = np.asarray(steps, dtype=np.float64)
    if steps.ndim != 1 or len(steps) != w.horizon:
        raise IncompatibleLength(
            f"weights expect {w.horizon} realized steps, got {steps.shape}"
        )
    return steps


def _coefficient_rows(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """c_1 .. c_{N+1} of each row of the steps h (T, N + 1) and weights v."""
    v1 = v[:, 1:]
    # suffix[:, k-1] = sum_{i=k}^{N+1} h_i v_i
    suffix = (h * v1)[:, ::-1].cumsum(axis=1)[:, ::-1]
    return h * v1**2 - (v1 - v[:, :-1]) * suffix


def coefficients(w: WeightSequence, steps: Sequence[float]) -> np.ndarray:
    """The combination coefficients c_1 .. c_{N+1} for realized steps.

    ``steps`` holds the N steps the method actually applied; the weight
    sequence supplies h_{N+1}.  The coefficients always satisfy the exact
    identity sum_k c_k = v_0 * sum_k h_k v_k.
    """
    h = np.concatenate((_realized_steps(w, steps), (w.h_last,)))  # h_1 .. h_{N+1}
    return _coefficient_rows(h[None], w.v[None])[0]


class LemmaCheck(NamedTuple):
    lhs: float
    rhs: float
    slack: float


def lemma_rows(steps, h_last, v, values, f_hat, g_norms_sq, d_sq) -> LemmaCheck:
    """Both sides of the inequality for T trials at once, as arrays.

    Row t holds trial t: its N realized ``steps``, extra step ``h_last[t]``,
    weights ``v`` (N + 2), ``values`` f(x^1) .. f(x^{N+1}), ``f_hat`` =
    f(x_hat), squared subgradient norms ``g_norms_sq`` (N + 1) and
    ``d_sq`` = ||x^1 - x_hat||^2.  Each row keeps the bits of a 1-D
    evaluation: every sum runs along the contiguous last axis of a
    trial-major array, which adds in the 1-D order (along the other axis
    numpy adds in another order from 8 terms on), and the left side is one
    ddot per trial.
    """
    h = np.concatenate((steps, h_last[:, None]), axis=1)  # h_1 .. h_{N+1}
    c = _coefficient_rows(h, v)
    gaps = np.ascontiguousarray(values) - f_hat[:, None]
    lhs = np.array([ct.dot(gt) for ct, gt in zip(c, gaps)])
    rhs = 0.5 * v[:, 0] ** 2 * d_sq + 0.5 * np.add.reduce(
        h**2 * v[:, 1:] ** 2 * g_norms_sq, axis=1
    )
    return LemmaCheck(lhs, rhs, rhs - lhs)


def verify_lemma(
    trace: RunTrace, p: ProblemInstance, w: WeightSequence, x_hat
) -> LemmaCheck:
    """Evaluate both sides of the inequality on a recorded trajectory.

    Returns ``(lhs, rhs, slack)`` with ``slack = rhs - lhs``; a valid trace,
    feasible reference and valid weights always give slack >= 0 up to
    rounding.  The subgradient at the final point comes from the trace, so
    the only oracle query is for the value at ``x_hat``.  The sides are the
    one row of :func:`lemma_rows`.
    """
    steps = _realized_steps(w, trace.steps)
    x_hat = as_point(x_hat, p.dimension)
    if not p.is_feasible(x_hat):
        raise InfeasibleReference("reference point is not in the feasible set")

    f_hat = p.evaluate(x_hat).value
    g = trace.subgradients
    # A dot for the last squared norm on purpose: the certify output pins its
    # bits, which a row-wise sum can move, until one fixed-order kernel serves both.
    g_norms_sq = np.add.reduce(g * g, axis=1)
    g_norms_sq[-1] = g[-1].dot(g[-1])
    d = trace.points[0] - x_hat
    check = lemma_rows(
        steps[None], np.array([w.h_last]), w.v[None], trace.values[None],
        np.array([f_hat]), g_norms_sq[None], np.add.reduce(d * d, keepdims=True),
    )
    return LemmaCheck(*(float(side[0]) for side in check))


# --- weight constructions that collapse the left side ------------------------


def constant_step_weights(N: int, alpha: float, h_last: float) -> WeightSequence:
    """Weights v_k = 1 / s_{alpha,N+1-k} (k <= N), v_{N+1} = alpha.

    Paired with constant realized steps equal to ``h_last``, these zero out
    c_1 .. c_N, leaving c_{N+1} = h_last: the inequality then bounds the
    final gap directly.
    """
    N = _validate_horizon(N)
    values = list(islice(iter_s(alpha), N + 1))  # s_{alpha,1} .. s_{alpha,N+1}
    v = np.array([1.0 / value for value in reversed(values)] + [values[0]])
    return WeightSequence(v, h_last)


def optimal_step_weights(N: int, B: float = 1.0, R: float = 1.0) -> WeightSequence:
    """Weights certifying the decreasing-step schedule's 1/sqrt(N+1) rate.

    v_k = (N+1)^{3/4} / (N+1-k) * sqrt(B/R) for k <= N, v_{N+1} = v_N, and
    h_{N+1} = R / (B (N+1)^{3/2}).  On that schedule's realized steps they
    give c_k = 0 for k <= N and c_{N+1} = 1 exactly.
    """
    N = _validate_horizon(N)
    B, R = _validate_scale(B, R)
    scale = (N + 1) ** 0.75 * math.sqrt(B / R)
    v = np.array([scale / (N + 1 - k) for k in range(N + 1)] + [0.0])
    v[N + 1] = v[N]
    h_last = R / (B * (N + 1) ** 1.5)
    return WeightSequence(v, h_last)


def recursive_weights(
    steps: Sequence[float], h_last: float, alpha: float
) -> WeightSequence:
    """Weights built backward from the steps a run actually took.

    Starting from v_{N+1} = alpha, each earlier weight solves
    v_k * sum_{i>k} h_i v_i = h_{N+1}, which zeroes c_1 .. c_N whatever the
    realized steps were.  The weights come out non-decreasing whenever every
    realized step is at least ``h_last`` (true for the constant-length
    schedule with h_last = t R / B); otherwise construction fails with
    ``MonotonicityViolation``.
    """
    steps = np.asarray(steps, dtype=np.float64)
    alpha = _validate_step(alpha, "alpha")
    h_last = _validate_step(h_last, "h_last")
    N = len(steps)
    h = np.append(steps, h_last)
    v = np.zeros(N + 2)
    v[N + 1] = alpha
    for k in range(N, -1, -1):
        v[k] = h_last / float(np.dot(h[k:], v[k + 1 :]))
    return WeightSequence(v, h_last)


# --- the bound as a function of the free seed value ---------------------------


def alpha_family_bound(N: int, h: float, alpha: float) -> float:
    """Last-iterate bound for constant normalized step h, seeded at alpha:

        (s_{alpha,N+1} sqrt(h) - 1 / (s_{alpha,N+1} sqrt(h)))^2 / 2 + 1 - N h.

    Minimizing over alpha >= 1 recovers ``constant_step_rate(N, h)``: at
    alpha = 1 the expression equals the long-step branch, and for small h
    the seed found by ``matching_alpha`` collapses the square entirely.
    """
    N = _validate_horizon(N)
    h = _validate_step(h)
    z = s(alpha, N + 1) * math.sqrt(h)
    return 0.5 * (z - 1.0 / z) ** 2 + 1.0 - N * h


def matching_alpha(N: int, h: float, tol: float = 1e-12) -> float:
    """The seed alpha at which s_{alpha,N+1} * sqrt(h) = 1, by bisection.

    Exists only in the short-step regime h <= 1 / s_{1,N+1}^2; there the
    alpha-family bound collapses to 1 - N h.  Bisects on
    [1, max(1, 1/sqrt(h))] to absolute tolerance ``tol`` (finite and > 0),
    or until ``lo`` and ``hi`` are adjacent floats.
    """
    N = _validate_horizon(N)
    target = 1.0 / math.sqrt(_validate_step(h))
    tol = _validate_step(tol, "tol")
    if s(1.0, N + 1) > target * (1.0 + 1e-15):
        raise StepOutOfRange(
            f"h={h} is past the knee for N={N}; no seed >= 1 matches"
        )
    lo, hi = 1.0, max(1.0, target)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if s(mid, N + 1) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
