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
choices.  ``verify_lemma`` evaluates both sides on an actual trace, and
``trial_slacks`` checks the inequality wholesale on random trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import core, solver, worstcase
from .core import ProblemInstance, as_point
from .errors import (
    IncompatibleLength,
    InfeasibleReference,
    MonotonicityViolation,
    StepOutOfRange,
)
from .rates import _validate_horizon, _validate_scale, _validate_step, _validate_steps
from .sequences import iter_s, s
from .solver import RunTrace, StepSchedule


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
    trial-major array, and the left side is ``core.dots``.
    """
    h = np.concatenate((steps, h_last[:, None]), axis=1)  # h_1 .. h_{N+1}
    c = _coefficient_rows(h, v)
    lhs = core.dots(c, np.ascontiguousarray(values) - f_hat[:, None])
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
    g_norms_sq = core.sums_of_squares(g)
    g_norms_sq[-1] = core.dots(g[-1], g[-1])  # not the row sum: certify's output pins its bits
    check = lemma_rows(
        steps[None], np.array([w.h_last]), w.v[None], trace.values[None],
        np.array([f_hat]), g_norms_sq[None], core.sums_of_squares(trace.points[:1] - x_hat),
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
    steps = _validate_steps(steps)
    alpha = _validate_step(alpha, "alpha")
    h_last = _validate_step(h_last, "h_last")
    N = len(steps)
    h = np.append(steps, h_last)
    v = np.zeros(N + 2)
    v[N + 1] = alpha
    for k in range(N, -1, -1):
        v[k] = h_last / float(core.dots(h[k:], v[k + 1 :]))
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


# --- the inequality on random trials, in chunks -------------------------------

# Bytes a chunk of trials may hold, chosen by timing trial_slacks at N = 5 .. 3000.
CERTIFY_CHUNK_BYTES = 1 << 22

# The largest dimension a trial draws, with up to 2 * dim directions.
CERTIFY_MAX_DIM = 8

# The trials' step schedules, in turn: a draw of the parameter, and the builder.
_TRIAL_SCHEDULES: tuple[tuple[Callable, Callable[..., StepSchedule]], ...] = (
    (lambda rng, N: rng.uniform(0.05, 1.2), StepSchedule.constant_normalized),
    (lambda rng, N: rng.uniform(0.05, 1.0), StepSchedule.constant_length),
    (lambda rng, N: N, StepSchedule.optimal_last_iterate),
    (lambda rng, N: N, StepSchedule.optimal_length),
    (lambda rng, N: rng.uniform(0.02, 0.8, N), StepSchedule.custom),
)


def trial_slacks(
    seed: int, N: int, trials: range, reverse: bool = False
) -> Iterator[tuple[range, np.ndarray]]:
    """For each consecutive chunk of the range ``trials``, ``(part, slacks)``:
    its sub-range and a float64 array of its trials' slacks of the inequality
    at horizon N, in trial order.  Trial t draws from ``default_rng([seed,
    t])`` (see ``_draw``); ``reverse`` reverses its weights, which
    ``WeightSequence`` rejects.  A chunk that ``_certify_chunk`` hands back
    runs trial by trial through ``_certify_trials``, with the same bits, and
    so does a chunk of fewer than 3 trials, which ``run`` steps faster."""
    N = _validate_horizon(N)
    chunk = _chunk_trials(N)
    for first in range(0, len(trials), chunk):
        part = trials[first : first + chunk]
        slacks = _certify_chunk(seed, part, N, reverse) if len(part) >= 3 else None
        if slacks is None:
            slacks = _certify_trials(seed, part, N, reverse)
        yield part, slacks


def _chunk_trials(N: int) -> int:
    """Trials per chunk at horizon N: as many as fit ``CERTIFY_CHUNK_BYTES``,
    so memory does not grow with the trial count.  A trial of a chunk holds
    about 80 (N + 1) bytes of lock-step and lemma rows and 6 KiB of pieces
    and Python objects (tracemalloc, per added trial, at N = 5 .. 3000), and
    no instance, trace, point or subgradient.  The tracemalloc peak of
    ``certify --trials 1000`` is 3.3-3.8 MiB at N = 5, 10, 20, 50 and 100."""
    return max(1, CERTIFY_CHUNK_BYTES // (80 * (N + 1) + 6 * 1024))


def _shape(seed: int, trial: int) -> tuple[np.random.Generator, int, int]:
    """Trial ``trial``'s generator ``default_rng([seed, trial])`` and its
    first draws: the dimension and the number of directions."""
    rng = np.random.default_rng([seed, trial])
    dim = int(rng.integers(2, CERTIFY_MAX_DIM + 1))
    return rng, dim, int(rng.integers(1, 2 * dim + 1))


def _draw(rng: np.random.Generator, trial: int, dim: int, N: int) -> tuple:
    """Trial ``trial``'s draws after its pieces: its schedule, the schedule's
    steps on a unit instance (its rule on k = 1 .. N), unsorted v, h_last and
    x_hat (None for x_star, even trials)."""
    draw, build = _TRIAL_SCHEDULES[trial % len(_TRIAL_SCHEDULES)]
    schedule = build(draw(rng, N))
    v = rng.uniform(0.05, 2.0, N + 2)
    h_last = float(rng.uniform(0.05, 1.0))
    x_hat = None if trial % 2 == 0 else rng.standard_normal(dim)
    return schedule, schedule.rule(np.arange(1, N + 1), 1.0, 1.0), v, h_last, x_hat


def _certify_trials(seed: int, trials: range, N: int, reverse: bool) -> np.ndarray:
    """The slacks of ``trials`` through ``random_instance``, ``run``,
    ``WeightSequence`` and ``verify_lemma``: the path of a chunk that
    ``_certify_chunk`` hands back.  Every trial runs before any is checked,
    so a run error comes first, then a weight or x_hat error, each for the
    first trial that has one."""
    drawn = [(worstcase.random_instance(dim, m, rng), *_draw(rng, trial, dim, N))
             for trial in trials for rng, dim, m in [_shape(seed, trial)]]
    traces = [solver.run(p, schedule, N=N) for p, schedule, *_ in drawn]
    slacks = np.empty(len(drawn))
    for t, ((p, _, _, v, h_last, x_hat), trace) in enumerate(zip(drawn, traces)):
        v = np.sort(v)
        weights = WeightSequence(v[::-1] if reverse else v, h_last=h_last)
        x_hat = p.x_star if x_hat is None else x_hat
        slacks[t] = verify_lemma(trace, p, weights, x_hat).slack
    return slacks


def _certify_chunk(seed: int, trials: range, N: int, reverse: bool) -> np.ndarray | None:
    """The slacks of ``trials``, drawn, run and checked as arrays with the
    bits of ``_certify_trials``; None, for ``_certify_trials`` to handle,
    when a drawn row is one ``random_pieces`` would redraw, some run would
    stop early or raise, an entry is not finite, or an x_hat or its answer
    fails a check of ``verify_lemma``.

    Per trial, the chunk makes the calls on the trial's generator, in
    ``_certify_trials``' order, builds its schedule and copies its slopes
    into ``solver.PieceBatch``, which keeps a gemv per trial.  The rows and
    start are drawn into the trial's block of its dimension's stack, which
    ``worstcase.unit_pieces`` makes unit.  ``step_together`` runs the chunk,
    the instance and weight checks run once over it, f(x_hat) is one batched
    answer and ``lemma_rows`` evaluates every inequality.
    """
    T = len(trials)
    shapes = [_shape(seed, trial) for trial in trials]
    dims, counts = np.array([dim for _, dim, _ in shapes]), np.array([m for *_, m in shapes])
    # per dimension, each trial's drawn rows then their antipodes, and its start
    stacks = {d: (np.zeros((len(c), 2 * c.max(), d)), np.empty((len(c), d)))
              for d in set(dims.tolist()) for c in [counts[dims == d]]}
    slots = {d: zip(*stack) for d, stack in stacks.items()}
    X, x_hat = np.zeros((2, T, int(dims.max())))  # x^1, and x_hat: x_star = 0 on even trials
    v, h_last, dist = np.empty((T, N + 2)), np.empty(T), np.empty(T)
    steps = np.empty((N, T))  # on a unit instance; a by-length step is divided when taken
    by_length, own = np.empty(T, dtype=bool), []
    for t, ((rng, dim, m), trial) in enumerate(zip(shapes, trials)):
        rows, start = next(slots[dim])
        rng.standard_normal(out=rows[:m])
        rng.standard_normal(out=start)
        own.append(rows[: 2 * m])
        schedule, steps[:, t], v[t], h_last[t], xh = _draw(rng, trial, dim, N)
        schedule.check_supports(N)
        by_length[t] = schedule.by_length
        if xh is not None:
            x_hat[t, :dim] = xh
    del shapes  # the generators, before the chunk's largest arrays
    for d, (slopes, starts) in stacks.items():
        sel = dims == d
        if not worstcase.unit_pieces(slopes, counts[sel], starts):
            return None
        X[sel, :d] = starts
        dist[sel] = np.sqrt(core.dots(starts, starts))  # ||x_start - x_star||, the R check's
    v.sort(axis=1)
    if reverse:
        v = v[:, ::-1]
    batch = solver.PieceBatch(own)

    # the checks of instance_from_pieces, on the unit instances random_instance builds
    if not (np.isfinite(batch.slopes).all() and np.isfinite(X).all()):
        return None
    core.check_bounds(batch.norms.max(axis=1), dist, 1.0, 1.0)

    # verify_lemma's checks of x_hat: finite, and feasible, at distance 0 from
    # its projection onto the whole space
    if not np.isfinite(x_hat).all() or (core.project_all(x_hat) - x_hat).any():
        return None
    d_sq = core.sums_of_squares(X - x_hat, dims)  # before step_together moves X
    stepped = solver.step_together(batch, X, steps, by_length, N)
    if stepped is None:
        return None
    values, pieces = stepped

    f_hat = np.empty(T)
    if batch.answer(batch.gemvs(x_hat), f_hat) is None:
        return None
    check_weight_rows(v, h_last)

    g_norms_sq = np.empty((T, N + 1))  # the g^k are slopes: verify_lemma's row sums, last dot
    g_norms_sq[:, :N] = core.sums_of_squares(batch.slopes, dims)[batch.ar[:, None], pieces[:N].T]
    g_norms_sq[:, N] = batch.dots[batch.ar, pieces[N]]
    return lemma_rows(steps.T, h_last, v, values.T, f_hat, g_norms_sq, d_sq).slack
