"""Instances on which the rate formulas hold with equality.

Each generator returns a normalized :class:`ProblemInstance` (B = R = 1
unless stated otherwise) whose canonical run -- from ``x_start`` with the
intended schedule -- realizes the corresponding worst-case bound exactly.
The adversarial constructions rely on scripted tie-breaking: along the
canonical trajectory several affine pieces are active simultaneously, and
the script picks the one that keeps the method pessimal.  Pass
``scripted=False`` to lift the script when running other schedules on the
same function (the default tie-break then applies and the instance is just
an ordinary convex function).
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Any, Callable, NamedTuple

import numpy as np

from .core import (PiecewiseLinearMax, ProblemInstance, dots, instance_from_pieces, scale_instance,
                   sums_of_squares)
from .errors import InvariantViolation, StepOutOfRange, StepTooSmall
from .rates import (
    TWO_STEP_FIRST,
    TWO_STEP_KNEE,
    RateReport,
    _validate_horizon,
    _validate_step,
    constant_length_rate,
    constant_step_rate,
    knee,
    optimal_method_rate,
    weakened_rate_bounds,
)
from .sequences import iter_s
from .solver import StepSchedule, avg_gap, best_gap, best_iterate_bound, last_gap, run


def abs_instance(B: float = 1.0, R: float = 1.0) -> ProblemInstance:
    """f(x) = B |x| on the line, started at x = R.

    The short-step worst case: with constant normalized step h <= 1/N the
    iterates walk straight toward 0 and the final gap is exactly
    B R (1 - N h).  The unit |x| is dilated by ``scale_instance``.
    """
    pieces = PiecewiseLinearMax(slopes=np.array([[1.0], [-1.0]]), intercepts=np.zeros(2))
    unit = instance_from_pieces(
        pieces, f_star=0.0, x_star=[0.0], x_start=[1.0], B=1.0, R=1.0, name="abs"
    )
    return scale_instance(unit, B, R)


def long_step_instance(N: int, h: float, scripted: bool = True) -> ProblemInstance:
    """The long-step worst case for N constant normalized steps h.

    Defined for h past the knee 1 / s_{N+1}^2.  The function is the maximum
    of 0 and N+1 unit-slope affine pieces through the origin whose mutual
    angles are tuned so that, along the scripted trajectory from e_1, every
    remaining piece stays active and the final value lands exactly on
    ``constant_step_rate(N, h)``.
    """
    N = _validate_horizon(N)
    h = _validate_step(h)
    s_values = list(islice(iter_s(1.0), N + 1))  # s_1 .. s_{N+1}
    sN1 = s_values[N]
    if h <= 1.0 / sN1**2:
        raise StepTooSmall(
            f"h={h} is at or below the knee {1.0 / sN1 ** 2:.6g} for N={N}; "
            "the long-step construction needs h strictly past the knee"
        )
    lead = 1.0 / (h * sN1**2)
    root = math.sqrt(1.0 - lead * lead)

    # Row k = 1..N of xi: lead in column 0, root gamma_j / s_{N+1-j}^2 in each
    # column j < k (the same in every row, so the block below the diagonal
    # repeats one row vector), -root gamma_k in column k.  Row N+1 is row N with
    # +root gamma_N in column N; gamma_1 = 1, gamma_k = gamma_{k-1} *
    # sqrt(1 - 1/s_{N+2-k}^4).  Powers stay Python floats to keep the bits.
    s_desc = s_values[N - 1 : 0 : -1]  # s_N .. s_2
    gammas = np.cumprod([1.0] + [math.sqrt(1.0 - 1.0 / v**4) for v in s_desc])
    below = root * gammas[: N - 1] / np.array([v**2 for v in s_desc])
    slopes = np.zeros((N + 2, N + 1))  # row 0 is the zero piece
    xi = slopes[1:]
    xi[:N, 0] = lead
    xi[:N, 1:N] = np.tril(np.broadcast_to(below, (N, N - 1)), -1)
    xi[np.arange(N), np.arange(1, N + 1)] = -root * gammas
    xi[N] = xi[N - 1]
    xi[N, N] = root * gammas[N - 1]

    intercepts = np.zeros(N + 2)  # every piece passes through the origin
    choices = {k: k for k in range(1, N + 2)} if scripted else None
    pieces = PiecewiseLinearMax(slopes, intercepts, scripted_choices=choices)
    norms = pieces.slope_norms[1:]  # also read by the B check in instance_from_pieces
    if not (np.abs(norms - 1.0) <= 1e-12).all():
        raise InvariantViolation(f"long-step slopes are not unit vectors: {norms}")

    x_start = np.zeros(N + 1)
    x_start[0] = 1.0
    return instance_from_pieces(
        pieces,
        f_star=0.0,
        x_star=np.zeros(N + 1),
        x_start=x_start,
        B=1.0,
        R=1.0,
        name=f"longstep(N={N},h={h})",
    )


def two_step_schedule(h2: float) -> StepSchedule:
    """The canonical two-iteration schedule (1/(2 sqrt 2), h2)."""
    return StepSchedule.custom([TWO_STEP_FIRST, float(h2)])


def two_step_worst_small(h2: float, scripted: bool = True) -> ProblemInstance:
    """Worst case for the two-step schedule when the second step is small.

    f(x) = max(x_1 - 1, x_2 - 1, -1) on the plane, started at
    (1,1)/sqrt(2).  Scripting makes the first iteration follow the x_1
    piece, after which the second step h2 <= 1/(8 sqrt 2) can only shave h2
    off the gap: the final gap is exactly 1/sqrt(2) - h2.
    """
    if h2 is None or not math.isfinite(h2 := float(h2)) or not 0.0 < h2 <= TWO_STEP_KNEE:
        raise StepOutOfRange(
            f"this construction covers 0 < h2 <= {TWO_STEP_KNEE:.6g}, got {h2}"
        )
    pieces = PiecewiseLinearMax(
        slopes=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        intercepts=np.array([-1.0, -1.0, -1.0]),
        scripted_choices={1: 0, 2: 1} if scripted else None,
    )
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return instance_from_pieces(
        pieces,
        f_star=-1.0,
        x_star=[0.0, 0.0],
        x_start=[inv_sqrt2, inv_sqrt2],
        B=1.0,
        R=1.0,
        name=f"two-step-small(h2={h2})",
    )


def two_step_worst_long(h2: float, scripted: bool = True) -> ProblemInstance:
    """Worst case for the two-step schedule when the second step is long.

    Three tilted unit-slope pieces plus the zero piece in dimension 3,
    started at e_1.  After the scripted two steps the gap is exactly

        h2 + 1/(64 h2) + 16 h2 / (1 + 8 sqrt(2) h2)^2,

    the long branch of ``two_step_worst_gap``.
    """
    if h2 is None or not math.isfinite(h2 := float(h2)) or h2 <= TWO_STEP_KNEE:
        raise StepOutOfRange(
            f"this construction covers h2 > {TWO_STEP_KNEE:.6g}, got {h2}"
        )
    sqrt2 = math.sqrt(2.0)
    gamma = 32.0 * h2 / (1.0 + 8.0 * sqrt2 * h2) ** 2
    if not (0.0 <= gamma <= 1.0 and 1.0 - 1.0 / (128.0 * h2 * h2) >= 0.0):
        raise InvariantViolation(f"two-step long construction is undefined at h2={h2}")
    sin = math.sqrt(1.0 - gamma * gamma)
    deep = math.sqrt((1.0 - gamma * gamma) * (1.0 - 1.0 / (128.0 * h2 * h2)))

    slopes = np.array([[0.0, 0.0, 0.0],
                       [gamma, -sin, 0.0],
                       [gamma, sin / (8.0 * sqrt2 * h2), -deep],
                       [gamma, sin / (8.0 * sqrt2 * h2), deep]])
    xi = slopes[1:]
    for v, norm in zip(xi, np.sqrt(dots(xi, xi))):
        if abs(norm - 1.0) > 1e-12:
            raise InvariantViolation(f"two-step slope {v} is not a unit vector")

    z1 = np.array([1.0, 0.0, 0.0])
    z2 = z1 - xi[0] / (2.0 * sqrt2)
    z = np.array([z1, z2, z2 - h2 * xi[1]])

    c1 = gamma
    c2 = gamma + (1.0 - gamma * gamma) / (32.0 * h2) - gamma * gamma / (2.0 * sqrt2)
    c3 = h2 + 1.0 / (64.0 * h2) + 16.0 * h2 / (1.0 + 8.0 * sqrt2 * h2) ** 2
    intercepts = np.concatenate(([0.0], np.array([c1, c2, c3]) - dots(xi, z)))
    # all pieces must stay at or below zero at the minimizer
    if np.max(intercepts) > 1e-12:
        raise InvariantViolation(f"a two-step piece is positive at the minimizer: {intercepts}")

    pieces = PiecewiseLinearMax(
        slopes,
        intercepts,
        scripted_choices={1: 1, 2: 2} if scripted else None,
    )
    return instance_from_pieces(
        pieces,
        f_star=0.0,
        x_star=np.zeros(3),
        x_start=z1,
        B=1.0,
        R=1.0,
        name=f"two-step-long(h2={h2})",
    )


def unit_pieces(slopes: np.ndarray, counts: np.ndarray, starts: np.ndarray) -> bool:
    """``random_pieces``' arithmetic, in place, on G draws of one dimension d:
    ``slopes`` (G, 2M, d) holds draw g's ``counts[g]`` drawn rows, then zeros,
    and ``starts`` (G, d) its start.  Makes the rows unit, writes their
    antipodes after them and divides each start by the root of its ``dots``;
    each draw keeps the bits of a stack of one.  False, for a redraw, when a
    row's norm is below 1e-12."""
    M = slopes.shape[1] // 2
    drawn, real = slopes[:, :M], np.arange(M) < counts[:, None]
    norms = np.sqrt(sums_of_squares(drawn))
    norms[~real] = 1.0  # the zeros after the drawn rows stay zeros
    if (norms < 1e-12).any():  # essentially impossible, but cheap to guard
        return False
    drawn /= norms[..., None]
    g, i = real.nonzero()
    slopes[g, counts[g] + i] = -drawn[g, i]
    starts /= np.sqrt(dots(starts, starts))[:, None]
    return True


def random_pieces(
    dimension: int, directions: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``random_instance``'s draws from ``rng``, in its order: the unit slopes,
    a contiguous (2 directions, dimension) array holding the drawn rows and
    then their antipodes, and the unit start point, through ``unit_pieces``
    as a stack of one; a redraw draws both again."""
    slopes, x_start = np.zeros((1, 2 * directions, dimension)), np.empty((1, dimension))
    while True:
        rng.standard_normal(out=slopes[0, :directions])
        rng.standard_normal(out=x_start)
        if unit_pieces(slopes, np.array([directions]), x_start):
            return slopes[0], x_start[0]


def random_instance(
    dimension: int, directions: int, seed=0
) -> ProblemInstance:
    """A random normalized test instance: a max of pieces through the origin.

    Draws ``directions`` unit slopes and includes their antipodes, so the
    origin lies in the convex hull of the slopes and is a genuine minimizer
    with f_star = 0.  The start point is a random unit vector, giving
    B = R = 1 by construction.  ``seed`` may be anything accepted by
    ``numpy.random.default_rng``, including an existing generator.  The
    draws are :func:`random_pieces`.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if directions < 1:
        raise ValueError(f"need at least one direction, got {directions}")
    slopes, x_start = random_pieces(dimension, directions, np.random.default_rng(seed))
    return instance_from_pieces(
        PiecewiseLinearMax(slopes, np.zeros(2 * directions)),
        f_star=0.0,
        x_star=np.zeros(dimension),
        x_start=x_start,
        B=1.0,
        R=1.0,
        name=f"random(dim={dimension},directions={directions})",
    )


class Method(NamedTuple):
    flag: str | None  # the `run` flag holding the step parameter
    schedule: Callable[[int, Any], StepSchedule]  # from (N, param)
    rate: Callable[[int, Any], float] | None  # last-iterate rate per B*R, from (N, param)


# The step-size methods a cell runs, by name.
METHODS = {
    "constant": Method("h", lambda N, h: StepSchedule.constant_normalized(h),
                       lambda N, h: constant_step_rate(N, h)),
    "length": Method("t", lambda N, t: StepSchedule.constant_length(t),
                     lambda N, t: constant_length_rate(N, t)),
    "optimal": Method(None, lambda N, _: StepSchedule.optimal_last_iterate(N),
                      lambda N, _: optimal_method_rate(N)),
    "optimal-length": Method(None, lambda N, _: StepSchedule.optimal_length(N),
                             lambda N, _: optimal_method_rate(N)),
    "custom": Method(None, lambda N, steps: StepSchedule.custom(steps), None),
}


def cell_instance(
    key: str, N: int, h: float | None, method: str, B: float = 1.0, R: float = 1.0, *,
    h2: float | None = None, own_steps: bool = False, dim: int | None = None,
    directions: int | None = None, seed=0,
) -> ProblemInstance:
    """The instance on which a cell of horizon N and step h runs ``method``,
    scaled to (B, R): ``key`` is ``abs``, ``longstep``, ``lemma-i`` or ``lemma-ii``
    (second step ``h2``), ``random`` (``dim``, ``directions``, ``seed``) or
    ``worstcase``, which is ``longstep`` for an h past the knee, else ``abs``.
    Long-step pieces are scripted for ``constant`` and ``length``, whose rate
    they attain; two-step pieces for ``custom`` at N = 2 on the canonical
    schedule, not ``own_steps``."""
    if key == "worstcase":
        key = "longstep" if h is not None and h > knee(N) else "abs"
    if key == "abs":
        p = abs_instance()
    elif key == "longstep":
        p = long_step_instance(N, h, scripted=method in ("constant", "length"))
    elif key in ("lemma-i", "lemma-ii"):
        make = two_step_worst_small if key == "lemma-i" else two_step_worst_long
        p = make(h2, scripted=method == "custom" and N == 2 and not own_steps)
    elif key == "random":
        p = random_instance(dim, directions, seed=seed)
    else:
        raise ValueError(f"unknown instance {key!r}")
    return scale_instance(p, B, R)


class Cell(NamedTuple):
    """A cell's measured columns at the instance's B and R, as a sweep row ends."""

    last_gap: float
    best_gap: float
    avg_gap: float
    bound_last: float | None  # None for a method without a rate
    bound_best: float
    slack: float  # the least bound minus its gap; NaN if either is NaN
    bound_log: float | None  # the weakened log form, for a step parameter and N >= 2


def cell(p: ProblemInstance, method: str, N: int, param, schedule: StepSchedule) -> Cell:
    """Run N steps of ``schedule`` on ``p`` and measure the cell against the
    bounds of ``METHODS[method]`` at ``param``."""
    trace = run(p, schedule, N=N)
    BR = p.B * p.R
    lastg = last_gap(trace, p)
    bestg = best_gap(trace, p)
    extended = np.append(trace.steps, trace.steps[-1])
    avgg = avg_gap(trace, p, extended)
    bound_best = best_iterate_bound(extended, p.B, p.R)

    rate = METHODS[method].rate
    bound_last = None if rate is None else BR * rate(N, param)
    slacks = [bound_best - bestg]
    if bound_last is not None:
        slacks.append(bound_last - lastg)
    slack = math.nan if any(map(math.isnan, slacks)) else min(slacks)
    has_log = param is not None and N >= 2  # the constant-parameter methods
    bound_log = BR * weakened_rate_bounds(N, param).log_form if has_log else None
    return Cell(lastg, bestg, avgg, bound_last, bound_best, slack, bound_log)


def tightness_report(N: int, h: float) -> RateReport:
    """Run the branch-appropriate worst case and compare with the formula.

    Runs N constant normalized steps h from the canonical start of the
    ``worstcase`` cell instance, the straight-line instance for h at or
    below the knee and the long-step construction past it, and reports
    predicted versus observed final gap.  The two numbers agree to
    rounding; any daylight between them means a bug in either the formula
    or the construction.
    """
    predicted = constant_step_rate(N, h)  # validates N and h
    instance = cell_instance("worstcase", N, h, "constant")
    trace = run(instance, StepSchedule.constant_normalized(h), N=N)
    return RateReport(
        N=N,
        regime="short_step" if instance.name == "abs" else "long_step",
        predicted_bound=predicted,
        observed_gap=last_gap(trace, instance),
    )
