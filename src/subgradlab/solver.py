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

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import core
from .core import ZERO_TOL, ProblemInstance, as_point
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
        c = (N + 1) ** 1.5
        return cls(lambda k, B, R: R * (N + 1 - k) / (B * c), N=N)

    @classmethod
    def optimal_length(cls, N: int) -> "StepSchedule":
        N = _validate_horizon(N)
        c = (N + 1) ** 1.5
        return cls(lambda k, B, R: R * (N + 1 - k) / c, by_length=True, N=N)

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


@dataclass(eq=False)
class RunTrace:
    """Everything the method produced over one run of N iterations.

    ``values`` holds f(x^1) .. f(x^{N+1}), ``steps`` the N step sizes
    actually applied and ``points`` the (N+1) x dim array of iterates.
    ``answers`` keeps the oracle answers g^1 .. g^{N+1} by reference, the
    last one queried at x^{N+1} with iteration index N+1, a piecewise one
    read-only and shared by the iterations that chose its piece;
    ``subgradients`` stacks them into a fresh (N+1) x dim float64 array on
    each read.
    """

    values: np.ndarray
    steps: np.ndarray
    points: np.ndarray
    answers: list = field(repr=False)
    terminated_early: bool

    @property
    def horizon(self) -> int:
        return len(self.steps)

    @property
    def subgradients(self) -> np.ndarray:
        return np.array(self.answers, dtype=np.float64)


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
    There is one loop, with its query chosen once: ``core.plmax_query`` on
    the fields of a ``PiecewiseOracle``, whose read-only answers the trace
    keeps by reference, else the oracle itself, with each answer copied.
    Each step writes x - h_k g into the trace's next row and projects that
    row, copying back a result that is another array (an oracle must not write to x).
    h_k reaches the multiply as a 0-d array, which numpy takes with less
    overhead than a float and rounds to the same bits.
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

    o = p.oracle
    if isinstance(o, core.PiecewiseOracle):
        query = core.plmax_query(o.pieces, o.B, o.R)
    else:
        def query(x, k):  # a copy of g, since such an oracle may reuse its buffer
            value, g, norm = o(x, k)
            return value, np.array(g), norm
    project, rule, by_length = p.projection, schedule.rule, schedule.by_length
    B, R = p.B, p.R
    max_norm, zero_norm = B * (1.0 + 1e-12), ZERO_TOL * B

    values = np.empty(N + 1)
    steps = np.empty(N)
    points = np.empty((N + 1, p.dimension))
    answers = []
    points[0] = x
    hg, h0 = np.empty(p.dimension), np.empty(())
    terminated_early = False

    # An overflowing step leaves an infinite coordinate: a box projection clips
    # it, else the next query raises its error, in place of numpy's warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, N + 1):
            value, g, norm = query(x, k)
            if norm > max_norm:
                raise core.norm_above_B(norm, B)
            values[k - 1] = value
            answers.append(g)
            if norm <= zero_norm:
                terminated_early = True
                values[k - 1 :] = value
                for j in range(k, N + 1):
                    steps[j - 1] = schedule.nominal_step(j, p)
                points[k:] = x
                answers += [g] * (N - k)
                break
            h_k = rule(k, B, R)
            if by_length:
                h_k /= norm
            steps[k - 1] = h0[()] = h_k
            row = points[k]
            np.subtract(x, np.multiply(g, h0, out=hg), out=row)
            x = project(row)
            if x is not row:
                row[...] = x

        value, g, norm = query(x, N + 1)
        if norm > max_norm:
            raise core.norm_above_B(norm, B)
        values[N] = value
        answers.append(g)

    return RunTrace(
        values=values,
        steps=steps,
        points=points,
        answers=answers,
        terminated_early=terminated_early,
    )


class PieceBatch:
    """T unit piecewise-linear maxima answered together, each with the bits of
    its own ``plmax_query``.

    Each trajectory's slopes stay its own contiguous array, for the one gemv
    per answer, ``slopes.dot(x, out=row)`` into its row of ``V``; ``slopes``
    pads them into a (T, M, D) buffer for the gather of the chosen rows, and
    the padded pieces have intercept -inf (the others default to +0.0), so
    they are never active.  ``dots`` holds ``core.row_dots`` of every piece,
    taken per dimension, and ``norms`` their roots, each trajectory's
    ``slope_norms``; an answer checks its chosen piece's norm only when
    ``over_B`` or ``vanishing`` says some real piece's is above B = 1 (1 +
    1e-12) or at or below ``ZERO_TOL``.  Every other operation of an answer
    is one numpy call over the batch, in the query's order.
    """

    def __init__(self, slopes: Sequence[np.ndarray], intercepts: Sequence[np.ndarray] | None = None):
        self.own = slopes
        self.dims = np.array([s.shape[1] for s in slopes])
        counts = np.array([len(s) for s in slopes])
        T, M = len(slopes), int(counts.max())
        self.real = np.arange(M) < counts[:, None]
        self.slopes = np.zeros((T, M, int(self.dims.max())))
        self.intercepts = np.full((T, M), -np.inf)
        self.intercepts[self.real] = 0.0 if intercepts is None else np.concatenate(intercepts)
        for t, s in enumerate(slopes):
            self.slopes[t, : len(s), : s.shape[1]] = s
        self.dots = np.zeros((T, M))
        for d in set(self.dims.tolist()):
            self.dots[self.dims == d] = core.row_dots(self.slopes[self.dims == d, :, :d])
        self.norms = np.sqrt(self.dots)
        self.over_B = bool((self.norms[self.real] > 1.0 + 1e-12).any())  # run's B check at B = 1
        self.vanishing = bool((self.norms[self.real] <= ZERO_TOL).any())
        self.V = np.zeros((T, M))  # padding: 0, then -inf once the intercepts are added
        self.active = np.zeros((T, M), dtype=bool)
        self.ar = np.arange(T)

    def gemvs(self, X: np.ndarray) -> list:
        """Each trajectory's gemv, bound to its row of the points X (T, D)."""
        return [(s.dot, X[t, : s.shape[1]], self.V[t, : s.shape[0]]) for t, s in enumerate(self.own)]

    def answer(self, gemvs: list, fmax: np.ndarray) -> np.ndarray | None:
        """The query's answer for every trajectory at the points ``gemvs``
        reads: the maximum into ``fmax`` and the index of the highest active
        piece, or None when ``run`` would raise on some answer: a maximum
        that is NaN or +inf, or a chosen piece of norm above B = 1."""
        for dot, x, out in gemvs:
            dot(x, out=out)  # the gemv of `@`, without the ufunc
        np.add(self.V, self.intercepts, out=self.V)
        np.maximum.reduce(self.V, axis=1, out=fmax)
        thr = core.active_threshold(fmax)
        if np.isnan(thr).any():
            return None
        np.greater_equal(self.V, thr[:, None], out=self.active, where=self.real)
        piece = (self.V.shape[1] - 1) - self.active[:, ::-1].argmax(axis=1)
        if self.over_B and (self.norms[self.ar, piece] > 1.0 + 1e-12).any():
            return None
        return piece


def step_together(batch: PieceBatch, X: np.ndarray, steps: np.ndarray, by_length: np.ndarray, N: int):
    """The lock-step loop of certify's chunk: ``run``'s N steps and final
    query for every trajectory of ``batch`` from the points X (T, D), which
    it moves, with the planned ``steps`` (N, T), which it turns into the
    realized ones.  The instances are unit (B = R = 1), unscripted and on
    the whole space.

    Returns ``(values, pieces)``, arrays of N + 1 rows over the
    trajectories, ``pieces`` holding the index of the piece each answer
    chose, whose row of ``batch.slopes`` is the subgradient; or None when
    some answer would make ``run`` raise (see ``PieceBatch.answer``) or,
    before the final query, stop early (a norm at or below ``ZERO_TOL``).
    """
    T, D = X.shape
    any_by_length = bool(by_length.any())
    HG = np.empty((T, D))
    values = np.empty((N + 1, T))
    pieces = np.empty((N + 1, T), dtype=np.intp)
    gemvs = batch.gemvs(X)

    for k in range(1, N + 2):  # N steps, then the final query at N + 1
        piece = batch.answer(gemvs, values[k - 1])
        if piece is None:
            return None
        pieces[k - 1] = piece
        if k > N:
            break
        if batch.vanishing and (batch.norms[batch.ar, piece] <= ZERO_TOL).any():
            return None
        h = steps[k - 1]
        if any_by_length:
            np.divide(h, batch.norms[batch.ar, piece], out=h, where=by_length)
        np.multiply(h[:, None], batch.slopes[batch.ar, piece], out=HG)
        np.subtract(X, HG, out=X)
    return values, pieces


def _settle_gap(raw: float, p: ProblemInstance) -> float:
    """Clamp the tiny negative gaps float arithmetic can produce to zero."""
    tol = 1e-12 * p.B * p.R
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
    h = np.ldexp(h, -math.frexp(float(h.max()))[1])  # a power of two, so h.sum() is finite
    weights = h / h.sum()
    x_avg = weights @ trace.points
    return _settle_gap(float(p.evaluate(x_avg).value) - p.f_star, p)


def best_iterate_bound(h: Sequence[float], B: float, R: float) -> float:
    """Classical guarantee for the best iterate seen in N+1 evaluations:

        min_{1<=k<=N+1} f(x^k) - f_star <= (R^2 + B^2 sum h_k^2) / (2 sum h_k)

    where ``h`` lists h_1 .. h_{N+1}.  Valid for every positive step
    sequence, so callers are free to extend a realized schedule by any
    positive h_{N+1}.  B h_k is squared before summing, never h_k alone:
    h_k is about R / B, so B h_k stays near R while h_k^2 under- or
    overflows when B and R are far apart (B = 1e100, R = 1e-100).  R, B h_k
    and h_k are scaled by 2^-e, e the larger of the exponents of R and of
    B max h_k (the exponents of B and max h_k added, so that product is
    never formed), and the result by 2^e.  Then neither the squares nor the
    sums overflow (h_k = 1e308), and R^2 does not underflow unless it is
    negligible (R = 1e-300, 1e160); a power of two scales exactly, so
    ordinary scales keep every bit.
    """
    h = _validate_steps(h)
    B, R = _validate_scale(B, R)
    e = max(math.frexp(R)[1], math.frexp(B)[1] + math.frexp(float(h.max()))[1])
    r, h = math.ldexp(R, -e), np.ldexp(h, -e)
    Bh = B * h
    return math.ldexp(float((r * r + np.sum(Bh * Bh)) / (2.0 * np.sum(h))), e)
