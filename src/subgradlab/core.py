"""Problem instances, oracles, and projections.

The solver only ever sees a :class:`ProblemInstance`: a first-order oracle
returning a value and one subgradient, a projection onto the feasible set,
and the two constants that normalize every rate in the package -- a bound B
on subgradient norms and a bound R on the distance from the initial point
to a minimizer.

Most concrete instances are finite maxima of affine pieces, represented by
:class:`PiecewiseLinearMax`.  Their oracle supports *scripted* subgradient
choices: a map from iteration index to piece index that resolves ties the
way an adversary would.  A scripted choice must be active (up to a relative
tolerance) at the queried point; anything else raises, because it would
silently turn the instance into a different function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import IncompatibleLength, ScriptedPieceInactive
from .rates import _validate_scale

# Subgradients with norm at or below this times B are treated as exact zeros
# (the method has hit a minimizer and stops moving).
ZERO_TOL = 1e-14

# Relative tolerance deciding which affine pieces count as active.
ACTIVE_TOL = 1e-9

# Points must satisfy ||projection(x) - x|| at or below this (scaled by the
# point's magnitude) to count as feasible.
FEASIBLE_TOL = 1e-12

Oracle = Callable[[np.ndarray, "int | None"], "SubgradientSample"]
Projection = Callable[[np.ndarray], np.ndarray]


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array, copying the input."""
    arr = np.array(x, dtype=np.float64, copy=True)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D point, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("point has non-finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise IncompatibleLength(f"expected dimension {dim}, got {arr.shape[0]}")
    return arr


def row_dots(rows: np.ndarray) -> np.ndarray:
    """``r.dot(r)`` of each row r on the last axis, bit for bit: numpy hands
    each 1 x d by d x 1 product of the stacked ``matmul`` to that BLAS dot."""
    return np.matmul(rows[..., None, :], rows[..., None])[..., 0, 0]


class SubgradientSample(NamedTuple):
    """One oracle answer: the function value, a single subgradient and its
    Euclidean ``norm`` ``math.sqrt(g.dot(g))``, read from ``slope_norms`` by
    :func:`plmax_query` and taken by :meth:`of` for any other oracle: the
    correctly rounded root of the dot ``np.linalg.norm`` takes for a 1-D
    float64 vector, so the two agree bit for bit.  The record is an immutable
    tuple, but ``subgradient`` may be the oracle's own data (a row of the
    pieces' slopes, or its scaled copy); callers must not write to it, and
    for a piecewise answer numpy raises if they try."""

    value: float
    subgradient: np.ndarray
    norm: float

    @classmethod
    def of(cls, value: float, subgradient: np.ndarray) -> "SubgradientSample":
        g = np.asarray(subgradient, dtype=np.float64)
        return cls(float(value), g, math.sqrt(g.dot(g)))


@dataclass(frozen=True)
class PiecewiseLinearMax:
    """f(x) = max_i (<slopes[i], x> + intercepts[i]).

    ``scripted_choices`` maps a 1-based iteration index to the piece index
    (0-based row of ``slopes``) whose slope the oracle must return at that
    iteration.  Unscripted queries return the highest-index active piece,
    which makes tie-breaking deterministic.

    ``slope_norms`` holds the Euclidean norm of each row of ``slopes``,
    taken once at construction as the root of :func:`row_dots`, so it is
    ``math.sqrt(r.dot(r))`` of each row r bit for bit: the norm the oracle
    answers with and the one the B checks read.  The slopes must not be
    written to afterwards.
    """

    slopes: np.ndarray
    intercepts: np.ndarray
    scripted_choices: Mapping[int, int] | None = None
    slope_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        slopes = np.asarray(self.slopes, dtype=np.float64)
        if slopes.ndim < 2:
            slopes = slopes.reshape(1, -1)
        elif slopes.ndim > 2:
            raise ValueError(f"slopes must have at most two axes, got shape {slopes.shape}")
        intercepts = np.asarray(self.intercepts, dtype=np.float64).reshape(-1)
        if slopes.shape[0] == 0:
            raise ValueError("need at least one piece")
        if slopes.shape[0] != intercepts.shape[0]:
            raise IncompatibleLength(
                f"{slopes.shape[0]} slopes vs {intercepts.shape[0]} intercepts"
            )
        if not (np.isfinite(slopes).all() and np.isfinite(intercepts).all()):
            raise ValueError("pieces have non-finite entries")
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "intercepts", intercepts)
        object.__setattr__(self, "slope_norms", np.sqrt(row_dots(slopes)))
        if self.scripted_choices is not None:
            m = slopes.shape[0]
            for it, piece in self.scripted_choices.items():
                if not (isinstance(it, (int, np.integer)) and it >= 1):
                    raise ValueError(f"scripted iteration {it!r} is not an integer >= 1")
                if not (isinstance(piece, (int, np.integer)) and 0 <= piece < m):
                    raise ValueError(
                        f"scripted piece {piece!r} for iteration {it} is not a piece index "
                        f"below {m}"
                    )

    @property
    def dimension(self) -> int:
        return self.slopes.shape[1]

    def max_slope_norm(self) -> float:
        return float(self.slope_norms.max())


def active_threshold(fmax):
    """The least value of a piece active where the maximum is ``fmax`` (a
    float or an array of them): ``fmax - ACTIVE_TOL * (1 + |fmax|)``."""
    return fmax - ACTIVE_TOL * (1.0 + abs(fmax))


def norm_above_B(norm, B) -> ValueError:
    """The error of an oracle answer whose norm exceeds the instance's B."""
    return ValueError(f"oracle returned a subgradient of norm {norm}, exceeding B={B}")


def plmax_query(f: PiecewiseLinearMax, B: float = 1.0, R: float = 1.0):
    """The oracle of B * R * f(x / R), the piecewise-linear max dilated by
    (B, R), as a function ``(x, k=None) -> (value, g, norm)``.

    The unit answer at x / R is the true maximum and the slope of the
    scripted piece for iteration ``k`` when a script entry exists, or of the
    highest-index active piece.  A piece is active when its value at x / R is
    within ``ACTIVE_TOL * (1 + |max|)`` of the maximum there, so the choice
    does not depend on (B, R).  Each field of a scaled answer is the unit
    field times its scale: value by B * R, subgradient and norm by B.  A
    scale of 1.0 is skipped, which keeps every bit (x / 1.0 == x), so with
    B == 1.0 the subgradient is a row of a read-only view of ``f.slopes``
    made once, which leaves ``f.slopes`` writable.  The pieces, script and
    scales are bound once, and each piece's (g, norm), the norm read from
    ``f.slope_norms``, is kept, g read-only, in a memo local to the returned
    function, so a write into an answer raises instead of changing the
    slopes or a trace that keeps it.  ``x`` must be a float64 array.

    The function owns buffers for the M piece values and x / R, so it serves
    one ``run`` at a time and no two threads.  All-+0.0 intercepts are not
    added: that add only turns -0.0 into +0.0, which no comparison sees.  The
    maximum, read at its first index, has the bits of ``np.maximum.reduce``.
    """
    dot, intercepts, norms = f.slopes.dot, f.intercepts, f.slope_norms
    slopes = f.slopes.view()  # read-only rows, without flipping the caller's array
    slopes.flags.writeable = False
    script = f.scripted_choices or {}
    BR, R0 = B * R, np.array(R)  # a 0-d operand: less ufunc overhead than a float, same bits
    memo = [None] * len(intercepts)
    vals, y, last = np.empty(len(intercepts)), np.empty(f.dimension), len(intercepts) - 1
    add = intercepts.view(np.int64).any()  # False when all are +0.0

    def query(x, k=None):
        dot(x if R == 1.0 else np.divide(x, R0, out=y), out=vals)  # the gemv of `@`
        if add:
            np.add(vals, intercepts, out=vals)
        top = vals.argmax()  # the first index of the maximum, or of a NaN
        fmax = vals.item(top)
        if fmax == 0.0:  # +0.0 after a skipped add, else the sign the reduce picks on a tie
            fmax = float(np.maximum.reduce(vals)) if add else 0.0
        threshold = active_threshold(fmax)
        if k in script:
            piece = script[k]
            if vals.item(piece) < threshold:
                raise ScriptedPieceInactive(
                    f"iteration {k} is scripted to piece {piece}, but that piece is "
                    f"{fmax - vals.item(piece):.3e} below the maximum at the queried point"
                )
        elif math.isnan(threshold):  # a NaN or +inf maximum leaves no piece in the band
            raise ValueError(
                f"iteration {k}: no piece is active at the queried point, "
                f"where the maximum is {fmax}"
            )
        else:
            piece = top
            if top < last:
                tail = vals[top + 1 :]
                if tail.item(tail.argmax()) >= threshold:
                    piece = top + 1 + (tail >= threshold).nonzero()[0][-1]
        answer = memo[piece]
        if answer is None:
            g, norm = slopes[piece], norms.item(piece)
            if B != 1.0:
                g, norm = B * g, B * norm
                g.flags.writeable = False
            answer = memo[piece] = (g, norm)
        g, norm = answer
        return BR * fmax, g, norm

    return query


def eval_plmax(
    f: PiecewiseLinearMax, x: np.ndarray, k: int | None = None, *, B=1.0, R=1.0
) -> SubgradientSample:
    """A record of one query of ``plmax_query(f, B, R)``: the answer of
    B * R * f(x / R) at ``x`` for iteration ``k``."""
    return SubgradientSample(*plmax_query(f, B, R)(x, k))


@dataclass(frozen=True)
class PiecewiseOracle:
    """The oracle of B * R * f(x / R) for the pieces f, read field by field
    by ``run`` and ``scale_instance``: a call returns
    ``eval_plmax(pieces, x, k, B=B, R=R)``.  A unit scale is 1.0."""

    pieces: PiecewiseLinearMax
    B: float = 1.0
    R: float = 1.0

    def __call__(self, x: np.ndarray, k: int | None = None) -> SubgradientSample:
        return eval_plmax(self.pieces, x, k, B=self.B, R=self.R)


@dataclass(frozen=True)
class ProblemInstance:
    """A convex problem presented to the solver as a black box.

    The solver reads only ``oracle``, ``projection``, ``B``, ``R`` and
    ``dimension``; the reference fields ``f_star``/``x_star`` exist purely so
    that gaps and certificates can be measured after the fact.  ``x_start``
    is the canonical initial iterate for instances that come with one (the
    worst-case constructions do).  ``oracle`` is a :class:`PiecewiseOracle`
    for a piecewise-linear max, or any ``(x, k) -> SubgradientSample``.
    """

    oracle: Oracle
    projection: Projection
    f_star: float
    B: float
    R: float
    dimension: int
    x_star: np.ndarray | None = None
    x_start: np.ndarray | None = None
    name: str = "instance"

    def evaluate(self, x: np.ndarray, k: int | None = None) -> SubgradientSample:
        """Query the oracle, enforcing the subgradient norm bound."""
        sample = self.oracle(np.asarray(x, dtype=np.float64), k)
        if sample.norm > self.B * (1.0 + 1e-12):
            raise norm_above_B(sample.norm, self.B)
        return sample

    def is_feasible(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=np.float64)
        d = self.projection(x) - x
        # hypot, not the root of a dot: x.dot(x) overflows at |x| = 1e160
        return math.hypot(*d.tolist()) <= FEASIBLE_TOL * max(1.0, math.hypot(*x.tolist()))


def check_bounds(max_norm, dist, B, R) -> None:
    """The check of a declared B and R, on one instance or on arrays of
    them: raise for the first instance whose largest slope norm exceeds
    B (1 + 1e-12), or else whose ||x_start - x_star|| ``dist`` exceeds
    R (1 + 1e-12)."""
    over_B = max_norm > B * (1.0 + 1e-12)
    bad = over_B | (dist > R * (1.0 + 1e-12))
    if not (bad if isinstance(bad, bool) else bad.any()):
        return
    t = int(np.argmax(bad))
    max_norm, dist, over_B = np.atleast_1d(max_norm, dist, over_B)
    if over_B[t]:
        raise ValueError(f"slope norm {float(max_norm[t])} exceeds declared B={B}")
    raise ValueError(f"||x_start - x_star|| = {float(dist[t])} exceeds declared R={R}")


def instance_from_pieces(
    pieces: PiecewiseLinearMax,
    *,
    f_star: float,
    x_star,
    x_start,
    B: float | None = None,
    R: float | None = None,
    projection: Projection | None = None,
    name: str = "piecewise",
) -> ProblemInstance:
    """Wrap a piecewise-linear max as a problem instance.

    ``B`` defaults to the largest slope norm and ``R`` to the distance from
    ``x_start`` to ``x_star``; passing either explicitly just validates it.
    """
    x_star = as_point(x_star, pieces.dimension)
    x_start = as_point(x_start, pieces.dimension)
    max_norm = pieces.max_slope_norm()
    d = x_start - x_star
    dist = math.sqrt(d.dot(d))
    B = max_norm if B is None else B
    R = dist if R is None else R
    check_bounds(max_norm, dist, B, R)
    return ProblemInstance(
        oracle=PiecewiseOracle(pieces),
        projection=projection if projection is not None else project_all,
        f_star=float(f_star),
        B=float(B),
        R=float(R),
        dimension=pieces.dimension,
        x_star=x_star,
        x_start=x_start,
        name=name,
    )


# --- projections ------------------------------------------------------------


def project_all(y: np.ndarray) -> np.ndarray:
    """Projection onto the whole space: the identity.

    Returns its argument itself, not a copy; callers must not mutate the
    result.  ``solver.run`` passes the trace's next row, which then needs no
    copy, also on scaled whole-space instances, which ``scale_instance``
    leaves with ``project_all`` itself.
    """
    return y


def project_box(lo, hi) -> Projection:
    """Projection onto the box {x : lo <= x <= hi} (componentwise)."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if not (lo <= hi).all():
        raise ValueError("box is empty or has a NaN bound: lo <= hi fails somewhere")

    def proj(y: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(y, dtype=np.float64), lo, hi)

    return proj


def project_ball(center, radius: float) -> Projection:
    """Projection onto the Euclidean ball of given center and radius."""
    center = np.asarray(center, dtype=np.float64)
    if center.ndim != 1:
        raise ValueError(f"ball center must be a 1-D point, got shape {center.shape}")
    if not np.isfinite(center).all():
        raise ValueError("ball center has non-finite entries")
    radius = float(radius)
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")

    def proj(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        d = y - center
        norm = float(np.linalg.norm(d))
        if norm <= radius:
            return y.copy()
        return center + d * (radius / norm)

    return proj


# --- rescaling ---------------------------------------------------------------


def scale_instance(p: ProblemInstance, B: float, R: float) -> ProblemInstance:
    """Rescale a normalized piecewise-linear instance (B = R = 1).

    This is the one place where (B, R) enters an instance; B = R = 1
    returns ``p`` itself.  The new objective is f'(x) = B * R * f(x / R)
    over the dilated feasible set R * X, which maps minimizers to R * x_star
    and keeps every rate in the package exact after multiplying by B * R.
    The oracle stays a :class:`PiecewiseOracle` on the same pieces, with
    each scale multiplied by the new one.  Whole-space instances keep
    ``project_all``, since R * R^d = R^d; any other projection P becomes
    ``R * P(y / R)``.  Other oracles raise ``ValueError``.
    """
    if abs(p.B - 1.0) > 1e-12 or abs(p.R - 1.0) > 1e-12:
        raise ValueError("scale_instance expects a normalized instance with B = R = 1")
    B, R = _validate_scale(B, R)
    if B == R == 1.0:
        return p
    if not isinstance(p.oracle, PiecewiseOracle):
        raise ValueError(f"scale_instance needs a piecewise-linear oracle, {p.name} has another")
    inner = p.projection
    return ProblemInstance(
        oracle=PiecewiseOracle(p.oracle.pieces, B * p.oracle.B, R * p.oracle.R),
        projection=inner if inner is project_all else lambda y: R * inner(y / R),
        f_star=B * R * p.f_star,
        B=B,
        R=R,
        dimension=p.dimension,
        x_star=None if p.x_star is None else R * p.x_star,
        x_start=None if p.x_start is None else R * p.x_start,
        name=f"{p.name}*scaled(B={B},R={R})",
    )


# --- sanity harness ----------------------------------------------------------


def check_instance(p: ProblemInstance, pairs: int = 1000, seed: int = 0) -> None:
    """Stress the oracle contract on random feasible point pairs.

    Checks, for each pair (x, y) obtained by projecting random samples:

      * the subgradient inequality f(y) >= f(x) + <g(x), y - x> up to
        1e-9 * B * R,
      * values never drop below f_star - 1e-12 * B * R,
      * subgradient norms stay within B (enforced by ``evaluate``),
      * repeated queries at the same point return identical samples.

    Raises ``ValueError`` on the first violation.
    """
    rng = np.random.default_rng(seed)
    scale = p.B * p.R
    center = p.x_star if p.x_star is not None else np.zeros(p.dimension)
    floor = p.f_star - 1e-12 * scale
    for i in range(pairs):
        x = p.projection(center + 2.0 * p.R * rng.standard_normal(p.dimension))
        y = p.projection(center + 2.0 * p.R * rng.standard_normal(p.dimension))
        sx = p.evaluate(x)
        sy = p.evaluate(y)
        if sx.value < floor or sy.value < floor:
            raise ValueError(
                f"oracle value below f_star = {p.f_star} at pair {i} of {p.name}"
            )
        lower = sx.value + float(np.dot(sx.subgradient, y - x))
        if sy.value < lower - 1e-9 * scale:
            raise ValueError(
                f"subgradient inequality violated by {lower - sy.value:.3e} "
                f"at pair {i} of {p.name}"
            )
        again = p.evaluate(x)
        if again.value != sx.value or not np.array_equal(again.subgradient, sx.subgradient):
            raise ValueError(f"oracle is not deterministic at pair {i} of {p.name}")
