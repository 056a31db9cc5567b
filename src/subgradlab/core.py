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

from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .errors import IncompatibleLength, ScriptedPieceInactive
from .rates import _validate_scale

# Subgradients with norm at or below this are treated as exact zeros
# (the method has hit a minimizer and stops moving).
ZERO_TOL = 1e-14

# Relative tolerance deciding which affine pieces count as active.
ACTIVE_TOL = 1e-9

# Points must satisfy ||projection(x) - x|| at or below this (scaled by the
# point's magnitude) to count as feasible.
FEASIBLE_TOL = 1e-12

Point = np.ndarray
Oracle = Callable[[np.ndarray, "int | None"], "SubgradientSample"]
Projection = Callable[[np.ndarray], np.ndarray]


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array, copying the input."""
    arr = np.array(x, dtype=np.float64, copy=True)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D point, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point has non-finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise IncompatibleLength(f"expected dimension {dim}, got {arr.shape[0]}")
    return arr


@dataclass(frozen=True)
class SubgradientSample:
    """One oracle answer: the function value, a single subgradient and its
    Euclidean ``norm``, computed once by :meth:`of` and read by both the B
    check in ``ProblemInstance.evaluate`` and the step rule in ``solver.run``."""

    value: float
    subgradient: np.ndarray
    norm: float

    @property
    def is_zero(self) -> bool:
        return self.norm <= ZERO_TOL

    @classmethod
    def of(cls, value: float, subgradient: np.ndarray) -> "SubgradientSample":
        g = np.asarray(subgradient, dtype=np.float64)
        return cls(float(value), g, float(np.linalg.norm(g)))


@dataclass(frozen=True)
class PiecewiseLinearMax:
    """f(x) = max_i (<slopes[i], x> + intercepts[i]).

    ``scripted_choices`` maps a 1-based iteration index to the piece index
    (0-based row of ``slopes``) whose slope the oracle must return at that
    iteration.  Unscripted queries return the highest-index active piece,
    which makes tie-breaking deterministic.
    """

    slopes: np.ndarray
    intercepts: np.ndarray
    scripted_choices: Mapping[int, int] | None = None

    def __post_init__(self):
        slopes = np.atleast_2d(np.asarray(self.slopes, dtype=np.float64))
        intercepts = np.asarray(self.intercepts, dtype=np.float64).reshape(-1)
        if slopes.shape[0] == 0:
            raise ValueError("need at least one piece")
        if slopes.shape[0] != intercepts.shape[0]:
            raise IncompatibleLength(
                f"{slopes.shape[0]} slopes vs {intercepts.shape[0]} intercepts"
            )
        if not (np.all(np.isfinite(slopes)) and np.all(np.isfinite(intercepts))):
            raise ValueError("pieces have non-finite entries")
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "intercepts", intercepts)
        if self.scripted_choices is not None:
            m = slopes.shape[0]
            for it, piece in self.scripted_choices.items():
                if not 0 <= piece < m:
                    raise ValueError(f"scripted piece {piece} for iteration {it} out of range")

    @property
    def dimension(self) -> int:
        return self.slopes.shape[1]

    def max_slope_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.slopes, axis=1)))


def eval_plmax(
    f: PiecewiseLinearMax, x: np.ndarray, k: int | None = None, *, B: float = 1.0, R: float = 1.0
) -> SubgradientSample:
    """Evaluate B * R * f(x / R), the piecewise-linear max dilated by (B, R).

    The returned value is the true maximum.  The subgradient is B times the
    slope of the scripted piece for iteration ``k`` when a script entry
    exists, and of the highest-index active piece otherwise.  A piece counts
    as active when its value at x / R is within ``ACTIVE_TOL * (1 + |max|)``
    of the maximum there, so the choice does not depend on (B, R).  With the
    default B = R = 1 every scaling operation is exact.
    """
    vals = f.slopes @ (np.asarray(x, dtype=np.float64) / R) + f.intercepts
    fmax = float(np.max(vals))
    threshold = fmax - ACTIVE_TOL * (1.0 + abs(fmax))
    if f.scripted_choices is not None and k is not None and k in f.scripted_choices:
        piece = f.scripted_choices[k]
        if vals[piece] < threshold:
            raise ScriptedPieceInactive(
                f"iteration {k} is scripted to piece {piece}, but that piece is "
                f"{fmax - vals[piece]:.3e} below the maximum at the queried point"
            )
    else:
        piece = int(np.nonzero(vals >= threshold)[0][-1])
    return SubgradientSample.of(B * R * fmax, B * f.slopes[piece])


@dataclass(frozen=True)
class ProblemInstance:
    """A convex problem presented to the solver as a black box.

    The solver reads only ``oracle``, ``projection``, ``B``, ``R`` and
    ``dimension``; the reference fields ``f_star``/``x_star`` exist purely so
    that gaps and certificates can be measured after the fact.  ``x_start``
    is the canonical initial iterate for instances that come with one (the
    worst-case constructions do).
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
            raise ValueError(
                f"oracle returned a subgradient of norm {sample.norm}, exceeding B={self.B}"
            )
        return sample

    def is_feasible(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=np.float64)
        gap = float(np.linalg.norm(self.projection(x) - x))
        return gap <= FEASIBLE_TOL * max(1.0, float(np.linalg.norm(x)))


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
    if B is None:
        B = max_norm
    elif max_norm > B * (1.0 + 1e-12):
        raise ValueError(f"slope norm {max_norm} exceeds declared B={B}")
    dist = float(np.linalg.norm(x_start - x_star))
    if R is None:
        R = dist
    elif dist > R * (1.0 + 1e-12):
        raise ValueError(f"||x_start - x_star|| = {dist} exceeds declared R={R}")
    return ProblemInstance(
        oracle=partial(eval_plmax, pieces),
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
    """Projection onto the whole space: the identity."""
    return np.array(y, dtype=np.float64, copy=True)


def project_box(lo, hi) -> Projection:
    """Projection onto the box {x : lo <= x <= hi} (componentwise)."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if np.any(lo > hi):
        raise ValueError("box is empty: lo > hi somewhere")

    def proj(y: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(y, dtype=np.float64), lo, hi)

    return proj


def project_ball(center, radius: float) -> Projection:
    """Projection onto the Euclidean ball of given center and radius."""
    center = np.asarray(center, dtype=np.float64)
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

    The new objective is f'(x) = B * R * f(x / R) over the dilated feasible
    set R * X, which maps minimizers to R * x_star and keeps every rate in
    the package exact after multiplying by B * R.  The oracle stays
    ``eval_plmax`` on the same pieces, with (B, R) bound next to them, so a
    scaled run answers through the same path as an unscaled one.  Instances
    with any other oracle raise ``ValueError``.
    """
    if abs(p.B - 1.0) > 1e-12 or abs(p.R - 1.0) > 1e-12:
        raise ValueError("scale_instance expects a normalized instance with B = R = 1")
    B, R = _validate_scale(B, R)
    oracle = p.oracle
    if not (isinstance(oracle, partial) and oracle.func is eval_plmax):
        raise ValueError(f"scale_instance needs a piecewise-linear oracle, {p.name} has another")
    inner_projection = p.projection

    def projection(y: np.ndarray) -> np.ndarray:
        return R * inner_projection(np.asarray(y, dtype=np.float64) / R)

    return ProblemInstance(
        oracle=partial(
            oracle, B=B * oracle.keywords.get("B", 1.0), R=R * oracle.keywords.get("R", 1.0)
        ),
        projection=projection,
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

    Checks, for each pair (x, y) obtained by projecting random draws:

      * the subgradient inequality f(y) >= f(x) + <g(x), y - x> up to
        1e-9 * max(1, B * R),
      * values never drop below f_star - 1e-12 * max(1, B * R),
      * subgradient norms stay within B (enforced by ``evaluate``),
      * repeated queries at the same point return identical samples.

    Raises ``ValueError`` on the first violation.
    """
    rng = np.random.default_rng(seed)
    scale = max(1.0, p.B * p.R)
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
