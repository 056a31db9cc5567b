"""The recursively defined step-size sequence s and its growth estimates.

For a seed value alpha >= 1 the sequence is

    s_{alpha,1} = alpha,      s_{alpha,k+1} = s_{alpha,k} + 1 / s_{alpha,k}.

It grows like sqrt(2k) and drives both the optimal constant step size and
the certificate weights used elsewhere in the package.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterator

from .errors import AlphaOutOfRange, InvariantViolation

def _validate_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 1.0:
        raise AlphaOutOfRange(f"seed value must be a finite number >= 1, got {alpha}")
    return alpha


def s(alpha: float, k: int) -> float:
    """Return s_{alpha,k} for integer k >= 1.

    Each call runs k - 1 steps of the recursion; nothing is cached.
    """
    # ``iter_s`` validates only on its first ``next``, so a bad seed is
    # reported here, before a bad index.
    _validate_alpha(alpha)
    if k < 1:
        raise ValueError(f"index must be >= 1, got {k}")
    return next(islice(iter_s(alpha), k - 1, None))


def iter_s(alpha: float) -> Iterator[float]:
    """Yield s_{alpha,1}, s_{alpha,2}, ... lazily.

    Useful for very long scans where storing every term would be wasteful.
    """
    value = _validate_alpha(alpha)
    while True:
        yield value
        value = value + 1.0 / value


def s_identity_check(alpha: float, k: int) -> tuple[float, float]:
    """Residuals of the two telescoping identities satisfied by the sequence.

    Returns ``(res_sum, res_square)`` where

        res_sum    = |s_{alpha,k+1} - (alpha + sum_{i<=k} 1/s_{alpha,i})|
        res_square = |s_{alpha,k+1}^2 - (alpha^2 + 2k + sum_{i<=k} 1/s_{alpha,i}^2)|

    Both are zero in exact arithmetic; in floats they stay tiny (well below
    1e-9 * k for double precision).
    """
    alpha = _validate_alpha(alpha)
    if k < 1:
        raise ValueError(f"index must be >= 1, got {k}")
    values = list(islice(iter_s(alpha), k + 1))
    sum_inv = math.fsum(1.0 / values[i] for i in range(k))
    sum_inv_sq = math.fsum(1.0 / values[i] ** 2 for i in range(k))
    res_sum = abs(values[k] - (alpha + sum_inv))
    res_square = abs(values[k] ** 2 - (alpha * alpha + 2.0 * k + sum_inv_sq))
    return res_sum, res_square


def s_bounds(k: int) -> tuple[float, float]:
    """Two-sided bracket for the seed-1 sequence: for k >= 2,

        sqrt(2k) <= s_{1,k} <= sqrt(2k + 0.5 * log(k - 1))

    with the natural logarithm.  The bracket is checked against the actual
    recursion before being returned.
    """
    if k < 2:
        raise ValueError(f"the bracket holds for k >= 2, got {k}")
    lower = math.sqrt(2.0 * k)
    upper = math.sqrt(2.0 * k + 0.5 * math.log(k - 1))
    value = s(1.0, k)
    if not lower <= value <= upper:
        raise InvariantViolation(f"s_{k} = {value} is outside [{lower}, {upper}]")
    return lower, upper
