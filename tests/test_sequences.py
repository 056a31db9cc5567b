import math
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgradlab import (
    AlphaOutOfRange,
    iter_s,
    s,
    s_bounds,
    s_identity_check,
)

# First few terms of the unit-seed recursion, frozen by hand:
# 1, 2, 2.5, 2.9, 2.9 + 1/2.9, ...
KNOWN_UNIT = {
    1: 1.0,
    2: 2.0,
    3: 2.5,
    4: 2.9,
    5: 3.2448275862068963,
    6: 3.5530103704789475,
}


def test_known_unit_values():
    for k, expected in KNOWN_UNIT.items():
        assert s(1.0, k) == pytest.approx(expected, abs=1e-15)


def test_seed_is_first_term():
    assert s(1.0, 1) == 1.0
    assert s(2.5, 1) == 2.5


def test_iter_s_matches_memoized():
    gen = iter_s(1.0)
    for k in range(1, 50):
        assert next(gen) == s(1.0, k)


def test_iter_s_other_seed():
    gen = iter_s(1.7)
    first = next(gen)
    second = next(gen)
    assert first == 1.7
    assert second == pytest.approx(1.7 + 1.0 / 1.7, abs=1e-15)


def test_alpha_below_one_rejected():
    with pytest.raises(AlphaOutOfRange):
        s(0.99, 3)
    with pytest.raises(AlphaOutOfRange):
        list(iter_s(0.0))
    with pytest.raises(AlphaOutOfRange):  # the seed is checked before the index
        s(0.99, 0)


def test_identities_small_residuals():
    for alpha in (1.0, 1.5, 3.0):
        for k in (1, 2, 5, 37, 200):
            res_sum, res_square = s_identity_check(alpha, k)
            assert abs(res_sum) < 1e-12
            assert abs(res_square) < 1e-12


def test_bounds_bracket_unit_sequence():
    for k in (2, 3, 10, 1000, 12345):
        lo, hi = s_bounds(k)
        assert lo <= s(1.0, k) <= hi
        assert lo == pytest.approx(math.sqrt(2 * k), abs=1e-15)


def test_bounds_need_k_at_least_two():
    with pytest.raises(ValueError):
        s_bounds(1)


def test_memoization_returns_identical_floats():
    a = s(1.25, 40)
    b = s(1.25, 40)
    assert a == b
    # a fresh generator walks the same path
    gen = iter_s(1.25)
    for _ in range(39):
        next(gen)
    assert next(gen) == a


@given(
    alpha=st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
    k=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=150, deadline=None)
def test_strictly_increasing_in_k(alpha, k):
    assert s(alpha, k + 1) > s(alpha, k)


@given(
    alpha_lo=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
    bump=st.floats(min_value=1e-6, max_value=2.0, allow_nan=False),
    k=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=150, deadline=None)
def test_monotone_in_seed(alpha_lo, bump, k):
    # x -> x + 1/x is non-decreasing on [1, inf), so ordering of seeds
    # propagates down the whole sequence.
    assert s(alpha_lo + bump, k) >= s(alpha_lo, k)


@given(k=st.integers(min_value=2, max_value=5000))
@settings(max_examples=80, deadline=None)
def test_square_grows_like_2k(k):
    val = s(1.0, k)
    assert val * val >= 2.0 * k - 1e-9
    assert val * val <= 2.0 * k + 0.5 * math.log(max(k - 1, 1)) + 1.0


def test_s_is_the_kth_term_of_iter_s_for_every_seed():
    for alpha in (1.0, 1.25, 1.7, 3.0):
        fresh = list(islice(iter_s(alpha), 120))
        assert [s(alpha, k) for k in range(1, 121)] == fresh
