import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgradlab import (
    IncompatibleLength,
    MonotonicityViolation,
    StepOutOfRange,
    StepSchedule,
    WeightSequence,
    alpha_family_bound,
    coefficients,
    constant_step_rate,
    constant_step_weights,
    matching_alpha,
    optimal_step_weights,
    recursive_weights,
    run,
    verify_lemma,
)
from subgradlab.sequences import s
from subgradlab.worstcase import abs_instance, random_instance


def test_weight_validation():
    with pytest.raises(MonotonicityViolation):
        WeightSequence(np.array([1.0, 0.5, 2.0]), h_last=0.1)
    with pytest.raises(StepOutOfRange):
        WeightSequence(np.array([1.0, 2.0]), h_last=0.0)
    with pytest.raises(ValueError):
        WeightSequence(np.array([1.0]), h_last=0.1)
    with pytest.raises(ValueError):
        WeightSequence(np.array([-1.0, 2.0]), h_last=0.1)


def test_coefficient_telescoping_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        v = np.sort(rng.uniform(0.1, 3.0, n + 2))
        h_last = float(rng.uniform(0.1, 1.0))
        steps = rng.uniform(0.05, 1.0, n)
        w = WeightSequence(v, h_last=h_last)
        c = coefficients(w, steps)
        h_all = np.append(steps, h_last)
        total = math.fsum(c)
        expected = v[0] * math.fsum(h_all * v[1:])
        assert total == pytest.approx(expected, rel=1e-12)


def test_constant_step_weights_zero_interior():
    for N, h in ((3, 0.1), (6, 0.05), (10, 0.02)):
        w = constant_step_weights(N, alpha=1.0, h_last=h)
        c = coefficients(w, np.full(N, h))
        assert np.all(np.abs(c[:-1]) < 1e-12)
        assert c[-1] == pytest.approx(h, abs=1e-12)
        # the weights are reciprocals of the recursion read backwards
        assert w.v[1] == pytest.approx(1.0 / s(1.0, N), abs=1e-15)
        assert w.v[-1] == pytest.approx(1.0, abs=1e-15)


def test_optimal_step_weights_unit_final_coefficient():
    for N in (1, 2, 5, 20):
        w = optimal_step_weights(N)
        steps = np.array(
            [(N + 1 - k) / (N + 1) ** 1.5 for k in range(1, N + 1)]
        )
        c = coefficients(w, steps)
        assert np.all(np.abs(c[:-1]) < 1e-10)
        assert c[-1] == pytest.approx(1.0, abs=1e-10)


def test_recursive_weights_monotone_and_zeroing():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        h_last = 0.05
        steps = rng.uniform(h_last, 0.6, n)
        w = recursive_weights(steps, h_last=h_last, alpha=1.0)
        c = coefficients(w, steps)
        assert np.all(np.abs(c[:-1]) < 1e-10)
        assert np.all(np.diff(w.v) >= -1e-15)


def test_lemma_on_abs_trace():
    p = abs_instance()
    N, h = 4, 0.12
    trace = run(p, StepSchedule.constant_normalized(h), N=N)
    w = constant_step_weights(N, alpha=1.0, h_last=h)
    check = verify_lemma(trace, p, w, np.zeros(1))
    assert check.slack >= -1e-12
    assert check.lhs <= check.rhs


def test_lemma_makes_one_oracle_call():
    p = random_instance(4, 6, seed=2)
    N = 6
    trace = run(p, StepSchedule.optimal_last_iterate(N))
    seen = []
    orig = p.oracle

    def spy(x, k=None):
        seen.append(k)
        return orig(x, k)

    object.__setattr__(p, "oracle", spy)
    verify_lemma(trace, p, optimal_step_weights(N), p.x_star)
    assert seen == [None]


def test_lemma_needs_matching_horizon():
    p = abs_instance()
    trace = run(p, StepSchedule.constant_normalized(0.1), N=3)
    w = constant_step_weights(5, alpha=1.0, h_last=0.1)
    with pytest.raises(IncompatibleLength):
        verify_lemma(trace, p, w, np.zeros(1))


def test_lemma_requires_feasible_reference():
    pieces_p = abs_instance()
    from subgradlab import InfeasibleReference, instance_from_pieces, project_ball
    from subgradlab.core import PiecewiseLinearMax

    ball = instance_from_pieces(
        PiecewiseLinearMax(slopes=np.array([[1.0], [-1.0]]), intercepts=np.zeros(2)),
        f_star=0.0,
        x_star=np.zeros(1),
        x_start=np.array([1.0]),
        projection=project_ball(np.zeros(1), 1.0),
        B=1.0,
        R=1.0,
        name="ball-abs",
    )
    trace = run(ball, StepSchedule.constant_normalized(0.1), N=2)
    w = constant_step_weights(2, alpha=1.0, h_last=0.1)
    with pytest.raises(InfeasibleReference):
        verify_lemma(trace, ball, w, np.array([5.0]))
    del pieces_p


def test_alpha_family_bound_recovers_short_step_rate():
    for N, h in ((2, 0.1), (5, 0.04), (12, 0.01)):
        alpha = matching_alpha(N, h)
        z = s(alpha, N + 1) * math.sqrt(h)
        assert z == pytest.approx(1.0, abs=1e-10)
        assert alpha_family_bound(N, h, alpha) == pytest.approx(
            constant_step_rate(N, h), abs=1e-10
        )


def test_alpha_family_bound_dominates_unit_seed():
    # any alpha gives a valid bound; the matched one is the smallest
    for N, h in ((3, 0.08), (6, 0.03)):
        matched = alpha_family_bound(N, h, matching_alpha(N, h))
        for alpha in (1.0, 1.3, 2.0, 4.0):
            assert alpha_family_bound(N, h, alpha) >= matched - 1e-12


def test_matching_alpha_rejects_long_steps():
    knee = 1.0 / s(1.0, 4) ** 2
    with pytest.raises(StepOutOfRange):
        matching_alpha(3, knee * 1.01)
    # at the knee itself the unit seed matches exactly
    assert matching_alpha(3, knee) == pytest.approx(1.0, abs=1e-9)


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    n=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=100, deadline=None)
def test_identity_holds_for_random_weights(seed, n):
    rng = np.random.default_rng(seed)
    v = np.sort(rng.uniform(0.05, 2.0, n + 2))
    steps = rng.uniform(0.05, 1.0, n)
    h_last = float(rng.uniform(0.05, 1.0))
    w = WeightSequence(v, h_last=h_last)
    c = coefficients(w, steps)
    h_all = np.append(steps, h_last)
    assert math.fsum(c) == pytest.approx(
        v[0] * math.fsum(h_all * v[1:]), rel=1e-10
    )


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    N=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_lemma_slack_nonnegative_on_random_problems(seed, N):
    rng = np.random.default_rng(seed)
    p = random_instance(3, 5, seed=rng)
    h = float(rng.uniform(0.05, 1.0))
    trace = run(p, StepSchedule.constant_normalized(h), N=N)
    v = np.sort(rng.uniform(0.05, 2.0, N + 2))
    w = WeightSequence(v, h_last=float(rng.uniform(0.05, 1.0)))
    x_hat = p.x_star if seed % 2 == 0 else rng.standard_normal(3)
    check = verify_lemma(trace, p, w, x_hat)
    assert check.slack >= -1e-9
