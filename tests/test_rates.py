import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgradlab import (
    PiecewiseLinearMax,
    StepOutOfRange,
    StepSchedule,
    WeightSequence,
    alpha_family_bound,
    avg_gap,
    best_iterate_bound,
    classical_lower_bound,
    constant_step_weights,
    constant_length_rate,
    constant_step_rate,
    instance_from_pieces,
    lower_bound,
    matching_alpha,
    no_universal_step_certificate,
    optimal_constant_step,
    optimal_method_rate,
    optimal_step_weights,
    project_ball,
    project_box,
    random_instance,
    recursive_weights,
    run,
    s_identity_check,
    scale_instance,
    two_step_worst_gap,
    weakened_rate_bounds,
)
from subgradlab.rates import TWO_STEP_FIRST, TWO_STEP_KNEE, RateReport, knee
from subgradlab.sequences import s
from subgradlab.worstcase import abs_instance

UNIT_PIECES = PiecewiseLinearMax(slopes=[[1.0, 0.0], [-1.0, 0.0]], intercepts=[0.0, 0.0])

# Frozen by independent hand computation (see the short-step branch 1 - N*h
# and the long-step branch (s^2/2 - N)*h + 1/(2*s^2*h) with s = s(1, N+1)).
FROZEN = [
    (2, 0.16, 0.68),
    (1, 1.0 / (2.0 * math.sqrt(2.0)), 1.0 / math.sqrt(2.0)),
    (2, 0.3, 0.6041666666666666),
    (5, 0.3, 0.525607289377436),
]


def test_frozen_constant_step_values():
    for N, h, expected in FROZEN:
        assert constant_step_rate(N, h) == pytest.approx(expected, abs=1e-12)


def test_branches_agree_at_knee():
    for N in (1, 2, 3, 9):
        knee = 1.0 / s(1.0, N + 1) ** 2
        below = constant_step_rate(N, knee * (1 - 1e-12))
        above = constant_step_rate(N, knee * (1 + 1e-12))
        assert below == pytest.approx(above, abs=1e-9)
        assert constant_step_rate(N, knee) == pytest.approx(1 - N * knee, abs=1e-15)


def test_optimal_constant_step_frozen():
    opt1 = optimal_constant_step(1)
    assert opt1.h_star == pytest.approx(0.35355339059327373, abs=1e-15)
    assert opt1.rate == pytest.approx(0.7071067811865476, abs=1e-15)
    opt2 = optimal_constant_step(2)
    assert opt2.h_star == pytest.approx(1.0 / 3.75, abs=1e-15)
    assert opt2.rate == pytest.approx(0.6, abs=1e-15)


def test_optimal_step_beats_neighbors():
    for N in (1, 2, 7, 30):
        opt = optimal_constant_step(N)
        assert constant_step_rate(N, opt.h_star) == pytest.approx(opt.rate, abs=1e-12)
        for factor in (0.9, 0.99, 1.01, 1.1):
            assert constant_step_rate(N, opt.h_star * factor) >= opt.rate - 1e-12


def test_weakened_bounds_dominate():
    for N in (2, 5, 100):
        opt = optimal_constant_step(N)
        w = weakened_rate_bounds(N, opt.h_star)
        assert w.log_form >= constant_step_rate(N, opt.h_star) - 1e-12
        assert w.optimal_log_form >= opt.rate - 1e-12
        assert w.optimal_log_form == pytest.approx(
            math.sqrt(1 + 0.25 * math.log(N)) / math.sqrt(N + 1), abs=1e-15
        )


def test_weakened_needs_horizon_two():
    with pytest.raises(ValueError):
        weakened_rate_bounds(1, 0.2)


def _rates_by_formula(N, h):
    """knee, the rate at h, the optimal step and its rate, and the weakened
    forms, written out from s_{N+1} as the docstrings state them."""
    sN1 = s(1.0, N + 1)
    s2 = sN1**2
    rate = 1.0 - N * h if h <= 1.0 / s2 else (0.5 * s2 - N) * h + 1.0 / (2.0 * s2 * h)
    h_star = 1.0 / (sN1 * math.sqrt(sN1 * sN1 - 2.0 * N))
    quarter_log = 0.25 * math.log(N)
    return (
        1.0 / s2, rate, h_star, math.sqrt(1.0 - 2.0 * N / (sN1 * sN1)),
        (1.0 + quarter_log) * h + 1.0 / (4.0 * (N + 1) * h),
        math.sqrt(1.0 + quarter_log) / math.sqrt(N + 1),
    )


def test_each_rate_call_walks_s_once(monkeypatch):
    """Every rate formula on s_{N+1} takes it from one ``s`` call, and keeps
    the bits of the formula written out, for N = 2..300 at several h."""
    from subgradlab import rates

    walks = []
    monkeypatch.setattr(rates, "s", lambda alpha, k: walks.append(k) or s(alpha, k))

    def once(call, *args):
        walks.clear()
        value = call(*args)
        assert walks == [args[0] + 1], (call.__name__, args)
        return value

    for N in range(2, 301):
        for h in (0.003, 0.05, 0.1, 0.3, 0.6, 1.0):
            opt = once(optimal_constant_step, N)
            got = (
                once(knee, N), once(constant_step_rate, N, h), *opt,
                *once(weakened_rate_bounds, N, h),
            )
            assert got == _rates_by_formula(N, h), (N, h)
            assert once(constant_length_rate, N, h) == got[1]
            assert once(constant_step_rate, N, opt.h_star) == _rates_by_formula(N, opt.h_star)[1]


def test_length_rate_matches_step_rate():
    for N, t, expected in FROZEN:
        assert constant_length_rate(N, t) == pytest.approx(expected, abs=1e-12)


def test_reference_rates():
    assert optimal_method_rate(3) == 0.5
    assert lower_bound(3) == 0.5
    assert optimal_method_rate(8) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert classical_lower_bound(3) == pytest.approx(1.0 / 8.0, abs=1e-15)


def test_two_step_gap_branches():
    # small-step branch is linear in h2
    assert two_step_worst_gap(0.05) == pytest.approx(
        1.0 / math.sqrt(2.0) - 0.05, abs=1e-15
    )
    # branch values agree where they meet
    left = two_step_worst_gap(TWO_STEP_KNEE)
    right = two_step_worst_gap(TWO_STEP_KNEE + 1e-13)
    assert left == pytest.approx(right, abs=1e-9)
    assert left == pytest.approx(7.0 / (8.0 * math.sqrt(2.0)), abs=1e-12)
    # frozen long-branch value
    assert two_step_worst_gap(0.2) == pytest.approx(0.5787219649177293, abs=1e-13)


def test_two_step_gap_rejects_nonpositive():
    with pytest.raises(StepOutOfRange):
        two_step_worst_gap(0.0)
    with pytest.raises(StepOutOfRange):
        two_step_worst_gap(-0.1)


def test_no_universal_step_certificate():
    cert = no_universal_step_certificate()
    assert 0.5775 <= cert.gap_floor <= 0.5795
    assert cert.h2_star == pytest.approx(0.194284, abs=1e-4)
    assert cert.margin > 0
    assert cert.gap_floor > 1.0 / math.sqrt(3.0)
    assert cert.gap_floor == pytest.approx(
        two_step_worst_gap(cert.h2_star), abs=1e-12
    )


def test_first_step_constant():
    assert TWO_STEP_FIRST == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), abs=1e-16)
    assert TWO_STEP_KNEE == pytest.approx(1.0 / (8.0 * math.sqrt(2.0)), abs=1e-16)


def test_validators():
    with pytest.raises(ValueError):
        constant_step_rate(0, 0.1)
    with pytest.raises(StepOutOfRange):
        constant_step_rate(3, 0.0)
    with pytest.raises(ValueError):
        optimal_method_rate(0)


@pytest.mark.parametrize("N", [math.inf, -math.inf, math.nan, np.float64(math.inf)])
@pytest.mark.parametrize(
    "call",
    [lambda N: constant_step_rate(N, 0.1), optimal_step_weights,
     StepSchedule.optimal_last_iterate],
    ids=["constant_step_rate", "optimal_step_weights", "optimal_last_iterate"],
)
def test_a_non_finite_horizon_raises_the_horizon_error(call, N):
    with pytest.raises(ValueError, match=r"^horizon must be an integer >= 1, got -?(inf|nan)$"):
        call(N)


def _abs_avg_gap(weights):
    p = abs_instance()
    return avg_gap(run(p, StepSchedule.constant_normalized(0.1), N=2), p, weights)


@pytest.mark.parametrize(
    "call",
    [
        lambda: alpha_family_bound(3, math.nan, 1.0),
        lambda: matching_alpha(3, 0.0),
        lambda: matching_alpha(5, 0.05, tol=0.0),
        lambda: matching_alpha(5, 0.05, tol=-1.0),
        lambda: matching_alpha(5, 0.05, tol=math.nan),
        lambda: _abs_avg_gap([0.1, 0.1, math.nan]),
        lambda: _abs_avg_gap([0.1, math.inf, 0.1]),
        lambda: optimal_step_weights(3, B=-1.0),
        lambda: optimal_step_weights(3, B=0.0),
        lambda: scale_instance(abs_instance(), math.nan, 1.0),
        lambda: abs_instance(1.0, math.inf),
        lambda: best_iterate_bound([0.1], math.nan, 1.0),
        lambda: best_iterate_bound([0.1, math.inf], 1.0, 1.0),
        lambda: StepSchedule.custom([0.1, math.nan]),
        lambda: WeightSequence([1.0, 2.0], h_last=math.inf),
        lambda: recursive_weights([0.1, 0.1], 0.1, math.nan),
        lambda: recursive_weights([0.1, 0.1], 0.0, 1.0),
        lambda: project_ball([0.0], math.nan),
        lambda: run(abs_instance(), StepSchedule.constant_normalized(0.1), N=2,
                    x1=[[1.0]]),
        lambda: run(abs_instance(), StepSchedule.constant_normalized(0.1), N=2,
                    x1=[math.inf]),
        lambda: run(abs_instance(), StepSchedule.constant_normalized(0.1), N=2,
                    x1=[1.0, 0.0]),
        lambda: PiecewiseLinearMax(slopes=[[math.nan]], intercepts=[0.0]),
        lambda: instance_from_pieces(UNIT_PIECES, f_star=0.0, x_star=[0.0, 0.0],
                                     x_start=[1.0, 0.0], B=0.5),
        lambda: instance_from_pieces(UNIT_PIECES, f_star=0.0, x_star=[0.0, 0.0],
                                     x_start=[1.0, 0.0], R=0.5),
        lambda: random_instance(0, 3),
        lambda: random_instance(3, 0),
        lambda: s(1.0, 0),
        lambda: s_identity_check(1.0, 0),
        lambda: optimal_step_weights(1.5),
        lambda: optimal_step_weights(-3),
        lambda: optimal_step_weights(0),
        lambda: constant_step_weights(1.5, 1.0, 0.1),
        lambda: constant_step_weights(0, 1.0, 0.1),
        lambda: alpha_family_bound(0, 0.1, 1.0),
        lambda: matching_alpha(0, 0.1),
        lambda: StepSchedule.custom([[0.1, 0.2]]),
        lambda: StepSchedule.custom(0.1),
        lambda: WeightSequence(np.ones((2, 2)), h_last=0.1),
        lambda: PiecewiseLinearMax(slopes=[[1.0], [-1.0]], intercepts=[0.0, 0.0],
                                   scripted_choices={1: 1.0}),
        lambda: project_box([math.nan], [1.0]),
        lambda: project_box([2.0], [1.0]),
        lambda: project_ball([math.nan], 1.0),
        lambda: project_ball([[0.0]], 1.0),
        lambda: recursive_weights([], 0.1, 1.0),
        lambda: recursive_weights([[0.1, 0.2]], 0.1, 1.0),
    ],
    ids=[
        "alpha_family_bound-nan-h", "matching_alpha-zero-h", "matching_alpha-zero-tol",
        "matching_alpha-negative-tol", "matching_alpha-nan-tol", "avg_gap-nan-weight",
        "avg_gap-inf-weight", "optimal_step_weights-negative-B",
        "optimal_step_weights-zero-B", "scale_instance-nan-B", "abs_instance-inf-R",
        "best_iterate_bound-nan-B", "best_iterate_bound-inf-step",
        "custom-nan-step", "weights-inf-h_last", "recursive_weights-nan-alpha",
        "recursive_weights-zero-h_last", "project_ball-nan-radius",
        "run-2d-x1", "run-inf-x1", "run-wrong-dimension-x1", "pieces-nan-slope",
        "instance_from_pieces-low-B", "instance_from_pieces-low-R",
        "random_instance-zero-dimension", "random_instance-zero-directions",
        "s-zero-index", "s_identity_check-zero-index",
        "optimal_step_weights-fractional-N", "optimal_step_weights-negative-N",
        "optimal_step_weights-zero-N", "constant_step_weights-fractional-N",
        "constant_step_weights-zero-N", "alpha_family_bound-zero-N", "matching_alpha-zero-N",
        "custom-2d-steps", "custom-0d-steps", "weights-2d", "pieces-float-scripted-piece",
        "project_box-nan-bound", "project_box-empty", "project_ball-nan-center",
        "project_ball-2d-center", "recursive_weights-no-steps", "recursive_weights-2d-steps",
    ],
)
def test_non_finite_or_nonpositive_parameters_raise_value_errors(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("N", [1, 2, 7, 50])
def test_knee_joins_the_two_branches(N):
    h = knee(N)
    assert h == 1.0 / s(1.0, N + 1) ** 2
    assert constant_step_rate(N, h) == 1.0 - N * h
    assert constant_step_rate(N, h * (1 + 1e-9)) == pytest.approx(1.0 - N * h, abs=1e-8)


def test_rate_report_slack():
    r = RateReport(N=4, regime="short_step", predicted_bound=0.5, observed_gap=0.4)
    assert r.slack == pytest.approx(0.1)
    assert RateReport(N=4, regime="short_step", predicted_bound=0.5).slack is None


@given(
    N=st.integers(min_value=1, max_value=200),
    h=st.floats(min_value=1e-4, max_value=5.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_rate_never_beats_lower_bound(N, h):
    assert constant_step_rate(N, h) >= lower_bound(N) - 1e-12


@given(h2=st.floats(min_value=1e-6, max_value=10.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_two_step_gap_respects_floor(h2):
    cert = no_universal_step_certificate()
    assert two_step_worst_gap(h2) >= cert.gap_floor - 1e-10


@given(N=st.integers(min_value=1, max_value=500))
@settings(max_examples=100, deadline=None)
def test_rate_ordering_across_regimes(N):
    opt = optimal_constant_step(N)
    assert lower_bound(N) <= opt.rate + 1e-12
    assert classical_lower_bound(N) <= lower_bound(N)
