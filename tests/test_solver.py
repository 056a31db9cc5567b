import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgradlab import (
    EmptySchedule,
    IncompatibleLength,
    InfeasibleReference,
    PiecewiseLinearMax,
    ScheduleExhausted,
    ScriptedPieceInactive,
    StepOutOfRange,
    StepSchedule,
    avg_gap,
    best_gap,
    best_iterate_bound,
    instance_from_pieces,
    last_gap,
    project_ball,
    run,
    scale_instance,
)
from subgradlab.worstcase import abs_instance, long_step_instance, random_instance


def test_constant_schedule_on_abs():
    p = abs_instance()
    trace = run(p, StepSchedule.constant_normalized(0.16), N=2)
    assert np.allclose(trace.values, [1.0, 0.84, 0.68])
    assert np.allclose(trace.steps, [0.16, 0.16])
    assert last_gap(trace, p) == pytest.approx(0.68, abs=1e-15)
    assert best_gap(trace, p) == pytest.approx(0.68, abs=1e-15)


def test_constant_schedule_scales_with_geometry():
    p = abs_instance(B=2.0, R=3.0)
    trace = run(p, StepSchedule.constant_normalized(0.1), N=1)
    # raw step is h*R/B = 0.15, slope 2, so x goes 3 -> 2.7 and f = 5.4
    assert trace.steps[0] == pytest.approx(0.15, abs=1e-15)
    assert last_gap(trace, p) == pytest.approx(5.4, abs=1e-12)


def test_length_schedule_normalizes_subgradient():
    p = abs_instance(B=2.0, R=1.0)
    trace = run(p, StepSchedule.constant_length(0.25), N=2)
    # each move has euclidean length t*R = 0.25 regardless of slope 2
    assert np.allclose(np.abs(np.diff([1.0, 0.75, 0.5])), 0.25)
    assert np.allclose(trace.values, [2.0, 1.5, 1.0])


def test_optimal_schedule_steps():
    p = abs_instance()
    trace = run(p, StepSchedule.optimal_last_iterate(3))
    assert np.allclose(trace.steps, [3.0 / 8.0, 2.0 / 8.0, 1.0 / 8.0])
    assert last_gap(trace, p) == pytest.approx(0.25, abs=1e-15)


def test_optimal_length_matches_optimal_on_unit_slope():
    p = abs_instance()
    a = run(p, StepSchedule.optimal_last_iterate(4))
    b = run(p, StepSchedule.optimal_length(4))
    assert np.allclose(a.values, b.values)


def test_overshoot_bounces():
    p = abs_instance()
    trace = run(p, StepSchedule.constant_normalized(1.5), N=1)
    assert np.allclose(trace.values, [1.0, 0.5])
    assert best_gap(trace, p) == pytest.approx(0.5)
    # the averaged point (1 - 0.5)/2 = 0.25 beats both iterates here
    assert avg_gap(trace, p, [1.5, 1.5]) == pytest.approx(0.25)


def test_custom_schedule_and_exhaustion():
    p = abs_instance()
    sched = StepSchedule.custom([0.2, 0.1])
    trace = run(p, sched, N=2)
    assert np.allclose(trace.values, [1.0, 0.8, 0.7])
    with pytest.raises(ScheduleExhausted):
        run(p, sched, N=3)


def test_optimal_schedule_horizon_mismatch():
    p = abs_instance()
    with pytest.raises(IncompatibleLength):
        run(p, StepSchedule.optimal_last_iterate(3), N=2)


def test_run_needs_some_horizon():
    p = abs_instance()
    with pytest.raises(ValueError):
        run(p, StepSchedule.constant_normalized(0.1))


def test_early_stop_replicates_tail():
    # f(x) = max(0, x - 1) is flat left of 1; starting there stops at once.
    pieces = PiecewiseLinearMax(
        slopes=np.array([[0.0], [1.0]]), intercepts=np.array([0.0, -1.0])
    )
    p = instance_from_pieces(
        pieces,
        f_star=0.0,
        x_star=np.array([0.5]),
        x_start=np.array([0.5]),
        B=1.0,
        R=1.0,
        name="hinge",
    )
    trace = run(p, StepSchedule.constant_normalized(0.3), N=4)
    assert trace.terminated_early
    assert np.allclose(trace.values, np.zeros(5))
    assert trace.points.shape == (5, 1)
    assert np.allclose(trace.points, 0.5)
    assert len(trace.steps) == 4
    assert trace.subgradients.shape == (5, 1)


def test_script_entry_past_an_early_stop_is_checked_in_run():
    # The same hinge stops at once, but iteration N+1 is scripted to the
    # sloped piece, which is not active at the stopping point.
    pieces = PiecewiseLinearMax(
        slopes=np.array([[0.0], [1.0]]),
        intercepts=np.array([0.0, -1.0]),
        scripted_choices={5: 1},
    )
    p = instance_from_pieces(
        pieces, f_star=0.0, x_star=np.array([0.5]), x_start=np.array([0.5]), B=1.0, R=1.0
    )
    with pytest.raises(ScriptedPieceInactive):
        run(p, StepSchedule.constant_normalized(0.3), N=4)


@pytest.mark.parametrize(
    "p,schedule,N",
    [
        (long_step_instance(5, 0.3), StepSchedule.constant_normalized(0.3), 5),
        (scale_instance(random_instance(6, 9, seed=4), 2.5, 0.4),
         StepSchedule.constant_length(0.2), 30),
    ],
)
def test_trace_keeps_the_oracle_answer_at_the_final_point(p, schedule, N):
    trace = run(p, schedule, N=N)
    assert not trace.terminated_early
    assert trace.subgradients.shape == (N + 1, p.dimension)
    final = p.evaluate(trace.points[-1], N + 1)
    assert np.array_equal(trace.subgradients[-1], final.subgradient)
    assert trace.values[-1] == final.value


def test_infeasible_start_rejected():
    p = abs_instance()
    ball = instance_from_pieces(
        PiecewiseLinearMax(slopes=np.array([[1.0], [-1.0]]), intercepts=np.zeros(2)),
        f_star=0.0,
        x_star=np.zeros(1),
        x_start=np.array([1.0]),
        projection=project_ball(np.zeros(1), 1.0),
        name="ball-abs",
    )
    with pytest.raises(InfeasibleReference):
        run(ball, StepSchedule.constant_normalized(0.1), N=1, x1=np.array([2.0]))
    del p


def test_projection_keeps_iterates_feasible():
    pieces = PiecewiseLinearMax(
        slopes=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        intercepts=np.zeros(4),
    )
    p = instance_from_pieces(
        pieces,
        f_star=0.0,
        x_star=np.zeros(2),
        x_start=np.array([0.6, 0.8]),
        projection=project_ball(np.zeros(2), 1.0),
        B=1.0,
        R=1.0,
        name="ball-cross",
    )
    trace = run(p, StepSchedule.constant_normalized(2.5), N=6)
    norms = np.linalg.norm(trace.points, axis=1)
    assert np.all(norms <= 1.0 + 1e-12)


def test_values_recorded_with_one_based_iteration_index():
    seen = []

    pieces = PiecewiseLinearMax(
        slopes=np.array([[1.0], [-1.0]]),
        intercepts=np.zeros(2),
    )
    p = instance_from_pieces(
        pieces,
        f_star=0.0,
        x_star=np.zeros(1),
        x_start=np.array([1.0]),
        name="spy",
    )
    orig = p.oracle

    def spy(x, k=None):
        seen.append(k)
        return orig(x, k)

    q = instance_from_pieces(
        pieces, f_star=0.0, x_star=np.zeros(1), x_start=np.array([1.0]), name="spy"
    )
    object.__setattr__(q, "oracle", spy)
    run(q, StepSchedule.constant_normalized(0.1), N=3)
    assert seen == [1, 2, 3, 4]


def test_best_iterate_bound_frozen():
    # (R^2 + B^2 * sum h^2) / (2 * sum h) with B = R = 1
    h = [0.5, 0.5]
    assert best_iterate_bound(h, 1.0, 1.0) == pytest.approx(0.75, abs=1e-15)
    assert best_iterate_bound([1.0], 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_best_iterate_bound_validation():
    with pytest.raises(EmptySchedule):
        best_iterate_bound([], 1.0, 1.0)
    with pytest.raises(StepOutOfRange):
        best_iterate_bound([0.1, -0.2], 1.0, 1.0)


def test_avg_gap_needs_full_weight_vector():
    p = abs_instance()
    trace = run(p, StepSchedule.constant_normalized(0.1), N=2)
    with pytest.raises(IncompatibleLength):
        avg_gap(trace, p, [0.1, 0.1])
    with pytest.raises(StepOutOfRange):
        avg_gap(trace, p, [0.1, 0.1, 0.0])


def test_schedule_validation():
    with pytest.raises(EmptySchedule):
        StepSchedule.custom([])
    with pytest.raises(StepOutOfRange):
        StepSchedule.custom([0.1, 0.0])
    with pytest.raises(StepOutOfRange):
        StepSchedule.constant_normalized(-1.0)
    with pytest.raises(ValueError):
        StepSchedule.optimal_last_iterate(0)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    N=st.integers(min_value=1, max_value=12),
    h=st.floats(min_value=0.01, max_value=1.5, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_gap_ordering_on_random_instances(seed, N, h):
    p = random_instance(3, 4, seed=seed)
    trace = run(p, StepSchedule.constant_normalized(h), N=N)
    lg = last_gap(trace, p)
    bg = best_gap(trace, p)
    ag = avg_gap(trace, p, [h] * N + [h])
    assert 0.0 <= bg <= lg + 1e-12
    # convexity: the averaged point is at most the weighted mean of the gaps
    gaps = trace.values - p.f_star
    assert ag <= float(np.mean(gaps)) + 1e-9
    bound = best_iterate_bound([h] * (N + 1), p.B, p.R)
    assert bg <= bound + 1e-9
    assert ag <= bound + 1e-9


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    N=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=40, deadline=None)
def test_runs_are_deterministic(seed, N):
    p = random_instance(4, 5, seed=seed)
    a = run(p, StepSchedule.optimal_last_iterate(N))
    b = run(p, StepSchedule.optimal_last_iterate(N))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.points, b.points)


# The five scalar step formulas, written out as the reference the schedules
# must reproduce bit for bit: (schedule, h_k(k, B, R, ||g||), nominal(k, B, R)).
def _reference_schedules(N):
    steps = [0.05 * (1 + (7 * k) % 11) for k in range(N)]
    h, t = 0.37, 0.21

    def optimal(k, B, R):
        return R * (N + 1 - k) / (B * (N + 1) ** 1.5)

    def optimal_length(k, B, R):
        return R * (N + 1 - k) / (N + 1) ** 1.5

    return [
        (StepSchedule.custom(steps),
         lambda k, B, R, g: steps[k - 1], lambda k, B, R: steps[k - 1]),
        (StepSchedule.constant_normalized(h),
         lambda k, B, R, g: h * R / B, lambda k, B, R: h * R / B),
        (StepSchedule.constant_length(t),
         lambda k, B, R, g: t * R / g, lambda k, B, R: t * R),
        (StepSchedule.optimal_last_iterate(N),
         lambda k, B, R, g: optimal(k, B, R), optimal),
        (StepSchedule.optimal_length(N),
         lambda k, B, R, g: optimal_length(k, B, R) / g, optimal_length),
    ]


@pytest.mark.parametrize("N", [1, 7, 200])
@pytest.mark.parametrize("B,R", [(1.0, 1.0), (2.0, 3.0), (0.7, 1.3)])
def test_schedules_match_reference_formulas_bit_for_bit(N, B, R):
    p = abs_instance(B, R)
    for schedule, step, nominal in _reference_schedules(N):
        schedule.check_supports(N)
        for k in range(1, N + 1):
            for g in (0.3, 1.0, 1.9):
                assert schedule.step_size(k, p, g) == step(k, B, R, g)
            assert schedule.nominal_step(k, p) == nominal(k, B, R)


def test_check_supports_error_types():
    with pytest.raises(ScheduleExhausted):
        StepSchedule.custom([0.1, 0.2]).check_supports(3)
    StepSchedule.custom([0.1, 0.2]).check_supports(1)
    for planned in (StepSchedule.optimal_last_iterate(4), StepSchedule.optimal_length(4)):
        planned.check_supports(4)
        for other in (3, 5):
            with pytest.raises(IncompatibleLength):
                planned.check_supports(other)
    for free in (StepSchedule.constant_normalized(0.1), StepSchedule.constant_length(0.1)):
        free.check_supports(1)
        free.check_supports(10_000)
