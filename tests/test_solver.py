import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgradlab import (
    EmptySchedule,
    IncompatibleLength,
    InfeasibleReference,
    PiecewiseLinearMax,
    PiecewiseOracle,
    ProblemInstance,
    ScheduleExhausted,
    ScriptedPieceInactive,
    StepOutOfRange,
    StepSchedule,
    SubgradientSample,
    avg_gap,
    best_gap,
    best_iterate_bound,
    eval_plmax,
    instance_from_pieces,
    last_gap,
    project_all,
    project_ball,
    project_box,
    run,
    scale_instance,
)
from subgradlab import solver
from subgradlab.core import ACTIVE_TOL, ZERO_TOL, as_point
from subgradlab.rates import TWO_STEP_FIRST
from subgradlab.worstcase import (
    abs_instance,
    long_step_instance,
    random_instance,
    two_step_worst_long,
    two_step_worst_small,
)


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


def test_run_needs_a_start():
    p = replace(random_instance(3, 4, seed=6), x_start=None)
    with pytest.raises(ValueError, match="instance has no canonical start"):
        run(p, StepSchedule.constant_normalized(0.1), N=6)


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


# --- the run loop against one evaluate call per answer ------------------------------


def _reference_run(p, schedule, N):
    """The reference run loop: one ``p.evaluate`` per answer, copied as it
    arrives, and one ``schedule.step_size`` per step.  Returns (values,
    steps, points, subgradients, terminated_early)."""
    x = as_point(p.x_start, p.dimension)
    values, steps, points, subgradients = [], [], [x], []
    terminated_early = False
    for k in range(1, N + 1):
        value, g, norm = p.evaluate(x, k)
        g = np.array(g)
        if norm <= ZERO_TOL * p.B:
            terminated_early = True
            values += [value] * (N + 1 - k)
            subgradients += [g] * (N + 1 - k)
            steps += [schedule.nominal_step(j, p) for j in range(k, N + 1)]
            points += [x] * (N + 1 - k)
            break
        values.append(value)
        subgradients.append(g)
        h_k = schedule.step_size(k, p, norm)
        steps.append(h_k)
        x = p.projection(x - h_k * g)
        points.append(x)
    last = p.evaluate(x, N + 1)
    values.append(last.value)
    subgradients.append(np.array(last.subgradient))
    return values, steps, points, subgradients, terminated_early


def _bits(trace):
    """A trace or a reference tuple as bytes, for comparing bit for bit."""
    if isinstance(trace, tuple):
        *arrays, early = trace
    else:
        arrays = [trace.values, trace.steps, trace.points, trace.subgradients]
        early = trace.terminated_early
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays], early


def _all_schedules(N):
    return [
        StepSchedule.custom([0.05 * (1 + (7 * k) % 11) for k in range(N)]),
        StepSchedule.constant_normalized(0.3),
        StepSchedule.constant_length(0.2),
        StepSchedule.optimal_last_iterate(N),
        StepSchedule.optimal_length(N),
    ]


def _hinge():
    # test_early_stop_replicates_tail's hinge: max(0, x - 1) from x = 0.5
    pieces = PiecewiseLinearMax(slopes=np.array([[0.0], [1.0]]), intercepts=np.array([0.0, -1.0]))
    return instance_from_pieces(
        pieces, f_star=0.0, x_star=np.array([0.5]), x_start=np.array([0.5]), B=1.0, R=1.0
    )


def _quiet_hinge(N):
    """A hinge that stops at once on a slope of norm 1e-15, which a move
    would not leave in place, scripted at the iterations it never queries."""
    pieces = PiecewiseLinearMax(
        slopes=np.array([[1e-15], [1.0]]), intercepts=np.array([0.0, -1.0]),
        scripted_choices={k: 1 for k in range(2, N + 1)},
    )
    return instance_from_pieces(pieces, f_star=0.0, x_star=[0.5], x_start=[0.5], B=1.0, R=1.0)


def _scripted_abs(k):
    # |x| from x = 1 with steps of 0.1, scripted at iteration k to the piece
    # -x, which is then 2 - 0.2 (k - 1) below the maximum
    pieces = PiecewiseLinearMax(
        slopes=np.array([[1.0], [-1.0]]), intercepts=np.zeros(2), scripted_choices={k: 1}
    )
    return instance_from_pieces(pieces, f_star=0.0, x_star=[0.0], x_start=[1.0], B=1.0, R=1.0)


def _ball_scaled():
    unit = instance_from_pieces(
        PiecewiseLinearMax(np.eye(3), np.zeros(3)),
        f_star=-1.0 / np.sqrt(3.0),
        x_star=-np.ones(3) / np.sqrt(3.0),
        x_start=np.zeros(3),
        projection=project_ball(np.zeros(3), 1.0),
    )
    return scale_instance(unit, 2.0, 3.0)


RUN_CASES = pytest.mark.parametrize(
    "p,N,own,early",
    [
        (random_instance(5, 9, seed=3), 300, None, False),
        (scale_instance(random_instance(5, 9, seed=3), 2.0, 3.0), 300, None, False),
        (long_step_instance(50, 0.3), 50, None, False),
        (two_step_worst_small(0.05), 2, StepSchedule.custom([TWO_STEP_FIRST, 0.05]), False),
        (two_step_worst_long(0.3), 2, StepSchedule.custom([TWO_STEP_FIRST, 0.3]), False),
        (_ball_scaled(), 40, None, False),
        (_hinge(), 4, None, True),
        (_quiet_hinge(4), 4, None, True),
        (_scripted_abs(9), 6, None, False),  # scripted past the final query
    ],
    ids=["random", "random-B2-R3", "longstep", "two-step-small", "two-step-long",
         "ball-B2-R3", "hinge", "quiet-hinge", "script-past-N"],
)


@RUN_CASES
def test_run_is_the_evaluate_loop_bit_for_bit(p, N, own, early):
    for schedule in _all_schedules(N) + ([own] if own else []):
        expected = _bits(_reference_run(p, schedule, N))
        assert _bits(run(p, schedule, N=N)) == expected
        assert expected[1] is early


def _reused_buffer(p):
    """``p`` with a custom oracle that returns one buffer, overwritten with
    each answer of ``p``'s own oracle."""
    buffer = np.empty(p.dimension)

    def oracle(x, k=None):
        value, g, _ = p.oracle(x, k)
        buffer[:] = g
        return SubgradientSample.of(value, buffer)

    return replace(p, oracle=oracle)


@RUN_CASES
def test_trace_subgradients_are_the_copying_reference_bit_for_bit(p, N, own, early):
    """A trace keeps its answers by reference and stacks them on each read:
    the array is the loop's copy per answer, bit for bit, also for an oracle
    that overwrites its one answer buffer, and each read is a fresh array."""
    for schedule in _all_schedules(N) + ([own] if own else []):
        expected = np.array(_reference_run(p, schedule, N)[3])
        for q in (p, _reused_buffer(p)):
            trace = run(q, schedule, N=N)
            first, second = trace.subgradients, trace.subgradients
            assert first.dtype == np.float64 and first.shape == (N + 1, p.dimension)
            assert first.tobytes() == second.tobytes() == expected.tobytes()
            assert not np.shares_memory(first, second)
            assert "answers" not in repr(trace)


def _box_around_start(p, in_place):
    """``p`` on the box spanned by its start and the origin, widened by 0.01,
    which the steps leave: a clip into a fresh array, or in place into the
    point the clip is given, which it returns."""
    lo = np.minimum(p.x_start, 0.0) - 0.01
    hi = np.maximum(p.x_start, 0.0) + 0.01

    def clip(y):
        return np.clip(y, lo, hi, out=y if in_place else None)

    return replace(p, projection=clip)


@pytest.mark.parametrize("R", [1.0, 3.0])
def test_an_overflowing_step_is_clipped_like_a_huge_finite_one(R):
    """Steps of 1.7e308 on 2|x| overflow x - h g to -inf, then +inf, without
    a numpy warning; the box clips each to the face a step of 1e307 reaches."""
    p = replace(abs_instance(B=2.0, R=R), projection=project_box([-R], [R]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = run(p, StepSchedule.custom([1.7e308] * 3), N=3)
    finite = run(p, StepSchedule.custom([1e307] * 3), N=3)
    assert huge.points.tolist() == finite.points.tolist() == [[R], [-R], [R], [-R]]
    assert huge.values.tolist() == finite.values.tolist()


@pytest.mark.parametrize(
    "p,N,early",
    [
        (_box_around_start(random_instance(5, 9, seed=3), in_place=False), 300, False),
        (_box_around_start(random_instance(5, 9, seed=3), in_place=True), 300, False),
        (_box_around_start(scale_instance(random_instance(4, 6, seed=5), 2.0, 3.0), True), 200, False),
        (random_instance(5, 9, seed=3), 300, False),
        (_hinge(), 4, True),
        (_quiet_hinge(4), 4, True),
    ],
    ids=["box-fresh", "box-in-place", "box-in-place-B2-R3", "whole-space", "whole-space-stop",
         "whole-space-stop-at-once"],
)
def test_in_place_steps_keep_the_trace_bit_for_bit(p, N, early):
    """``run`` writes each step into the trace's next row and projects that
    row: a projection returning a fresh array, one writing into its argument
    and ``project_all``, also after an early stop, give the reference loop's
    trace bit for bit, and the box projections do move some steps."""
    for schedule in _all_schedules(N):
        expected = _bits(_reference_run(p, schedule, N))
        trace = run(p, schedule, N=N)
        assert _bits(trace) == expected and expected[1] is early
        if p.projection is not project_all:
            free = run(replace(p, projection=project_all), schedule, N=N)
            assert not np.array_equal(free.points, trace.points)


@pytest.mark.parametrize(
    "p", [random_instance(8, 16, seed=2), scale_instance(random_instance(8, 16, seed=2), 2.0, 3.0)],
    ids=["unit", "B2-R3"],
)
def test_runs_in_four_threads_keep_the_serial_trace(p):
    """Each ``run`` builds its own query, with its own buffers: four threads,
    each running the instance itself and switching every microsecond, all
    get the serial trace's bits."""
    schedule, N = StepSchedule.constant_length(0.05), 2000
    expected = _bits(run(p, schedule, N=N))
    start, traces = threading.Barrier(4), [None] * 4

    def worker(i):
        start.wait()
        traces[i] = run(p, schedule, N=N)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [_bits(trace) for trace in traces] == [expected] * 4


@pytest.mark.parametrize(
    "p,schedule,N",
    [
        (random_instance(32, 64, seed=4), StepSchedule.constant_normalized(0.1), 20_000),
        (long_step_instance(200, 0.3), StepSchedule.constant_normalized(0.3), 200),
    ],
    ids=["random-32x64", "longstep-200"],
)
def test_trace_memory_is_the_points_and_little_more(p, schedule, N):
    """``run`` keeps its answers by reference, not as an (N+1) x dim copy:
    its peak traced allocation stays within 1.25 times the points array,
    where such a copy would take it above 2.  tracemalloc counts numpy's
    data buffers, so the ratio does not depend on the machine."""
    run(p, schedule, N=2)
    tracemalloc.start()
    try:
        trace = run(p, schedule, N=N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * trace.points.nbytes


def test_traces_compare_by_identity():
    """Traces hold arrays, so ``==`` compares identity rather than raising on
    an array's ambiguous truth value."""
    p = random_instance(3, 5, seed=1)
    schedule = StepSchedule.constant_normalized(0.1)
    trace, again = run(p, schedule, N=3), run(p, schedule, N=3)
    assert not (trace == again) and trace != again
    assert trace == trace


def _abs_oracle(x, k=None):
    # |x| with abs_instance's tie-break: -1 whenever -x is within the
    # ACTIVE_TOL band of the maximum
    value = abs(float(x[0]))
    slope = -1.0 if -x[0] >= value - ACTIVE_TOL * (1.0 + value) else 1.0
    return SubgradientSample.of(value, np.array([slope]))


@pytest.mark.parametrize(
    "schedule", _all_schedules(25),
    ids=["custom", "constant", "length", "optimal", "optimal-length"],
)
def test_a_custom_oracle_runs_bit_equal_to_its_piecewise_instance(schedule):
    pieces = abs_instance()
    custom = ProblemInstance(
        oracle=_abs_oracle, projection=project_all, f_star=0.0, B=1.0, R=1.0,
        dimension=1, x_start=np.array([1.0]),
    )
    assert _bits(run(custom, schedule, N=25)) == _bits(run(pieces, schedule, N=25))


@pytest.mark.parametrize(
    "schedule", _all_schedules(25),
    ids=["custom", "constant", "length", "optimal", "optimal-length"],
)
def test_a_partial_oracle_runs_bit_equal_to_its_piecewise_instance(schedule):
    """A hand-built ``partial(eval_plmax, f)`` is a custom oracle, which
    ``run`` queries once per answer: it gives the bits of the instance's own
    ``PiecewiseOracle``."""
    for p in (random_instance(4, 6, seed=7), long_step_instance(25, 0.3)):
        hand = replace(p, oracle=partial(eval_plmax, p.oracle.pieces))
        assert _bits(run(hand, schedule, N=25)) == _bits(run(p, schedule, N=25))


def test_a_custom_oracle_above_B_raises_from_run():
    def oracle(x, k=None):
        return SubgradientSample.of(abs(float(x[0])), np.array([10.0 if k == 3 else 1.0]))

    p = ProblemInstance(
        oracle=oracle, projection=project_all, f_star=0.0, B=1.0, R=1.0,
        dimension=1, x_start=np.array([1.0]),
    )
    run(p, StepSchedule.constant_normalized(0.1), N=1)
    with pytest.raises(ValueError, match="exceeding B"):
        run(p, StepSchedule.constant_normalized(0.1), N=5)
    # the final answer, at N + 1 = 3, meets the same check
    with pytest.raises(ValueError, match="exceeding B"):
        run(p, StepSchedule.constant_normalized(0.1), N=2)


@pytest.mark.parametrize("B,R", [(1.0, 1.0), (2.0, 3.0)])
def test_a_scripted_piece_inactive_mid_run_raises_from_run(B, R):
    # |x| from x = 1 with steps of 0.1: iteration 3 is at 0.8, where the
    # scripted piece -x is 1.6 below the maximum.
    pieces = PiecewiseLinearMax(
        slopes=np.array([[1.0], [-1.0]]), intercepts=np.zeros(2), scripted_choices={3: 1}
    )
    p = scale_instance(
        instance_from_pieces(pieces, f_star=0.0, x_star=[0.0], x_start=[1.0], B=1.0, R=1.0),
        B, R,
    )
    run(p, StepSchedule.constant_normalized(0.1), N=1)
    with pytest.raises(ScriptedPieceInactive, match="iteration 3 is scripted to piece 1"):
        run(p, StepSchedule.constant_normalized(0.1), N=5)


# --- certify's lock-step loop against one run per trajectory -------------------------


def _step_together(instances, schedules, N):
    """``solver.step_together`` on unit, unscripted whole-space instances, as
    certify's chunk calls it: each trajectory's (values, steps, rows of the
    chosen pieces, final point, terminated_early), or None where the loop
    hands the batch back."""
    pieces = [p.oracle.pieces for p in instances]
    batch = solver.PieceBatch([f.slopes for f in pieces], [f.intercepts for f in pieces])
    X = np.zeros((len(instances), batch.slopes.shape[2]))
    for row, p in zip(X, instances):
        row[: p.dimension] = p.x_start
    # each schedule's steps on a unit instance; a by-length step is divided when taken
    steps = np.array([[s.rule(k, 1.0, 1.0) for s in schedules] for k in range(1, N + 1)])
    by_length = np.array([schedule.by_length for schedule in schedules])
    stepped = solver.step_together(batch, X, steps, by_length, N)
    if stepped is None:
        return None
    values, chosen = stepped
    return [
        (values[:, t], steps[:, t], batch.slopes[t, chosen[:, t], :d], X[t, :d], False)
        for t, d in enumerate(batch.dims)
    ]


def _lockstep_bits(trace):
    """The bits of what the lock-step loop gives of a run: its values, steps,
    subgradients and final point."""
    return _bits((trace.values, trace.steps, trace.subgradients, trace.points[-1],
                  trace.terminated_early))


def _unit_batch(N):
    """Unit, unscripted whole-space instances of three shapes with every
    schedule: random instances, the unscripted long-step instance and both
    unscripted two-step instances."""
    batch = [
        (random_instance(2 + 3 * seed, 4 + seed, seed=seed), s)
        for seed in range(3) for s in _all_schedules(N)
    ]
    batch += [(long_step_instance(50, 0.3, scripted=False), s) for s in _all_schedules(N)]
    for make, h2 in ((two_step_worst_small, 0.05), (two_step_worst_long, 0.3)):
        batch += [(make(h2, scripted=False), s) for s in _all_schedules(N)]
    return batch


@pytest.mark.parametrize("N", [1, 2, 7, 50])
def test_lockstep_steps_every_trajectory_that_run_does_not_stop(N, monkeypatch):
    batch = [(p, s) for p, s in _unit_batch(N) if not run(p, s, N=N).terminated_early]
    instances, schedules = zip(*batch)
    expected = [_lockstep_bits(run(p, schedule, N=N)) for p, schedule in batch]
    # random and long-step instances of mixed shapes; the two-step instances
    # stop under some schedules at N = 7 and under all at N = 50
    assert len(batch) >= 10 and len({p.dimension for p in instances}) >= 2

    def no_run(*args, **kwargs):
        raise AssertionError("the lock-step loop called run")

    monkeypatch.setattr(solver, "run", no_run)
    assert [_bits(t) for t in _step_together(instances, schedules, N)] == expected
    assert [_bits(t) for t in _step_together(instances[:1], schedules[:1], N)] == expected[:1]


def _raised(fn):
    with pytest.raises(Exception) as exc:
        fn()
    return type(exc.value), str(exc.value)


def test_lockstep_hands_back_a_batch_that_run_stops_early():
    """A trajectory whose run stops at a zero subgradient, the zero piece of
    an unscripted two-step instance, hands the batch back; a batch without a
    piece at or below ZERO_TOL skips that check on every answer."""
    N = 50
    stopping = [(p, s) for p, s in _unit_batch(N) if run(p, s, N=N).terminated_early]
    other = random_instance(3, 2, seed=0)
    assert len(stopping) >= 5 and not solver.PieceBatch([other.oracle.pieces.slopes]).vanishing
    for p, schedule in stopping:
        assert solver.PieceBatch([p.oracle.pieces.slopes]).vanishing
        assert _step_together([other, p], [schedule] * 2, N) is None


def test_lockstep_raises_the_norm_check_of_run():
    """The loop hands the batch back exactly where ``run`` raises for a norm
    above B (1 + 1e-12), at B = 1: in a step and in the final query."""
    schedule = StepSchedule.constant_normalized(0.1)
    for slope in (1.0 + 5e-13, 1.0 + 2e-12, 2.0):
        # max(x, -slope x) from x = 1 with steps of 0.1 reaches 0 at iteration
        # 11, where the piece -slope x is chosen for the first time
        pieces = PiecewiseLinearMax(slopes=np.array([[1.0], [-slope]]), intercepts=np.zeros(2))
        p = ProblemInstance(
            oracle=PiecewiseOracle(pieces), projection=project_all, f_star=0.0, B=1.0,
            R=1.0, dimension=1, x_start=np.array([1.0]),
        )
        batch = [random_instance(3, 2, seed=0), p]
        for N in (3, 10, 12):  # no such answer, the final one, and a step's at 11
            stepped = _step_together(batch, [schedule] * 2, N)
            if N == 3 or slope < 1.0 + 1e-12:
                expected = [_lockstep_bits(run(q, schedule, N=N)) for q in batch]
                assert [_bits(t) for t in stepped] == expected
            else:
                kind, message = _raised(lambda: run(p, schedule, N=N))
                assert kind is ValueError and message.endswith("exceeding B=1.0")
                assert stepped is None


def _overflowing():
    """Instances whose custom steps of 1.7e308 overflow the iterates: on the
    axis pieces max(x1, x2) from (1, 0) the values hold 0 * -inf = NaN at
    iteration 4; on max(x / 2, x) from 1 every value is -inf from iteration 3."""
    axes = instance_from_pieces(
        PiecewiseLinearMax(np.eye(2), np.zeros(2)), f_star=0.0, x_star=[0.0, 0.0],
        x_start=[1.0, 0.0],
    )
    ray = instance_from_pieces(
        PiecewiseLinearMax(np.array([[0.5], [1.0]]), np.zeros(2)), f_star=0.0,
        x_star=[0.0], x_start=[1.0],
    )
    return axes, ray


def test_lockstep_never_picks_a_padded_piece():
    axes, ray = _overflowing()
    huge = StepSchedule.custom([1.7e308] * 6)
    wide = random_instance(6, 9, seed=2)  # 18 pieces: the others are padded
    schedules = [StepSchedule.constant_normalized(0.1), huge]
    with np.errstate(over="ignore", invalid="ignore"):
        # NaN values leave no active piece: run raises and the loop hands the batch back
        expected = _raised(lambda: run(axes, huge, N=6))
        assert _step_together([wide, axes], schedules, 6) is None
        # all values -inf: every piece is in the band, and the last real one is chosen
        traces = _step_together([wide, ray], schedules, 6)
        trace = run(ray, huge, N=6)
    assert expected == (ValueError, "iteration 4: no piece is active at the queried "
                        "point, where the maximum is nan")
    assert [_bits(t) for t in traces] == [
        _lockstep_bits(run(wide, schedules[0], N=6)), _lockstep_bits(trace)
    ]
    assert trace.values[-1] == -np.inf and not trace.terminated_early
