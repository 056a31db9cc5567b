import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgradlab import (
    IncompatibleLength,
    PiecewiseLinearMax,
    MonotonicityViolation,
    StepOutOfRange,
    StepSchedule,
    WeightSequence,
    alpha_family_bound,
    coefficients,
    constant_step_rate,
    instance_from_pieces,
    constant_step_weights,
    matching_alpha,
    optimal_step_weights,
    recursive_weights,
    run,
    scale_instance,
    verify_lemma,
)
from subgradlab import certify, core, solver, worstcase
from subgradlab.sequences import s
from subgradlab.worstcase import abs_instance, random_instance

# certify's step rules and their draws, written out: each draws its
# parameter from the trial's generator, then builds
_SCHEDULE_DRAWS = (
    lambda rng, N: StepSchedule.constant_normalized(rng.uniform(0.05, 1.2)),
    lambda rng, N: StepSchedule.constant_length(rng.uniform(0.05, 1.0)),
    lambda rng, N: StepSchedule.optimal_last_iterate(N),
    lambda rng, N: StepSchedule.optimal_length(N),
    lambda rng, N: StepSchedule.custom(rng.uniform(0.02, 0.8, N)),
)


def test_weight_validation():
    with pytest.raises(MonotonicityViolation):
        WeightSequence(np.array([1.0, 0.5, 2.0]), h_last=0.1)
    with pytest.raises(StepOutOfRange):
        WeightSequence(np.array([1.0, 2.0]), h_last=0.0)
    with pytest.raises(ValueError):
        WeightSequence(np.array([1.0]), h_last=0.1)
    with pytest.raises(ValueError):
        WeightSequence(np.array([-1.0, 2.0]), h_last=0.1)
    with pytest.raises(MonotonicityViolation):  # a decrease of one ulp
        WeightSequence(np.array([1.0, 2.0, np.nextafter(2.0, 0.0), 3.0]), h_last=0.1)
    with pytest.raises(MonotonicityViolation):
        WeightSequence(np.array([1.0, np.nextafter(1.0, 0.0)]), h_last=0.1)
    ties = WeightSequence(np.array([1.0, 1.0, 2.0, 2.0, 2.0]), h_last=0.1)
    assert ties.horizon == 3


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


def test_matching_alpha_stops_at_adjacent_floats():
    # a tolerance below the float spacing near alpha ends at adjacent floats
    alpha = matching_alpha(5, 0.05, tol=1e-17)
    assert abs(s(alpha, 6) * math.sqrt(0.05) - 1.0) <= 1e-15


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


# --- the lemma against its numpy-wrapper formulas -----------------------------


def _reference_coefficients(w, steps):
    h = np.append(steps, w.h_last)
    v = w.v
    suffix = np.cumsum((h * v[1:])[::-1])[::-1]
    return h * v[1:] ** 2 - np.diff(v) * suffix


def _reference_lemma(trace, p, w, x_hat):
    """``verify_lemma`` written with numpy's Python-level functions; the
    package computes the same floats through array methods and ufuncs."""
    c = _reference_coefficients(w, trace.steps)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    lhs = float(np.dot(c, trace.values - p.evaluate(x_hat).value))
    g = trace.subgradients
    g_norms_sq = np.append(np.sum(g[:-1] ** 2, axis=1), float(np.dot(g[-1], g[-1])))
    h = np.append(trace.steps, w.h_last)
    v = w.v
    rhs = float(
        0.5 * v[0] ** 2 * float(np.sum((trace.points[0] - x_hat) ** 2))
        + 0.5 * float(np.sum(h**2 * v[1:] ** 2 * g_norms_sq))
    )
    return lhs, rhs, rhs - lhs


def _flat_bottom_instance(rng, dim):
    """max(0, <a_i, x> - 1/2) over random unit a_i, the zero piece last: a run
    stops early once every sloped piece is below zero."""
    m = int(rng.integers(1, 2 * dim + 1))
    a = rng.standard_normal((m, dim))
    a /= np.linalg.norm(a, axis=1)[:, None]
    pieces = PiecewiseLinearMax(
        slopes=np.vstack([a, np.zeros(dim)]), intercepts=np.append(np.full(m, -0.5), 0.0)
    )
    x_start = 2.0 * rng.standard_normal(dim)
    return instance_from_pieces(pieces, f_star=0.0, x_star=np.zeros(dim), x_start=x_start)


def test_lemma_matches_reference_formulas_bit_for_bit():
    """300 certify-style trials: unit and scaled random instances and
    flat-bottomed ones whose runs stop early, under every step rule."""
    early = 0
    for trial in range(300):
        rng = np.random.default_rng([29, trial])
        dim = int(rng.integers(1, 9))
        N = 1 + trial % 20
        kind = trial % 3
        if kind == 2:
            p = _flat_bottom_instance(rng, dim)
        else:
            p = random_instance(dim, int(rng.integers(1, 2 * dim + 1)), seed=rng)
            if kind == 1:
                p = scale_instance(p, rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0))
        trace = run(p, _SCHEDULE_DRAWS[trial % 5](rng, N), N=N)
        early += trace.terminated_early
        w = WeightSequence(np.sort(rng.uniform(0.05, 2.0, N + 2)), rng.uniform(0.05, 1.0))
        x_hat = p.x_star if trial % 2 == 0 else rng.standard_normal(dim)
        assert np.array_equal(
            coefficients(w, trace.steps), _reference_coefficients(w, trace.steps)
        )
        got = [x.hex() for x in verify_lemma(trace, p, w, x_hat)]
        assert got == [x.hex() for x in _reference_lemma(trace, p, w, x_hat)], trial
    assert early >= 20


# --- certify's chunk check against verify_lemma, and the layouts it relies on --------


def _chunk_dims(seed, trials):
    return {int(np.random.default_rng([seed, t]).integers(2, 9)) for t in trials}


@pytest.mark.parametrize("N", [1, 7, 8, 20, 100])
def test_chunk_slacks_are_verify_lemma_bit_for_bit(N):
    """A chunk drawn, stepped and checked as arrays gives every trial the
    slack of random_instance, run and verify_lemma, to the bit."""
    trials = range(3, 3 + (40 if N == 100 else 120))
    assert _chunk_dims(5, trials) == set(range(2, 9))  # every dimension certify draws
    chunk = certify._certify_chunk(5, trials, N, False)
    assert chunk is not None
    one_by_one = certify._certify_trials(5, trials, N, False)
    assert [s.hex() for s in chunk] == [s.hex() for s in one_by_one]


def _hexes(a):
    return [x.hex() for x in np.ravel(a).tolist()]


def test_certify_unit_rows_match_random_pieces_bit_for_bit():
    """unit_pieces on a stack of one dimension, as the chunk calls it, gives
    each draw the slopes, start point and R-check distance of random_pieces
    and random_instance, to the bit, for every dimension and direction count
    certify draws; the zeros after a draw's pieces stay zeros."""
    for dim in range(2, 9):
        counts = np.random.default_rng(dim).permutation(np.arange(1, 2 * dim + 1))
        slopes = np.zeros((len(counts), 2 * counts.max(), dim))
        starts = np.empty((len(counts), dim))
        for rows, start, m in zip(slopes, starts, counts.tolist()):
            rng = np.random.default_rng([dim, m])
            rng.standard_normal(out=rows[:m])
            rng.standard_normal(out=start)
        assert worstcase.unit_pieces(slopes, counts, starts)
        dist = np.sqrt(core.dots(starts, starts))
        for rows, start, r, m in zip(slopes, starts, dist, counts.tolist()):
            p = random_instance(dim, m, seed=[dim, m])
            drawn = worstcase.random_pieces(dim, m, np.random.default_rng([dim, m]))
            for S, x in (drawn, (p.oracle.pieces.slopes, p.x_start)):
                assert S.shape == (2 * m, dim) and _hexes(rows[: 2 * m]) == _hexes(S)
                assert _hexes(start) == _hexes(x)
            assert not rows[2 * m :].any()
            d = p.x_start - p.x_star  # the distance instance_from_pieces checks against R
            assert r.hex() == math.sqrt(d.dot(d)).hex()


def test_certify_chunk_hands_a_near_zero_drawn_row_to_the_trial_path(monkeypatch):
    """A drawn row of norm below 1e-12, which random_pieces would draw again,
    makes unit_pieces refuse the chunk's stack; the chunk then runs trial by
    trial through _certify_trials, with the same slacks."""
    N, trials = 7, range(40)
    expected = _hexes(certify._certify_trials(5, trials, N, False))
    unit, trial_path = worstcase.unit_pieces, certify._certify_trials
    armed, handed = [True], []

    def near_zero(slopes, counts, starts):
        if armed:
            armed.clear()
            slopes[0, 0] = 1e-14
            assert not unit(slopes.copy(), counts, starts.copy())
        return unit(slopes, counts, starts)

    def spy(seed, part, *rest):
        handed.append(part)
        return trial_path(seed, part, *rest)

    monkeypatch.setattr(worstcase, "unit_pieces", near_zero)
    monkeypatch.setattr(certify, "_certify_trials", spy)
    got = [x for _, slacks in certify.trial_slacks(5, N, trials) for x in _hexes(slacks)]
    assert handed == [trials] and not armed
    assert got == expected


@pytest.mark.parametrize("N", [1, 7, 20, 100])
def test_certify_step_rows_are_the_scalar_rule_calls(N):
    """Each schedule's steps on a unit instance, as certify draws them, are
    one call of its rule on k = 1 .. N, a custom schedule's too, with the
    bits of the N scalar calls rule(k, 1.0, 1.0)."""
    for trial in range(len(certify._TRIAL_SCHEDULES)):
        schedule, steps, *_ = certify._draw(np.random.default_rng([N, trial]), trial, 3, N)
        row = np.broadcast_to(steps, (N,))
        assert _hexes(row) == [schedule.rule(k, 1.0, 1.0).hex() for k in range(1, N + 1)]


def _trial_by_trial_slacks(seed, trials, N):
    """Each trial's slack through random_instance, run and verify_lemma, as
    hex strings, with certify's draws written out."""
    slacks = []
    for trial in trials:
        rng = np.random.default_rng([seed, trial])
        dim = int(rng.integers(2, 9))
        p = random_instance(dim, int(rng.integers(1, 2 * dim + 1)), seed=rng)
        trace = run(p, _SCHEDULE_DRAWS[trial % 5](rng, N), N=N)
        v = np.sort(rng.uniform(0.05, 2.0, N + 2))
        w = WeightSequence(v, h_last=float(rng.uniform(0.05, 1.0)))
        x_hat = p.x_star if trial % 2 == 0 else rng.standard_normal(dim)
        slacks.append(verify_lemma(trace, p, w, x_hat).slack.hex())
    return slacks


@pytest.mark.parametrize("N", [1, 7, 20])
def test_trial_slacks_is_a_library_call(capsys, N):
    """trial_slacks prints nothing and yields, chunk by chunk, float64 arrays
    whose concatenation is the trial-by-trial loop's slacks, bit for bit,
    wherever the range is split; reversed weights raise."""
    chunk = certify._chunk_trials(N)
    trials = range(37, 2 * chunk + 50)

    def concatenated(*parts):
        got = []
        for part in parts:
            for sub, slacks in certify.trial_slacks(11, N, part):
                assert isinstance(slacks, np.ndarray) and slacks.dtype == np.float64
                assert slacks.shape == (len(sub),) and len(sub) <= chunk
                got.append((sub, [x.hex() for x in slacks.tolist()]))
        assert [t for sub, _ in got for t in sub] == list(trials)
        return [x for _, hexes in got for x in hexes]

    whole = concatenated(trials)
    assert whole == _trial_by_trial_slacks(11, trials, N)
    cuts = {38, 36 + chunk, 37 + chunk, 38 + chunk, trials.stop - 1}
    cuts |= set(np.random.default_rng(N).integers(38, trials.stop, 3).tolist())
    for cut in sorted(cuts):
        assert concatenated(range(37, cut), range(cut, trials.stop)) == whole, cut
    with pytest.raises(MonotonicityViolation):
        next(certify.trial_slacks(11, N, trials, reverse=True))
    assert capsys.readouterr() == ("", "")


def test_trial_major_sums_match_the_1d_sum():
    """Sums along the contiguous last axis of a (T, n) array add in the 1-D
    order; along axis 0 of the (n, T) lock-step layout they do not from
    n = 8 on, so the lemma's sums run over trial-major rows."""
    rng = np.random.default_rng(0)
    for n in (2, 7, 8, 9, 21, 101, 300):
        a = rng.standard_normal((50, n))
        one_d = [np.add.reduce(row).hex() for row in a]
        assert [x.hex() for x in np.add.reduce(a, axis=1)] == one_d
        by_column = [x.hex() for x in np.add.reduce(np.ascontiguousarray(a.T), axis=0)]
        if n >= 8:
            assert by_column != one_d, n


def test_padded_sums_of_squares_keep_their_bits_by_dimension():
    """Zero padding to 8 changes a sum of 4 to 7 squares, so
    core.sums_of_squares sums each dimension on its own rows; a cumulative
    sum is the same in any layout."""
    rng = np.random.default_rng(1)
    dims = rng.integers(2, 9, 2000)
    padded = np.zeros((2000, 8))
    for row, d in zip(padded, dims):
        row[:d] = rng.standard_normal(d)
    one_d = [np.add.reduce(row[:d] * row[:d]).hex() for row, d in zip(padded, dims)]
    assert [x.hex() for x in core.sums_of_squares(padded, dims)] == one_d
    naive = [x.hex() for x in np.add.reduce(padded * padded, axis=1)]
    for d in range(4, 8):
        assert any(a != b for a, b, dd in zip(naive, one_d, dims) if dd == d), d
    h = rng.uniform(0.05, 1.0, (30, 21))
    expected = [row[::-1].cumsum()[::-1] for row in h]
    assert np.array_equal(h[:, ::-1].cumsum(axis=1)[:, ::-1], expected)
    assert np.array_equal(np.ascontiguousarray(h.T)[::-1].cumsum(axis=0)[::-1].T, expected)


@pytest.mark.parametrize("N", [1, 8, 20])
def test_gathered_squared_norms_are_the_rows_sums(N):
    """||g^k||^2 for k <= N is the per-piece sum np.add.reduce(S * S, axis=1)
    of the piece the answer chose; the batch's dots are those pieces' r.dot(r),
    whose root is slope_norms."""
    instances = [random_instance(d, 1 + d % 5, seed=d) for d in range(2, 9)]
    schedule = StepSchedule.constant_normalized(0.3)
    slopes = [p.oracle.pieces.slopes for p in instances]
    batch = solver.PieceBatch(slopes, [p.oracle.pieces.intercepts for p in instances])
    X = np.zeros((len(instances), 8))
    for row, p in zip(X, instances):
        row[: p.dimension] = p.x_start
    steps = np.full((N, len(instances)), 0.3)  # the schedule's steps on a unit instance
    _, pieces = solver.step_together(batch, X, steps, np.zeros(len(instances), dtype=bool), N)
    sq = core.sums_of_squares(batch.slopes, batch.dims)
    for t, p in enumerate(instances):
        m, d = p.oracle.pieces.slopes.shape
        assert np.array_equal(np.sqrt(batch.dots[t, :m]), p.oracle.pieces.slope_norms)
        g = run(p, schedule, N=N).subgradients[:N]
        assert np.array_equal(batch.slopes[t, pieces[:N, t], :d], g)
        assert np.array_equal(sq[t, pieces[:N, t]], np.add.reduce(g * g, axis=1))
