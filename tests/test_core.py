import math
from dataclasses import FrozenInstanceError
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subgradlab import core
from subgradlab import (
    PiecewiseLinearMax,
    PiecewiseOracle,
    ProblemInstance,
    ScriptedPieceInactive,
    StepSchedule,
    SubgradientSample,
    check_instance,
    eval_plmax,
    instance_from_pieces,
    project_all,
    project_ball,
    project_box,
    run,
    scale_instance,
)
from subgradlab.rates import TWO_STEP_FIRST
from subgradlab.worstcase import (
    abs_instance,
    long_step_instance,
    random_instance,
    two_step_worst_long,
    two_step_worst_small,
)

ABS_PIECES = PiecewiseLinearMax(
    slopes=np.array([[1.0], [-1.0]]), intercepts=np.zeros(2)
)


def test_eval_values_and_slopes():
    out = eval_plmax(ABS_PIECES, np.array([0.7]))
    assert out.value == pytest.approx(0.7)
    assert out.subgradient[0] == 1.0
    out = eval_plmax(ABS_PIECES, np.array([-0.3]))
    assert out.value == pytest.approx(0.3)
    assert out.subgradient[0] == -1.0


def test_tie_breaks_to_highest_index():
    out = eval_plmax(ABS_PIECES, np.array([0.0]))
    assert out.value == 0.0
    assert out.subgradient[0] == -1.0


def test_scripted_choice_overrides_tie():
    pieces = PiecewiseLinearMax(
        slopes=np.array([[1.0], [-1.0]]),
        intercepts=np.zeros(2),
        scripted_choices={3: 0},
    )
    out = eval_plmax(pieces, np.array([0.0]), k=3)
    assert out.subgradient[0] == 1.0
    # un-scripted iterations keep the default rule
    out = eval_plmax(pieces, np.array([0.0]), k=2)
    assert out.subgradient[0] == -1.0


def test_scripted_inactive_piece_rejected():
    pieces = PiecewiseLinearMax(
        slopes=np.array([[1.0], [-1.0]]),
        intercepts=np.zeros(2),
        scripted_choices={1: 1},
    )
    with pytest.raises(ScriptedPieceInactive):
        eval_plmax(pieces, np.array([5.0]), k=1)


def test_sample_norm_matches_linalg_norm():
    rng = np.random.default_rng(17)
    vectors = [np.zeros(3), np.array([0.0, 1e-10, 0.0]), np.array([3.0, -4.0, 0.1])]
    vectors += [rng.standard_normal(d) * 10.0 ** rng.integers(-8, 8) for d in (1, 2, 8, 32, 201)]
    vectors += list(long_step_instance(200, 0.3).oracle.pieces.slopes)
    for g in vectors:
        assert SubgradientSample.of(1.0, g).norm == float(np.linalg.norm(g))


def test_sample_is_an_immutable_record():
    sample = SubgradientSample.of(1, [3.0, 4.0])
    assert (type(sample.value), sample.norm) == (float, 5.0)
    assert sample.subgradient.dtype == np.float64
    with pytest.raises(AttributeError):
        sample.norm = 0.0


def _bits(sample):
    return (
        np.float64(sample.value).tobytes(),
        sample.subgradient.tobytes(),
        np.float64(sample.norm).tobytes(),
    )


@pytest.mark.parametrize(
    "pieces",
    [random_instance(8, 16, seed=3).oracle.pieces, long_step_instance(20, 0.4).oracle.pieces],
    ids=["random", "longstep"],
)
def test_unit_oracle_equals_the_explicit_unit_dilation(pieces):
    """The oracle skips a unit scale; the reference always divides x by R
    and multiplies by B and B * R, which gives the same bits at 1.0."""

    def dilated(x, B, R):
        vals = pieces.slopes.dot(x / R) + pieces.intercepts
        fmax = float(np.maximum.reduce(vals))
        row = pieces.slopes[(vals >= core.active_threshold(fmax)).nonzero()[0][-1]]
        return SubgradientSample(B * R * fmax, B * row, B * math.sqrt(row.dot(row)))

    rng = np.random.default_rng(5)
    for x in rng.standard_normal((100, pieces.dimension)):
        for B, R in [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (2.0, 3.0)]:
            assert _bits(eval_plmax(pieces, x, B=B, R=R)) == _bits(dilated(x, B, R))
            assert _bits(PiecewiseOracle(pieces, B, R)(x)) == _bits(dilated(x, B, R))
        assert _bits(eval_plmax(pieces, x)) == _bits(dilated(x, 1.0, 1.0))


def test_oracle_value_matches_matmul_reference():
    """The oracle's maximum equals ``max(slopes @ x + intercepts)`` bit for
    bit, unit and dilated, on random pieces of many shapes and on long-step
    pieces up to N = 200."""
    rng = np.random.default_rng(41)
    all_pieces = [long_step_instance(N, 0.6).oracle.pieces for N in (1, 5, 50, 150, 200)]
    for m, d in [(1, 1), (2, 3), (4, 5), (8, 8), (16, 9), (33, 17), (64, 32), (7, 201)]:
        all_pieces.append(PiecewiseLinearMax(rng.standard_normal((m, d)), rng.standard_normal(m)))
    for pieces in all_pieces:
        for x in rng.standard_normal((20, pieces.dimension)):
            unit = np.max(pieces.slopes @ x + pieces.intercepts)
            assert eval_plmax(pieces, x).value == float(unit)
            scaled = np.max(pieces.slopes @ (x / 3.0) + pieces.intercepts)
            assert eval_plmax(pieces, x, B=2.0, R=3.0).value == 2.0 * 3.0 * float(scaled)


def _formula_query(f, B, R, x, k=None):
    """The query written out: ``np.maximum.reduce`` of the pieces' values,
    then the scripted piece or the highest index in the active band."""
    vals = f.slopes.dot(x if R == 1.0 else x / R) + f.intercepts
    fmax = float(np.maximum.reduce(vals))
    threshold = core.active_threshold(fmax)
    script = f.scripted_choices or {}
    if k in script:
        piece = script[k]
        if vals[piece] < threshold:
            raise ScriptedPieceInactive(
                f"iteration {k} is scripted to piece {piece}, but that piece is "
                f"{fmax - vals[piece]:.3e} below the maximum at the queried point"
            )
    else:
        active = (vals >= threshold).nonzero()[0]
        if not active.size:
            raise ValueError(
                f"iteration {k}: no piece is active at the queried point, "
                f"where the maximum is {fmax}"
            )
        piece = active[-1]
    return SubgradientSample(B * R * fmax, B * f.slopes[piece], B * float(f.slope_norms[piece]))


def _outcome(query, *args):
    """An answer's bits, or the type and message of the error it raises."""
    try:
        return _bits(SubgradientSample(*query(*args)))
    except (ValueError, ScriptedPieceInactive) as exc:
        return type(exc), str(exc)


class _SignedZeroSlopes(np.ndarray):
    """Slopes whose gemv gives -0.0 for the zero value of a row of negative
    slope, as a BLAS kernel may; OpenBLAS gives it only for a single row."""

    def dot(self, x, out=None):
        plain = np.asarray(self)
        vals = plain.dot(x, out=out)
        vals[(vals == 0.0) & (plain[:, 0] < 0.0)] = -0.0
        return vals


def _signed_zero_pieces(signs, intercepts):
    f = PiecewiseLinearMax(np.array(signs, dtype=np.float64)[:, None], intercepts)
    object.__setattr__(f, "slopes", f.slopes.view(_SignedZeroSlopes))
    return f


def _oracle_cases():
    tol = 0.4 * core.ACTIVE_TOL
    near = PiecewiseLinearMax([[1.0 - tol], [1.0], [1.0 - tol], [0.5]], np.zeros(4))
    cases = [
        # pieces tied exactly at the maximum, the last tie before or at the end
        (PiecewiseLinearMax([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.0]], np.zeros(4)), [1.0, 0.5], None),
        (PiecewiseLinearMax([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], np.zeros(3)), [1.0, 0.25], None),
        # maxima tied at the first and at the last index, all or two of them
        (PiecewiseLinearMax(np.ones((3, 1)), np.zeros(3)), [1.0], None),
        (PiecewiseLinearMax([[1.0], [0.5], [0.25], [1.0]], [0.5, 0.0, 0.0, 0.5]), [1.0], None),
        # pieces within ACTIVE_TOL before and after the last maximum
        (near, [1.0], None),
        (PiecewiseLinearMax(np.ones((4, 1)), [-tol, 0.0, -tol, -1.0]), [1.0], None),
        # a piece just after the first maximum, inside and just outside ACTIVE_TOL
        (PiecewiseLinearMax([[1.0], [1.0 - tol], [0.5]], np.zeros(3)), [1.0], None),
        (PiecewiseLinearMax([[1.0], [1.0 - 10 * tol], [0.5]], np.full(3, 0.25)), [1.0], None),
        # intercepts all +0.0, all -0.0 and of mixed sign, at a zero maximum
        (PiecewiseLinearMax([[-1.0]], [0.0]), [0.0], None),
        (PiecewiseLinearMax([[-1.0]], [-0.0]), [0.0], None),
        (PiecewiseLinearMax([[1.0], [-1.0], [0.0]], [-0.0, -0.0, -0.0]), [0.0], None),
        (PiecewiseLinearMax([[1.0], [-1.0], [0.5]], [0.0, -0.0, -0.25]), [0.5], None),
        # a scripted piece that is not active, and one in a tie
        (PiecewiseLinearMax([[1.0], [-1.0]], np.zeros(2), {1: 1, 2: 0}), [1.0], 1),
        (PiecewiseLinearMax([[1.0], [-1.0]], np.zeros(2), {1: 1, 2: 0}), [0.0], 2),
        # a +inf maximum, a NaN one, scripted or not, and inf + -inf in the
        # gemv, which gives NaN or an infinity depending on the kernel
        (PiecewiseLinearMax([[8.0, 0.0], [0.0, 1.0]], np.zeros(2)), [2.5e307, 1.0], None),
        (PiecewiseLinearMax(np.eye(2), np.zeros(2)), [np.nan, 1.0], None),
        (PiecewiseLinearMax(np.eye(2), [0.5, -0.5]), [1.0, np.nan], None),
        (PiecewiseLinearMax(np.eye(2), np.zeros(2), {1: 1}), [np.nan, 1.0], 1),
        (PiecewiseLinearMax([[8.0, -8.0]], [0.0]), [2.5e307, 2.5e307], None),
        (PiecewiseLinearMax([[8.0, -8.0, 8.0, -8.0], [0.0, 0.0, 0.0, 1.0]], [0.5, -0.5]),
         np.full(4, 2.5e307), None),
    ]
    # a tie of +0.0 and -0.0 at the maximum, at the lengths where the reduce
    # takes the later zero (2) and the earlier one (9)
    for m in (2, 9):
        for signs in ([1.0] * (m - 1) + [-1.0], [-1.0] + [1.0] * (m - 1)):
            for c in (np.zeros(m), -np.zeros(m), np.where(np.arange(m) % 3, -0.0, 0.0)):
                cases.append((_signed_zero_pieces(signs, c), [0.0], None))
    rng = np.random.default_rng(25)
    for f in [random_instance(2, 4, seed=1).oracle.pieces, random_instance(8, 16, seed=2).oracle.pieces,
              two_step_worst_long(0.3).oracle.pieces, two_step_worst_small(0.05).oracle.pieces,
              long_step_instance(20, 0.4).oracle.pieces]:
        cases.append((f, np.zeros(f.dimension), None))
        cases += [(f, x, k) for k, x in enumerate(rng.standard_normal((20, f.dimension)), 1)]
    return cases


@pytest.mark.parametrize("B,R", [(1.0, 1.0), (2.0, 3.0)], ids=["unit", "B2-R3"])
def test_lean_oracle_query_is_the_reduce_formula_bit_for_bit(B, R):
    """``plmax_query`` finds the maximum and its piece with an ``argmax`` of
    its own buffer, which gives the first index of the maximum, then a scan
    of the pieces after it, and skips all-+0.0 intercepts; its answers and
    errors are those of the reduce and the active band, bit for bit.  The
    crafted points are dyadic, so R * x / R is x and each keeps its ties."""
    for f, x, k in _oracle_cases():
        x = R * np.array(x, dtype=np.float64)
        query = core.plmax_query(f, B, R)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _outcome(_formula_query, f, B, R, x, k)
            assert _outcome(query, x, k) == expected == _outcome(query, x, k), (f, x, k)


def test_unit_scale_binds_nothing_into_the_oracle():
    p = random_instance(4, 6, seed=2)
    assert scale_instance(p, 1.0, 1.0) is p
    assert p.oracle == PiecewiseOracle(p.oracle.pieces, 1.0, 1.0)


def test_piecewise_oracle_is_plain_data():
    unit = random_instance(3, 4, seed=0)
    f = unit.oracle.pieces
    assert type(unit.oracle) is PiecewiseOracle and (unit.oracle.B, unit.oracle.R) == (1.0, 1.0)
    scaled = scale_instance(unit, 2.0, 3.0).oracle
    assert type(scaled) is PiecewiseOracle and scaled.pieces is f
    assert (scaled.B, scaled.R) == (2.0, 3.0)
    x = np.array([0.3, -0.2, 0.5])
    for k in (None, 1, 4):
        assert _bits(scaled(x, k)) == _bits(eval_plmax(f, x, k, B=2.0, R=3.0))
        assert _bits(unit.oracle(x, k)) == _bits(eval_plmax(f, x, k))
    with pytest.raises(FrozenInstanceError):
        scaled.B = 1.0


def test_evaluate_and_run_give_one_message_for_a_norm_above_B():
    low_B = ProblemInstance(
        oracle=PiecewiseOracle(ABS_PIECES), projection=project_all, f_star=0.0, B=0.5,
        R=1.0, dimension=1, x_start=np.array([1.0]),
    )
    with pytest.raises(ValueError) as evaluated:
        low_B.evaluate(np.array([1.0]), 1)
    with pytest.raises(ValueError) as ran:
        run(low_B, StepSchedule.constant_normalized(0.1), N=3)
    message = "oracle returned a subgradient of norm 1.0, exceeding B=0.5"
    assert str(evaluated.value) == str(ran.value) == message


def test_project_all_returns_its_argument():
    y = np.array([1.0, -2.0])
    assert project_all(y) is y


def test_evaluate_accepts_a_list():
    p = random_instance(2, 4, seed=1)
    assert _bits(p.evaluate([0.1, 0.2])) == _bits(p.evaluate(np.array([0.1, 0.2])))


@pytest.mark.parametrize("scale", [None, (2.0, 3.0)], ids=["unit", "scaled"])
def test_run_copies_every_point_and_subgradient(scale):
    p = random_instance(3, 5, seed=8)
    if scale is not None:
        p = scale_instance(p, *scale)
    x1 = np.array([0.2, -0.1, 0.3]) * p.R
    before = x1.copy()
    trace = run(p, StepSchedule.constant_length(0.05), x1=x1, N=12)
    assert np.array_equal(x1, before)
    rows = list(trace.points)
    for i, row in enumerate(rows):
        assert not np.shares_memory(row, x1)
        assert not any(np.shares_memory(row, other) for other in rows[i + 1 :])
    assert not np.shares_memory(trace.subgradients, p.oracle.pieces.slopes)


@pytest.mark.parametrize("B", [1.0, 2.0], ids=["unit", "scaled"])
def test_oracle_answers_are_read_only(B):
    """A piecewise answer is the oracle's own row (a row of a read-only view
    of the slopes at B = 1), so a write into it raises and leaves the slopes
    as they were; the stacked ``trace.subgradients`` is a fresh, writable
    copy.  A scripted long-step run chooses a new piece at every iteration,
    so each of its answers is a memo miss.  The caller's slopes stay
    writable."""
    for unit, h, N in [(random_instance(3, 5, seed=8), 0.1, 6), (long_step_instance(20, 0.4), 0.4, 20)]:
        p = scale_instance(unit, B, 1.0)
        slopes = p.oracle.pieces.slopes
        before = slopes.copy()
        core.plmax_query(p.oracle.pieces, B)
        assert slopes.flags.writeable
        g = p.evaluate(p.x_start).subgradient
        with pytest.raises(ValueError, match="read-only"):
            g[0] = 5.0
        trace = run(p, StepSchedule.constant_normalized(h), N=N)
        if p.oracle.pieces.scripted_choices:
            assert len({id(answer) for answer in trace.answers}) == N + 1
        for answer in trace.answers:
            with pytest.raises(ValueError, match="read-only"):
                answer[0] = 5.0
        stacked = trace.subgradients
        stacked[:] = 5.0
        assert np.array_equal(slopes, before) and slopes.flags.writeable
        assert not (trace.subgradients == 5.0).any()


def test_pieces_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearMax(slopes=np.zeros((0, 2)), intercepts=np.zeros(0))
    with pytest.raises(ValueError):
        PiecewiseLinearMax(slopes=np.zeros((2, 2)), intercepts=np.zeros(3))
    with pytest.raises(ValueError):
        PiecewiseLinearMax(
            slopes=np.array([[1.0], [2.0]]),
            intercepts=np.zeros(2),
            scripted_choices={1: 5},
        )
    for key in (1.5, 0, -2, "1", None):
        with pytest.raises(ValueError, match=f"scripted iteration {key!r} is not an integer >= 1"):
            PiecewiseLinearMax(
                slopes=np.array([[1.0], [-1.0]]), intercepts=np.zeros(2),
                scripted_choices={1: 1, key: 1},
            )
    with pytest.raises(ValueError, match="at most two axes"):
        PiecewiseLinearMax(slopes=np.zeros((2, 2, 2)), intercepts=np.zeros(2))
    # 0-D and 1-D slopes are one piece
    assert PiecewiseLinearMax(slopes=2.0, intercepts=0.0).slopes.shape == (1, 1)
    assert PiecewiseLinearMax(slopes=np.ones(3), intercepts=[0.0]).slopes.shape == (1, 3)


def test_slope_norms_are_the_oracle_norms():
    """slope_norms is the norm an oracle answer carries, ``math.sqrt(r.dot(r))``
    of each row r, bit for bit; every B check reads it."""
    rng = np.random.default_rng(23)
    all_pieces = [long_step_instance(200, 0.3).oracle.pieces, ABS_PIECES]
    for m, d in [(1, 1), (3, 2), (16, 8), (40, 33), (7, 201)]:
        slopes = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-8, 8, size=(m, 1))
        all_pieces.append(PiecewiseLinearMax(slopes, np.zeros(m)))
        all_pieces.append(random_instance(d, m, seed=m).oracle.pieces)
    for pieces in all_pieces:
        reference = np.array([math.sqrt(r.dot(r)) for r in pieces.slopes])
        assert np.array_equal(pieces.slope_norms, reference)
        assert pieces.max_slope_norm() == float(np.max(reference))


def test_instance_defaults_from_pieces():
    p = instance_from_pieces(
        ABS_PIECES,
        f_star=0.0,
        x_star=np.zeros(1),
        x_start=np.array([1.0]),
        name="abs",
    )
    assert p.B == 1.0
    assert p.R == 1.0
    assert p.dimension == 1
    sample = p.evaluate(np.array([0.4]))
    assert sample.value == pytest.approx(0.4)


def test_evaluate_rejects_oversized_subgradient():
    def oracle(x, k=None):
        return SubgradientSample.of(float(x[0]), np.array([10.0]))

    from subgradlab import ProblemInstance

    p = ProblemInstance(
        oracle=oracle,
        projection=project_all,
        f_star=0.0,
        B=1.0,
        R=1.0,
        dimension=1,
    )
    with pytest.raises(ValueError):
        p.evaluate(np.array([0.5]))


def test_project_ball_frozen():
    proj = project_ball(np.zeros(2), 1.0)
    out = proj(np.array([3.0, 4.0]))
    assert np.allclose(out, [0.6, 0.8], atol=1e-15)
    inside = proj(np.array([0.1, -0.2]))
    assert np.allclose(inside, [0.1, -0.2])


def test_project_box():
    proj = project_box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    out = proj(np.array([5.0, -3.0]))
    assert np.allclose(out, [1.0, 0.0])


def test_scale_instance_requires_normalized_source():
    p = abs_instance(B=2.0, R=1.0)
    with pytest.raises(ValueError):
        scale_instance(p, 1.0, 1.0)


def test_scale_instance_maps_geometry():
    p = abs_instance()
    q = scale_instance(p, B=2.0, R=3.0)
    assert q.B == 2.0
    assert q.R == 3.0
    assert np.allclose(q.x_start, [3.0])
    sample = q.evaluate(np.array([1.5]))
    # f'(x) = B*R*f(x/R) = 6*|0.5| = 3, slope doubled
    assert sample.value == pytest.approx(3.0)
    assert sample.subgradient[0] == pytest.approx(2.0)


def test_scaled_run_builds_one_query_per_run(monkeypatch):
    q = scale_instance(random_instance(4, 6, seed=2), B=2.0, R=3.0)
    built, answers = [], []
    plmax_query = core.plmax_query

    def counting(*args, **kwargs):
        query = plmax_query(*args, **kwargs)
        built.append(query)

        def answer(x, k=None):
            answers.append(k)
            return query(x, k)

        return answer

    monkeypatch.setattr(core, "plmax_query", counting)
    trace = run(q, StepSchedule.constant_length(0.05), N=20)
    assert not trace.terminated_early
    assert len(built) == 1
    assert answers == list(range(1, trace.horizon + 2))
    assert type(q.oracle) is PiecewiseOracle


def test_scale_instance_rejects_other_oracles():
    # a hand-built partial of eval_plmax is a custom oracle like any other
    for oracle in (
        lambda x, k=None: SubgradientSample.of(float(x[0]), np.ones(1)),
        partial(eval_plmax, ABS_PIECES),
    ):
        p = ProblemInstance(
            oracle=oracle, projection=project_all, f_star=0.0, B=1.0, R=1.0, dimension=1,
        )
        with pytest.raises(ValueError, match="needs a piecewise-linear oracle"):
            scale_instance(p, 2.0, 3.0)


def test_scale_instance_composes_with_an_earlier_dilation():
    once = scale_instance(abs_instance(), 2.0, 3.0)
    twice = scale_instance(scale_instance(abs_instance(), 1.0, 1.0), 2.0, 3.0)
    assert (twice.oracle.B, twice.oracle.R) == (once.oracle.B, once.oracle.R) == (2.0, 3.0)
    a, b = twice.evaluate(np.array([1.5])), once.evaluate(np.array([1.5]))
    assert a.value == b.value
    assert np.array_equal(a.subgradient, b.subgradient)


@pytest.mark.parametrize(
    "unit, steps",
    [
        (long_step_instance(6, 0.4), [0.4] * 6),
        (two_step_worst_long(0.3), [TWO_STEP_FIRST, 0.3]),
    ],
    ids=["longstep", "two-step-long"],
)
def test_scaled_oracle_is_exactly_the_dilated_unit_oracle(unit, steps):
    B, R = 2.5, 0.75
    q = scale_instance(unit, B, R)
    trace = run(q, StepSchedule.custom([h * R / B for h in steps]), N=len(steps))
    assert not trace.terminated_early
    for k, y in enumerate(trace.points, start=1):
        scaled = q.evaluate(y, k)
        ref = unit.evaluate(y / R, k)
        assert scaled.value == B * R * ref.value
        assert np.array_equal(scaled.subgradient, B * ref.subgradient)
        assert scaled.norm == B * ref.norm


@pytest.mark.parametrize(
    "unit",
    [
        abs_instance(),
        long_step_instance(6, 0.4),
        two_step_worst_small(0.05),
        two_step_worst_long(0.3),
        random_instance(4, 6, seed=2),
    ],
    ids=["abs", "longstep", "two-step-small", "two-step-long", "random"],
)
def test_scaled_whole_space_keeps_project_all(unit):
    assert unit.projection is project_all
    assert scale_instance(unit, 2.0, 3.0).projection is project_all


def test_scaled_ball_projection_is_the_dilated_unit_projection():
    ball = project_ball(np.zeros(3), 1.0)
    unit = instance_from_pieces(
        PiecewiseLinearMax(np.eye(3), np.zeros(3)),
        f_star=-1.0 / np.sqrt(3.0),
        x_star=-np.ones(3) / np.sqrt(3.0),
        x_start=np.zeros(3),
        projection=ball,
    )
    q = scale_instance(unit, 2.0, 3.0)
    assert q.projection is not ball
    for y in np.random.default_rng(6).standard_normal((50, 3)) * 5.0:
        assert np.array_equal(q.projection(y), 3.0 * ball(y / 3.0))


def test_check_instance_passes_on_generators():
    check_instance(abs_instance(), pairs=200, seed=3)
    check_instance(random_instance(4, 6, seed=11), pairs=200, seed=3)


def test_check_instance_catches_concavity():
    def bad_oracle(x, k=None):
        v = -float(x[0] ** 2)
        return SubgradientSample.of(v, np.array([-2.0 * float(x[0])]))

    from subgradlab import ProblemInstance

    p = ProblemInstance(
        oracle=bad_oracle,
        projection=project_all,
        f_star=-100.0,
        B=1000.0,
        R=1.0,
        dimension=1,
    )
    with pytest.raises(ValueError):
        check_instance(p, pairs=200, seed=0)


def test_rounding_tolerances_give_one_verdict_at_any_scale():
    """``check_instance``'s floor and the gaps' clamp scale with B * R, also
    below 1: an f_star declared 5e-12 above the true minimum 0 is refused,
    and one 5e-13 above is taken as rounding, unit and at B = R = 1e-3."""
    from subgradlab import best_gap, last_gap

    flat = PiecewiseLinearMax([[1.0], [-1.0], [0.0]], [-1.0, -1.0, 0.0])  # 0 on [-1, 1]
    for excess, refused in [(5e-12, True), (5e-13, False)]:
        unit = instance_from_pieces(flat, f_star=excess, x_star=[0.0], x_start=[1.0], B=1.0, R=1.0)
        for B, R in [(1.0, 1.0), (1e-3, 1e-3)]:
            p = scale_instance(unit, B, R)
            trace = run(p, StepSchedule.constant_normalized(0.5), N=3)
            for check in (partial(check_instance, p, 100), partial(last_gap, trace, p),
                          partial(best_gap, trace, p)):
                try:
                    check()
                    verdict = False
                except ValueError:
                    verdict = True
                assert verdict == refused, (excess, B, R, check.func.__name__)


finite_points = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=6).map(lambda d: (d,)),
    elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
)


@given(y=finite_points, r=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=100, deadline=None)
def test_ball_projection_idempotent_and_feasible(y, r):
    proj = project_ball(np.zeros(y.shape), r)
    z = proj(y)
    assert np.linalg.norm(z) <= r * (1 + 1e-12)
    assert np.allclose(proj(z), z, atol=1e-12)


@given(
    a=st.floats(min_value=-3, max_value=3),
    b=st.floats(min_value=-3, max_value=3),
    lam=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_plmax_convex_on_chords(a, b, lam):
    pieces = PiecewiseLinearMax(
        slopes=np.array([[1.0], [-0.5], [2.0]]),
        intercepts=np.array([0.0, 1.0, -0.5]),
    )
    xa, xb = np.array([a]), np.array([b])
    mid = lam * xa + (1 - lam) * xb
    fa = eval_plmax(pieces, xa).value
    fb = eval_plmax(pieces, xb).value
    fm = eval_plmax(pieces, mid).value
    assert fm <= lam * fa + (1 - lam) * fb + 1e-9


@given(y=finite_points)
@settings(max_examples=60, deadline=None)
def test_subgradient_inequality_random_points(y):
    pieces = PiecewiseLinearMax(
        slopes=np.array([[0.3], [-1.0], [0.9]]),
        intercepts=np.array([0.2, 0.0, -1.0]),
    )
    x = np.array([0.37])
    base = eval_plmax(pieces, x)
    other = eval_plmax(pieces, np.array([float(y[0])])).value
    gap = other - base.value - float(base.subgradient @ (np.array([float(y[0])]) - x))
    assert gap >= -1e-9
