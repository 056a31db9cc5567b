import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgradlab import (
    StepOutOfRange,
    StepSchedule,
    StepTooSmall,
    check_instance,
    constant_step_rate,
    last_gap,
    run,
    two_step_worst_gap,
)
from subgradlab.rates import TWO_STEP_FIRST, TWO_STEP_KNEE
from subgradlab.sequences import s
from subgradlab.worstcase import (
    METHODS,
    Cell,
    abs_instance,
    cell,
    cell_instance,
    long_step_instance,
    random_instance,
    tightness_report,
    two_step_schedule,
    two_step_worst_long,
    two_step_worst_small,
)


def test_abs_instance_basics():
    p = abs_instance()
    assert p.f_star == 0.0
    assert p.B == 1.0 and p.R == 1.0
    assert p.evaluate(np.array([0.4])).value == pytest.approx(0.4)
    assert p.evaluate(np.array([-0.4])).value == pytest.approx(0.4)
    check_instance(p, pairs=100, seed=1)


def test_abs_attains_short_step_rate():
    for N in (1, 3, 8):
        knee = 1.0 / s(1.0, N + 1) ** 2
        for h in (0.3 * knee, knee):
            p = abs_instance()
            trace = run(p, StepSchedule.constant_normalized(h), N=N)
            assert last_gap(trace, p) == pytest.approx(
                constant_step_rate(N, h), abs=1e-12
            )


def test_long_step_instance_rejects_short_steps():
    with pytest.raises(StepTooSmall):
        long_step_instance(3, 1.0 / s(1.0, 4) ** 2)


def test_long_step_instance_geometry():
    N, h = 4, 0.3
    p = long_step_instance(N, h)
    assert p.B == 1.0 and p.R == 1.0
    assert p.dimension == N + 1
    assert np.linalg.norm(p.x_start) == pytest.approx(1.0, abs=1e-15)
    assert p.evaluate(np.zeros(p.dimension)).value == pytest.approx(0.0, abs=1e-12)
    assert p.f_star == 0.0


def test_long_step_instance_attains_rate():
    for N, h in ((1, 0.5), (2, 0.3), (5, 0.3), (7, 0.123)):
        p = long_step_instance(N, h)
        trace = run(p, StepSchedule.constant_normalized(h), N=N)
        assert last_gap(trace, p) == pytest.approx(
            constant_step_rate(N, h), abs=1e-9
        )


def test_long_step_unscripted_still_respects_bound():
    N, h = 4, 0.28
    p = long_step_instance(N, h, scripted=False)
    trace = run(p, StepSchedule.constant_normalized(h), N=N)
    assert last_gap(trace, p) <= constant_step_rate(N, h) + 1e-9
    check_instance(p, pairs=100, seed=2)


def test_two_step_small_frozen():
    h2 = 0.05
    p = two_step_worst_small(h2)
    trace = run(p, two_step_schedule(h2), N=2)
    assert last_gap(trace, p) == pytest.approx(
        1.0 / math.sqrt(2.0) - h2, abs=1e-12
    )


def test_two_step_long_frozen():
    p = two_step_worst_long(0.2)
    trace = run(p, two_step_schedule(0.2), N=2)
    assert last_gap(trace, p) == pytest.approx(0.5787219649177293, abs=1e-12)


def test_two_step_domains():
    with pytest.raises(StepOutOfRange):
        two_step_worst_small(TWO_STEP_KNEE * 1.01)
    with pytest.raises(StepOutOfRange):
        two_step_worst_long(TWO_STEP_KNEE)
    with pytest.raises(StepOutOfRange):
        two_step_worst_small(0.0)


def test_two_step_instances_attain_gap_curve():
    for h2 in (0.01, 0.05, TWO_STEP_KNEE, 0.13, 0.19428, 0.35, 1.2):
        make = two_step_worst_small if h2 <= TWO_STEP_KNEE else two_step_worst_long
        p = make(h2)
        trace = run(p, two_step_schedule(h2), N=2)
        assert last_gap(trace, p) == pytest.approx(
            two_step_worst_gap(h2), abs=1e-10
        )


def test_two_step_instances_are_honest():
    check_instance(two_step_worst_small(0.05, scripted=False), pairs=100, seed=3)
    check_instance(two_step_worst_long(0.3, scripted=False), pairs=100, seed=3)


def test_random_instance_normalization():
    p = random_instance(4, 6, seed=123)
    assert p.B == 1.0 and p.R == 1.0
    assert np.linalg.norm(p.x_start) == pytest.approx(1.0, abs=1e-12)
    assert p.evaluate(np.zeros(4)).value == pytest.approx(0.0, abs=1e-15)
    assert p.f_star == 0.0
    check_instance(p, pairs=100, seed=4)


def test_random_instance_minimum_is_genuine():
    # antipodal slope pairs make f(x) = max_i |<xi_i, x>| >= 0 everywhere
    p = random_instance(3, 5, seed=7)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(3)
        assert p.evaluate(x).value >= 0.0


def test_random_instance_deterministic():
    a = random_instance(5, 4, seed=99)
    b = random_instance(5, 4, seed=99)
    x = np.full(5, 0.3)
    assert a.evaluate(x).value == b.evaluate(x).value
    assert np.array_equal(a.x_start, b.x_start)


def _reference_random_pieces(dimension, directions, seed):
    """``random_instance``'s draws written with numpy's Python-level
    functions: the slopes with their antipodes, and the start."""
    rng = np.random.default_rng(seed)
    while True:  # a row of norm below 1e-12 draws the rows and the start again
        slopes = rng.standard_normal((directions, dimension))
        x_start = rng.standard_normal(dimension)
        norms = np.linalg.norm(slopes, axis=1)
        if not np.any(norms < 1e-12):
            break
    slopes /= norms[:, None]
    x_start /= np.linalg.norm(x_start)
    return np.vstack([slopes, -slopes]), x_start


@pytest.mark.parametrize("dim", range(1, 9))
def test_random_instance_matches_reference_draws(dim):
    for directions in (1, 2, dim, 2 * dim + 3):
        for seed in range(10):
            p = random_instance(dim, directions, seed=[seed, dim])
            slopes, x_start = _reference_random_pieces(dim, directions, [seed, dim])
            assert np.array_equal(p.oracle.pieces.slopes, slopes)
            assert np.array_equal(p.x_start, x_start)
            assert (p.B, p.R) == (1.0, 1.0)


def test_tightness_report_labels():
    knee = 1.0 / s(1.0, 4) ** 2
    short = tightness_report(3, knee * 0.5)
    assert short.regime == "short_step"
    assert short.slack == pytest.approx(0.0, abs=1e-9)
    longr = tightness_report(3, knee * 2.0)
    assert longr.regime == "long_step"
    assert longr.slack == pytest.approx(0.0, abs=1e-9)


@given(
    N=st.integers(min_value=1, max_value=10),
    factor=st.floats(min_value=1.05, max_value=12.0),
)
@settings(max_examples=60, deadline=None)
def test_long_step_tightness_property(N, factor):
    h = factor / s(1.0, N + 1) ** 2
    p = long_step_instance(N, h)
    trace = run(p, StepSchedule.constant_normalized(h), N=N)
    assert last_gap(trace, p) == pytest.approx(constant_step_rate(N, h), abs=1e-9)


@given(
    dim=st.integers(min_value=2, max_value=8),
    m=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=50, deadline=None)
def test_random_instances_well_formed(dim, m, seed):
    p = random_instance(dim, m, seed=seed)
    assert p.dimension == dim
    sample = p.evaluate(p.x_start)
    assert np.linalg.norm(sample.subgradient) <= 1.0 + 1e-12
    assert sample.value >= 0.0


def _reference_long_step_slopes(N, h):
    """The long-step slopes built entry by entry with scalar loops, as the
    construction was first written; the array build must match it bit for bit."""
    sN1 = s(1.0, N + 1)
    lead = 1.0 / (h * sN1**2)
    root = math.sqrt(1.0 - lead * lead)
    gammas = np.ones(N)
    for k in range(2, N + 1):
        gammas[k - 1] = gammas[k - 2] * math.sqrt(1.0 - 1.0 / s(1.0, N + 2 - k) ** 4)
    xi = np.zeros((N + 1, N + 1))
    for k in range(1, N + 1):
        xi[k - 1, 0] = lead
        for i in range(2, k + 1):
            xi[k - 1, i - 1] = root * gammas[i - 2] / s(1.0, N + 2 - i) ** 2
        xi[k - 1, k] = -root * gammas[k - 1]
    xi[N] = xi[N - 1]
    xi[N, N] = root * gammas[N - 1]
    return np.vstack([np.zeros(N + 1), xi])


@pytest.mark.parametrize("N", [*range(1, 41), 100, 200])
def test_long_step_slopes_match_scalar_reference(N):
    knee = 1.0 / s(1.0, N + 1) ** 2
    for h in (knee * 1.0001, knee * 1.7, knee * 9.3, 0.37, 2.5):  # knee <= 1/4
        expected = _reference_long_step_slopes(N, h)
        for scripted in (True, False):
            pieces = long_step_instance(N, h, scripted=scripted).oracle.pieces
            assert np.array_equal(pieces.slopes, expected)
            assert np.array_equal(pieces.intercepts, np.zeros(N + 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: long_step_instance(5, None),
        lambda: constant_step_rate(5, None),
        lambda: two_step_worst_small(None),
        lambda: two_step_worst_long(None),
        lambda: cell_instance("longstep", 5, None, "constant"),
    ],
    ids=["long_step_instance", "constant_step_rate", "two_step_worst_small",
         "two_step_worst_long", "cell_instance-longstep"],
)
def test_a_missing_step_raises_a_typed_error(call):
    with pytest.raises(StepOutOfRange, match="got None$"):
        call()


# --- cells as library calls, against the CLI's golden rows ------------------------

GOLDEN = Path(__file__).parent / "golden"


def _golden_rows(name):
    with open(GOLDEN / name, newline="") as f:
        return list(csv.DictReader(f))


def _fields(measured, row):
    """The measured columns that ``row`` has, as the CLI's CSV prints them."""
    return {k: "" if v is None else repr(v) for k, v in measured._asdict().items() if k in row}


def test_sweep_cells_are_library_calls():
    """Every cell of the scaled worst-case sweep, built by ``cell_instance``
    and measured by ``cell`` without argv, gives the golden row's fields."""
    rows = _golden_rows("sweep_worstcase_constant_scaled.csv")
    assert len(rows) == 4 * 30
    for row in rows:
        N, h = int(row["N"]), float(row["h"])
        p = cell_instance("worstcase", N, h, "constant", 2.0, 0.5)
        measured = cell(p, "constant", N, h, METHODS["constant"].schedule(N, h))
        assert (repr(p.B), repr(p.R)) == (row["B"], row["R"])
        assert _fields(measured, row) == {k: row[k] for k in Cell._fields}


def test_a_run_cell_is_a_library_call():
    """``run --instance lemma-ii --method custom --N 2 --h2 0.3 --B 2 --R 3``:
    the canonical two-step schedule at (B, R), on the scripted instance."""
    (row,) = _golden_rows("run_lemma_ii_custom_scaled.csv")
    B, R, h2 = 2.0, 3.0, 0.3
    p = cell_instance("lemma-ii", 2, None, "custom", B, R, h2=h2)
    schedule = METHODS["custom"].schedule(2, [TWO_STEP_FIRST * R / B, h2 * R / B])
    measured = cell(p, "custom", 2, None, schedule)
    assert measured.bound_log is None and "bound_log" not in row
    assert _fields(measured, row) == {k: row[k] for k in Cell._fields[:-1]}
