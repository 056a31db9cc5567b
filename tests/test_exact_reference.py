"""The recursion and the closed-form rates against 50-digit decimal arithmetic.

Every other test of s_k and of the rates compares float code with float
code.  Here the same formulas are evaluated with stdlib ``decimal`` at 50
significant digits, so the reference carries no float rounding, and each
float result must sit within a stated relative error of it:

* s_{1,k} and the knee 1/s_{N+1}^2: 1e-14;
* ``constant_step_rate`` (both branches), the optimal constant-step
  rate, and the last gap the short-step and long-step worst cases attain
  (``tightness_report``): 16 (N + 1) max(1, h) units of 2^-52.  Each of
  the N recursion steps may add a rounding of s_k, and the long-step
  branch multiplies that error by about h;
* the last gap the two-step worst cases attain against
  ``two_step_worst_gap``: 16 units of 2^-52;
* ``best_iterate_bound`` on realized steps: 16 (N + 1) units of 2^-52,
  on the golden long-step sweep, at (B, R) as far apart as 1e100 and
  1e-100, where squaring h_k alone under- or overflowed, and at steps of
  1e308, where (B h_k)^2 and the sum of the steps overflowed;
* the last gap of the optimal schedules and of a constant step on the
  lower-bound witness against B R / sqrt(N + 1): 16 (N + 1) units of 2^-52;
* both sides of ``verify_lemma`` against ``Fraction`` arithmetic on the same
  float inputs, on the instances where the inequality is an equality: the
  float slack within 8 u sum|terms| (u = 2^-53) of the exact one and of 0;
* the combination coefficients c_k of the two weight builders, derived at
  50 digits from the builders' defining formulas and the schedules' steps:
  ``coefficients`` within 4 (N + 1) u sum|terms| of them, and
  ``alpha_family_bound`` within 16 (N + 1) max(1, h) units of 2^-52 of the
  bound the derived coefficients give.
"""

import csv
import decimal
import math
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from subgradlab import (
    PiecewiseLinearMax,
    StepSchedule,
    alpha_family_bound,
    best_iterate_bound,
    coefficients,
    constant_step_rate,
    constant_step_weights,
    instance_from_pieces,
    iter_s,
    last_gap,
    matching_alpha,
    optimal_constant_step,
    optimal_step_weights,
    project_ball,
    run,
    s,
    scale_instance,
    tightness_report,
    verify_lemma,
)
from subgradlab.rates import TWO_STEP_KNEE, knee
from subgradlab.worstcase import (
    abs_instance,
    long_step_instance,
    random_instance,
    two_step_schedule,
    two_step_worst_long,
    two_step_worst_small,
)

K_MAX = 20_001
N_VALUES = [1, 2, 3, 5, 10, 20, 50, 100, 150, 200, 1000, 5000, 10_000, 20_000]
H_VALUES = [1e-5, 1e-3, 0.01, 0.02, 0.05, 0.1, 0.3, 0.6, 1.0, 2.0, 5.0]
TIGHT_H = [0.01, 0.02, 0.05, 0.1, 0.3, 0.6, 1.0, 2.0]
H2_VALUES = [0.001, 0.01, 0.05, TWO_STEP_KNEE, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 5.0]
EPS = 2.0 ** -52

CONTEXT = decimal.Context(prec=50)


@pytest.fixture(scope="module")
def exact_s():
    """s_{1,1} .. s_{1,K_MAX} at 50 digits; ``exact_s[k - 1]`` is s_{1,k}."""
    values = [Decimal(1)]
    with decimal.localcontext(CONTEXT):
        for _ in range(K_MAX - 1):
            values.append(values[-1] + 1 / values[-1])
    return values


def rel_err(approx: float, exact: Decimal) -> float:
    with decimal.localcontext(CONTEXT):
        return float(abs(Decimal(approx) - exact) / abs(exact))


def exact_rate(s2: Decimal, N: int, h: float) -> Decimal:
    """The two branches of ``constant_step_rate``, split at the exact knee."""
    h = Decimal(h)
    with decimal.localcontext(CONTEXT):
        if h <= 1 / s2:
            return 1 - N * h
        return (s2 / 2 - N) * h + 1 / (2 * s2 * h)


def test_unit_sequence(exact_s):
    floats = list(islice(iter_s(1.0), K_MAX))
    assert max(rel_err(f, e) for f, e in zip(floats, exact_s)) < 1e-14
    for k in (1, 2, 7, 100, 1234, K_MAX):
        assert s(1.0, k) == floats[k - 1]


def test_knee(exact_s):
    for N in sorted(set(range(1, 201)) | set(N_VALUES)):
        with decimal.localcontext(CONTEXT):
            exact = 1 / exact_s[N] ** 2
        assert rel_err(knee(N), exact) < 1e-14, N


@pytest.mark.parametrize("N", N_VALUES)
def test_constant_step_rate_both_branches(exact_s, N):
    with decimal.localcontext(CONTEXT):
        s2 = exact_s[N] ** 2
        branches = {Decimal(h) <= 1 / s2 for h in H_VALUES}
    assert branches == {True, False}  # h = 1e-5 lies below every knee here
    for h in H_VALUES:
        err = rel_err(constant_step_rate(N, h), exact_rate(s2, N, h))
        assert err < 16 * (N + 1) * max(1.0, h) * EPS, (N, h, err)


def exact_two_step_gap(h2: float) -> Decimal:
    """The two branches of ``two_step_worst_gap``, split where the worst-case
    instances split (the branches meet at the knee)."""
    short = h2 <= TWO_STEP_KNEE
    h2 = Decimal(h2)
    with decimal.localcontext(CONTEXT):
        sqrt2 = Decimal(2).sqrt()
        if short:
            return 1 / sqrt2 - h2
        return h2 + 1 / (64 * h2) + 16 * h2 / (1 + 8 * sqrt2 * h2) ** 2


@pytest.mark.parametrize("N", N_VALUES)
def test_optimal_constant_step_rate(exact_s, N):
    with decimal.localcontext(CONTEXT):
        exact = (1 - 2 * N / exact_s[N] ** 2).sqrt()
    err = rel_err(optimal_constant_step(N).rate, exact)
    assert err < 16 * (N + 1) * EPS, (N, err)


def test_worst_cases_attain_the_exact_rate(exact_s):
    for N in [N for N in N_VALUES if N <= 200]:
        with decimal.localcontext(CONTEXT):
            s2 = exact_s[N] ** 2
        for h in TIGHT_H:
            err = rel_err(tightness_report(N, h).observed_gap, exact_rate(s2, N, h))
            assert err < 16 * (N + 1) * max(1.0, h) * EPS, (N, h, err)


def test_length_worst_cases_attain_the_exact_rate(exact_s):
    """Steps of constant length t on the instance ``sweep --instance worstcase
    --method length`` builds: |x| at or below the knee, the scripted
    long-step instance past it."""
    for N in [N for N in N_VALUES if N <= 200]:
        with decimal.localcontext(CONTEXT):
            s2 = exact_s[N] ** 2
        for t in TIGHT_H:
            p = abs_instance() if t <= knee(N) else long_step_instance(N, t)
            gap = last_gap(run(p, StepSchedule.constant_length(t), N=N), p)
            err = rel_err(gap, exact_rate(s2, N, t))
            assert err < 16 * (N + 1) * max(1.0, t) * EPS, (N, t, err)


def test_two_step_worst_cases_attain_the_exact_gap():
    for h2 in H2_VALUES:
        make = two_step_worst_small if h2 <= TWO_STEP_KNEE else two_step_worst_long
        p = make(h2)
        gap = last_gap(run(p, two_step_schedule(h2), N=2), p)
        err = rel_err(gap, exact_two_step_gap(h2))
        assert err < 16 * EPS, (h2, err)


def lower_bound_witness(N: int):
    """f(x) = max_i x_i on the unit ball in R^(N+1), from x^1 = 0, with
    x* = -1 / sqrt(N + 1) and f* = -1 / sqrt(N + 1) (Nesterov 2004,
    Thm 3.2.1).  The oracle answers e_i for the last active coordinate i,
    so after N steps along its answers x^(N+1) has a zero coordinate and
    f(x^(N+1)) >= 0: the last gap is at least the optimal rate
    1 / sqrt(N + 1)."""
    n = N + 1
    return instance_from_pieces(
        PiecewiseLinearMax(np.eye(n), np.zeros(n)), f_star=-1.0 / math.sqrt(n),
        x_star=-np.ones(n) / math.sqrt(n), x_start=np.zeros(n), B=1.0, R=1.0,
        projection=project_ball(np.zeros(n), 1.0),
    )


@pytest.mark.parametrize("N", [1, 5, 50, 500])
@pytest.mark.parametrize("B, R", [(1.0, 1.0), (2.0, 0.5), (1e3, 1e-3)])
def test_the_lower_bound_is_attained(N, B, R):
    """The optimal schedules, and a constant step, end exactly at the lower
    bound B R / sqrt(N + 1) on the witness: the optimal rate is attained."""
    p = scale_instance(lower_bound_witness(N), B, R)
    with decimal.localcontext(CONTEXT):
        exact = Decimal(B) * Decimal(R) / Decimal(N + 1).sqrt()
    for schedule in (
        StepSchedule.optimal_last_iterate(N),
        StepSchedule.optimal_length(N),
        StepSchedule.constant_normalized(0.1),
    ):
        trace = run(p, schedule, N=N)
        assert not trace.terminated_early
        err = rel_err(last_gap(trace, p), exact)
        assert err <= 16 * (N + 1) * EPS, (schedule, err)


def exact_best_iterate_bound(h, B: float, R: float) -> Decimal:
    """(R^2 + B^2 sum h_k^2) / (2 sum h_k) on the float inputs, at 50 digits."""
    with decimal.localcontext(CONTEXT):
        h = [Decimal(float(x)) for x in h]
        B, R = Decimal(B), Decimal(R)
        return (R * R + B * B * sum(x * x for x in h)) / (2 * sum(h))


def _extended_steps(p, schedule, N):
    steps = run(p, schedule, N=N).steps
    return np.append(steps, steps[-1])  # as the CLI extends them


def test_best_iterate_bound_golden_rows_against_exact():
    """Every ``bound_best`` of the long-step length sweep at B = 0.7, R = 1.3
    is the bound on that row's realized steps, within 16 (N + 1) units of
    2^-52 of its exact value."""
    path = Path(__file__).parent / "golden" / "sweep_longstep_length_scaled.csv"
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert rows
    for row in rows:
        N, t, B, R = int(row["N"]), float(row["h"]), float(row["B"]), float(row["R"])
        p = scale_instance(long_step_instance(N, t), B, R)  # scripted, as the CLI builds it
        h = _extended_steps(p, StepSchedule.constant_length(t), N)
        bound = best_iterate_bound(h, B, R)
        assert bound == float(row["bound_best"]), row
        err = rel_err(bound, exact_best_iterate_bound(h, B, R))
        assert err < 16 * (N + 1) * EPS, (row, err)


@pytest.mark.parametrize(
    "method, B, R",
    [("length", 1e100, 1e-100), ("optimal", 1e-80, 1e80)],
)
def test_best_iterate_bound_at_extreme_scales(method, B, R):
    """At (B, R) far from 1 the bound stays within 16 (N + 1) units of 2^-52
    of the exact value, where squaring h_k alone under- or overflows."""
    N = 50
    p = scale_instance(random_instance(4, 6, seed=0), B, R)
    schedule = (
        StepSchedule.constant_length(2.0)
        if method == "length"
        else StepSchedule.optimal_last_iterate(N)
    )
    h = _extended_steps(p, schedule, N)
    err = rel_err(best_iterate_bound(h, B, R), exact_best_iterate_bound(h, B, R))
    assert err < 16 * (N + 1) * EPS, err


@pytest.mark.parametrize(
    "h, B, R",
    [(1e308, 1.0, 1.0), (1e307, 1.0, 1.0), (1.5e308, 1.5, 1.0), (1e-300, 1.0, 1.0)],
)
def test_best_iterate_bound_at_extreme_steps(h, B, R):
    """Six steps of h: at h = 1e308 the bound read NaN, at 1e307 inf; at
    B = 1.5, h = 1.5e308 the product B h overflows, the bound does not."""
    steps = [h] * 6
    err = rel_err(best_iterate_bound(steps, B, R), exact_best_iterate_bound(steps, B, R))
    assert err < 16 * 6 * EPS, err


def exact_lemma(trace, w, x_hat, f_hat):
    """``verify_lemma``'s lhs and rhs in ``Fraction`` arithmetic on its float
    inputs, and the sum of the absolute values of their terms: for each k,
    |f(x^k) - f_hat| (h_k v_k^2 + |v_k - v_{k-1}| sum_{i>=k} h_i v_i), and
    each term of the right side."""
    F = Fraction
    h = [F(x) for x in trace.steps] + [F(w.h_last)]
    v = [F(x) for x in w.v]
    n = len(h)
    suffix = [F(0)] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix[k] = suffix[k + 1] + h[k] * v[k + 1]
    gaps = [F(x) - F(f_hat) for x in trace.values]
    lhs = sum(((h[k] * v[k + 1] ** 2 - (v[k + 1] - v[k]) * suffix[k]) * gaps[k]
               for k in range(n)), F(0))
    g2 = [sum((F(a) ** 2 for a in row), F(0)) for row in trace.subgradients]
    d2 = sum(((F(a) - F(b)) ** 2 for a, b in zip(trace.points[0], x_hat)), F(0))
    right = [v[0] ** 2 * d2 / 2] + [h[k] ** 2 * v[k + 1] ** 2 * g2[k] / 2 for k in range(n)]
    size = sum(abs(gaps[k]) * (h[k] * v[k + 1] ** 2 + abs(v[k + 1] - v[k]) * suffix[k])
               for k in range(n)) + sum(right)
    return lhs, sum(right, F(0)), size


@pytest.mark.parametrize(
    "family, N, h",
    [("abs", 5, 0.05), ("abs", 20, 0.01), ("abs", 50, 0.005), ("abs", 200, 0.002),
     ("longstep", 5, 0.3), ("longstep", 20, 0.2), ("longstep", 50, 0.3), ("longstep", 150, 0.5),
     ("lowerbound", 1, None), ("lowerbound", 5, None), ("lowerbound", 20, None),
     ("lowerbound", 50, None), ("lowerbound", 150, None)],
)
def test_lemma_is_an_equality_where_the_rate_is_tight(family, N, h):
    """On |x| with the matching-seed weights, on the long-step instance with
    alpha = 1, and on the lower-bound witness with the optimal schedule and
    its weights, c_1 .. c_N vanish and the inequality holds with equality,
    so a wrong or missing term shows as slack: the float slack must lie
    within 8 u sum|terms| of the exact slack on the same inputs and of 0
    (measured: at most 0.8 u sum|terms| on the first two families and
    1.3 u sum|terms| on the witness)."""
    if family == "abs":
        p, w = abs_instance(), constant_step_weights(N, matching_alpha(N, h), h)
    elif family == "longstep":
        p, w = long_step_instance(N, h), constant_step_weights(N, 1.0, h)
    else:
        p, w = lower_bound_witness(N), optimal_step_weights(N)
    if h is None:
        schedule = StepSchedule.optimal_last_iterate(N)
    else:
        schedule = StepSchedule.constant_normalized(h)
    trace = run(p, schedule, N=N)
    check = verify_lemma(trace, p, w, p.x_star)
    lhs, rhs, size = exact_lemma(trace, w, p.x_star, p.evaluate(p.x_star).value)
    budget = 8 * (EPS / 2) * float(size)
    assert abs(check.lhs - lhs) <= budget and abs(check.rhs - rhs) <= budget
    assert abs(check.slack - float(rhs - lhs)) <= budget
    assert abs(check.slack) <= budget, (check.slack, budget)


def exact_coefficients(h, v):
    """c_1 .. c_{N+1} at 50 digits from the steps h_1 .. h_{N+1} and the
    weights v_0 .. v_{N+1}, c_k = h_k v_k^2 - (v_k - v_{k-1}) sum_{i>=k} h_i v_i;
    the sum of the absolute values of each c_k's terms; and the right side
    at ||x^1 - x_hat|| = ||g^k|| = 1, v_0^2 / 2 + sum_k h_k^2 v_k^2 / 2."""
    n = len(h)
    with decimal.localcontext(CONTEXT):
        suffix = [Decimal(0)] * (n + 1)
        for k in range(n - 1, -1, -1):
            suffix[k] = suffix[k + 1] + h[k] * v[k + 1]
        c = [h[k] * v[k + 1] ** 2 - (v[k + 1] - v[k]) * suffix[k] for k in range(n)]
        size = [h[k] * v[k + 1] ** 2 + abs(v[k + 1] - v[k]) * suffix[k] for k in range(n)]
        rhs = v[0] ** 2 / 2 + sum(h[k] ** 2 * v[k + 1] ** 2 for k in range(n)) / 2
    return c, size, rhs


def assert_coefficients_within_budget(w, steps, c, size):
    N = len(steps)
    floats = coefficients(w, steps)
    for k in range(N + 1):
        assert abs(Decimal(floats[k]) - c[k]) <= Decimal(4 * (N + 1) * EPS / 2) * size[k], k


@pytest.mark.parametrize("N", [1, 5, 20, 150])
def test_optimal_step_weights_are_derived_not_restated(N):
    """``optimal_step_weights``' defining formula, v_k = (N+1)^(3/4) / (N+1-k)
    (k <= N), v_(N+1) = v_N and h_(N+1) = 1 / (N+1)^(3/2), with the optimal
    schedule's steps h_k = (N+1-k) / (N+1)^(3/2), gives c_1 .. c_N = 0,
    c_(N+1) = 1 and the right side 1 / sqrt(N+1) at 50 digits, so the
    inequality bounds the last gap by the optimal rate.  The float
    coefficients on the steps a run realized agree within the budget."""
    with decimal.localcontext(CONTEXT):
        m = Decimal(N + 1)
        v = [m.sqrt() * m.sqrt().sqrt() / (N + 1 - k) for k in range(N + 1)]
        v.append(v[N])
        h = [(N + 1 - k) / (m * m.sqrt()) for k in range(1, N + 2)]
        h[N] = 1 / (m * m.sqrt())
        c, size, rhs = exact_coefficients(h, v)
        assert all(abs(c[k]) <= Decimal("1e-45") * size[k] for k in range(N))
        assert abs(c[N] - 1) <= Decimal("1e-45")
        assert abs(rhs - 1 / m.sqrt()) <= Decimal("1e-45")
    trace = run(lower_bound_witness(N), StepSchedule.optimal_last_iterate(N), N=N)
    assert_coefficients_within_budget(optimal_step_weights(N), trace.steps, c, size)


@pytest.mark.parametrize("N", [1, 5, 20, 150])
@pytest.mark.parametrize("alpha", [1.0, 2.5])
@pytest.mark.parametrize("h", [0.01, 0.3])
def test_constant_step_weights_are_derived_not_restated(N, alpha, h):
    """``constant_step_weights``' defining formula, v_k = 1 / s_(alpha,N+1-k)
    (k <= N), v_(N+1) = alpha and h_(N+1) = h, with the constant steps h,
    gives c_1 .. c_N = 0 and c_(N+1) = h at 50 digits, and the right side
    over c_(N+1) is the alpha-family bound
    (s_(alpha,N+1) sqrt(h) - 1 / (s_(alpha,N+1) sqrt(h)))^2 / 2 + 1 - N h.
    The float coefficients on the steps a run realized, and the float
    ``alpha_family_bound``, agree within their budgets."""
    with decimal.localcontext(CONTEXT):
        seq = [Decimal(alpha)]  # s_(alpha,1) .. s_(alpha,N+1)
        for _ in range(N):
            seq.append(seq[-1] + 1 / seq[-1])
        v = [1 / seq[N - k] for k in range(N + 1)] + [Decimal(alpha)]
        c, size, rhs = exact_coefficients([Decimal(h)] * (N + 1), v)
        assert all(abs(c[k]) <= Decimal("1e-45") * size[k] for k in range(N))
        assert abs(c[N] - Decimal(h)) <= Decimal("1e-45")
        z = seq[N] * Decimal(h).sqrt()
        bound = (z - 1 / z) ** 2 / 2 + 1 - N * Decimal(h)
        assert abs(rhs / c[N] - bound) <= Decimal("1e-40") * bound
    trace = run(abs_instance(), StepSchedule.constant_normalized(h), N=N)
    assert (trace.steps == h).all()
    assert_coefficients_within_budget(constant_step_weights(N, alpha, h), trace.steps, c, size)
    assert rel_err(alpha_family_bound(N, h, alpha), bound) <= 16 * (N + 1) * max(1.0, h) * EPS
