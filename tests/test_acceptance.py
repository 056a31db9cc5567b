"""Acceptance suite: eight end-to-end checks, one test per criterion.

Each test prints a single ``criterion N PASS/FAIL`` line (run with ``-s`` to
see them on a green run).  Traces generated while checking the rate and
certification criteria are kept in a registry so the best-iterate criterion
can audit every trajectory produced here.
"""

import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from subgradlab import (
    ProblemInstance,
    RunTrace,
    StepSchedule,
    WeightSequence,
    avg_gap,
    best_gap,
    best_iterate_bound,
    coefficients,
    constant_step_rate,
    constant_step_weights,
    last_gap,
    lower_bound,
    no_universal_step_certificate,
    optimal_constant_step,
    optimal_step_weights,
    run,
    two_step_worst_gap,
    verify_lemma,
    weakened_rate_bounds,
)
from subgradlab.rates import TWO_STEP_KNEE
from subgradlab.sequences import iter_s, s, s_identity_check
from subgradlab.worstcase import (
    abs_instance,
    long_step_instance,
    random_instance,
    two_step_schedule,
    two_step_worst_long,
    two_step_worst_small,
)


@dataclass
class TraceBundle:
    p: ProblemInstance
    trace: RunTrace
    h_ext: list


_REGISTRY: dict[str, list[TraceBundle]] = {}


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {label}")
        raise
    print(f"criterion {number} PASS: {label}")


def _record(key: str, p, trace) -> None:
    h_ext = list(trace.steps) + [float(trace.steps[-1])]
    _REGISTRY.setdefault(key, []).append(TraceBundle(p, trace, h_ext))


def _tightness_traces() -> list[TraceBundle]:
    if "tightness" in _REGISTRY:
        return _REGISTRY["tightness"]
    for N in range(1, 16):
        knee = 1.0 / s(1.0, N + 1) ** 2
        for frac in (0.25, 0.5, 0.75, 1.0):
            h = frac * knee
            p = abs_instance()
            trace = run(p, StepSchedule.constant_normalized(h), N=N)
            _record("tightness", p, trace)
        for frac in (1.05, 1.25, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0):
            h = frac * knee
            p = long_step_instance(N, h)
            trace = run(p, StepSchedule.constant_normalized(h), N=N)
            _record("tightness", p, trace)
    return _REGISTRY["tightness"]


def test_criterion_1_constant_step_rates_attained():
    with criterion(1, "every constant-step rate is attained by a generator"):
        start = time.perf_counter()
        bundles = _tightness_traces()
        worst = 0.0
        idx = 0
        for N in range(1, 16):
            knee = 1.0 / s(1.0, N + 1) ** 2
            for frac in (0.25, 0.5, 0.75, 1.0, 1.05, 1.25, 1.5, 2.0, 3.0, 5.0,
                         8.0, 12.0):
                h = frac * knee
                bundle = bundles[idx]
                idx += 1
                observed = last_gap(bundle.trace, bundle.p)
                predicted = constant_step_rate(N, h)
                worst = max(worst, abs(observed - predicted))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9, f"worst deviation {worst:.3e}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_optimal_constant_step():
    with criterion(2, "optimal constant step matches closed form and grid"):
        grid = np.arange(1, 10_001, dtype=np.float64) * 1e-4
        for N in range(1, 51):
            opt = optimal_constant_step(N)
            s2 = s(1.0, N + 1) ** 2
            closed = math.sqrt(1.0 - 2.0 * N / s2)
            assert abs(opt.rate - closed) <= 1e-8
            assert abs(opt.rate - constant_step_rate(N, opt.h_star)) <= 1e-8
            short = 1.0 - N * grid
            long_ = (0.5 * s2 - N) * grid + 1.0 / (2.0 * s2 * grid)
            vals = np.where(grid <= 1.0 / s2, short, long_)
            at = int(np.argmin(vals))
            assert abs(grid[at] - opt.h_star) <= 1e-4 + 1e-12
            assert vals[at] >= opt.rate - 1e-12
            assert vals[at] - opt.rate <= 1e-4
        for N in (2, 3, 5, 10, 50, 100, 500, 1000):
            opt = optimal_constant_step(N)
            w = weakened_rate_bounds(N, opt.h_star)
            assert w.optimal_log_form >= opt.rate - 1e-12
            assert w.log_form >= constant_step_rate(N, opt.h_star) - 1e-12


def _optimal_schedule_traces() -> list[TraceBundle]:
    if "optimal" in _REGISTRY:
        return _REGISTRY["optimal"]
    rng = np.random.default_rng(20260816)
    problems = []
    for _ in range(100):
        dim = int(rng.integers(2, 21))
        m = int(rng.integers(1, 2 * dim + 1))
        N = int(rng.integers(1, 31))
        problems.append((random_instance(dim, m, seed=rng), N))
    problems += [
        (abs_instance(), 1),
        (abs_instance(), 5),
        (abs_instance(), 30),
        (long_step_instance(4, 0.3, scripted=False), 4),
        (long_step_instance(2, 0.5, scripted=False), 7),
        (two_step_worst_small(0.05, scripted=False), 2),
        (two_step_worst_small(0.05, scripted=False), 10),
        (two_step_worst_long(0.3, scripted=False), 2),
        (two_step_worst_long(0.3, scripted=False), 10),
    ]
    for p, N in problems:
        for schedule in (
            StepSchedule.optimal_last_iterate(N),
            StepSchedule.optimal_length(N),
        ):
            trace = run(p, schedule, N=N)
            _record("optimal", p, trace)
    _REGISTRY["optimal_meta"] = problems
    return _REGISTRY["optimal"]


def test_criterion_3_optimal_schedules_meet_guarantee():
    with criterion(3, "optimal schedules never exceed 1/sqrt(N+1)"):
        start = time.perf_counter()
        bundles = _optimal_schedule_traces()
        problems = _REGISTRY["optimal_meta"]
        for j, bundle in enumerate(bundles):
            N = problems[j // 2][1]
            gap = last_gap(bundle.trace, bundle.p)
            assert gap <= lower_bound(N) + 1e-9, (
                f"instance {bundle.p.name}, N={N}: {gap} vs {lower_bound(N)}"
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def _mixed_traces() -> list[TraceBundle]:
    if "mixed" in _REGISTRY:
        return _REGISTRY["mixed"]
    rng = np.random.default_rng(41)
    for i in range(5):
        N = 2 + i
        h = 0.03 + 0.05 * i
        p = abs_instance()
        _record("mixed", p, run(p, StepSchedule.constant_normalized(h), N=N))
    for i in range(5):
        N = 2 + i
        h = 1.5 / s(1.0, N + 1) ** 2
        p = long_step_instance(N, h)
        _record("mixed", p, run(p, StepSchedule.constant_normalized(h), N=N))
    for i in range(5):
        N = int(rng.integers(2, 9))
        p = random_instance(int(rng.integers(2, 7)), int(rng.integers(2, 9)),
                            seed=rng)
        h = float(rng.uniform(0.05, 0.8))
        _record("mixed", p, run(p, StepSchedule.constant_normalized(h), N=N))
    for i in range(5):
        N = int(rng.integers(2, 9))
        p = random_instance(4, 6, seed=rng)
        schedule = (
            StepSchedule.constant_length(float(rng.uniform(0.05, 0.6)))
            if i % 2
            else StepSchedule.custom(list(rng.uniform(0.02, 0.6, N)))
        )
        _record("mixed", p, run(p, schedule, N=N))
    return _REGISTRY["mixed"]


def test_criterion_4_lemma_certified_on_mixed_traces():
    with criterion(4, "weighted telescoping inequality holds on mixed traces"):
        bundles = _mixed_traces()
        assert len(bundles) == 20
        rng = np.random.default_rng(42)
        min_slack = math.inf
        for bundle in bundles:
            N = bundle.trace.horizon
            for draw in range(200):
                v = np.sort(rng.uniform(0.05, 2.0, N + 2))
                w = WeightSequence(v, h_last=float(rng.uniform(0.05, 1.0)))
                c = coefficients(w, bundle.trace.steps)
                h_all = np.append(bundle.trace.steps, w.h_last)
                total = math.fsum(c)
                expected = v[0] * math.fsum(h_all * v[1:])
                assert abs(total - expected) <= 1e-10 * max(1.0, abs(expected))
                x_hat = (
                    bundle.p.x_star
                    if draw % 2 == 0
                    else rng.standard_normal(bundle.p.dimension)
                )
                check = verify_lemma(bundle.trace, bundle.p, w, x_hat)
                min_slack = min(min_slack, check.slack)
        assert min_slack >= -1e-9, f"min slack {min_slack:.3e}"
        # the closed-form weight families zero out the interior coefficients
        for N, h in ((3, 0.1), (7, 0.04), (12, 0.02)):
            w = constant_step_weights(N, alpha=1.0, h_last=h)
            c = coefficients(w, np.full(N, h))
            assert np.max(np.abs(c[:-1])) <= 1e-10
        for N in (1, 4, 9, 25):
            w = optimal_step_weights(N)
            steps = np.array(
                [(N + 1 - k) / (N + 1) ** 1.5 for k in range(1, N + 1)]
            )
            c = coefficients(w, steps)
            assert np.max(np.abs(c[:-1])) <= 1e-10
            assert abs(c[-1] - 1.0) <= 1e-10


def test_criterion_5_sequence_bracket_to_a_million():
    with criterion(5, "step sequence stays inside its square-root bracket"):
        start = time.perf_counter()
        count = 1_000_000
        gen = iter_s(1.0)
        vals = np.fromiter(gen, dtype=np.float64, count=count)
        elapsed = time.perf_counter() - start
        k = np.arange(1, count + 1, dtype=np.float64)
        lower = np.sqrt(2.0 * k[1:])
        upper = np.sqrt(2.0 * k[1:] + 0.5 * np.log(k[1:] - 1.0))
        assert np.all(vals[1:] >= lower)
        assert np.all(vals[1:] <= upper)
        assert elapsed < 2.0, f"took {elapsed:.2f}s"
        for alpha in (1.0, 1.5, 3.0):
            for k_check in range(1, 1001):
                res_sum, res_square = s_identity_check(alpha, k_check)
                assert abs(res_sum) <= 1e-7
                assert abs(res_square) <= 1e-7


def test_criterion_6_no_universal_two_step_size():
    with criterion(6, "two-step floor separates from 1/sqrt(3)"):
        cert = no_universal_step_certificate()
        assert 0.5775 <= cert.gap_floor <= 0.5795
        assert cert.gap_floor > 1.0 / math.sqrt(3.0)
        assert cert.margin == pytest.approx(
            cert.gap_floor - 1.0 / math.sqrt(3.0), abs=1e-12
        )
        spanning = [0.01, 0.04, 0.07, TWO_STEP_KNEE, 0.12, 0.16,
                    cert.h2_star, 0.3, 0.7, 1.5]
        for h2 in spanning:
            make = (
                two_step_worst_small if h2 <= TWO_STEP_KNEE
                else two_step_worst_long
            )
            p = make(h2)
            trace = run(p, two_step_schedule(h2), N=2)
            realized = last_gap(trace, p)
            assert realized == pytest.approx(two_step_worst_gap(h2), abs=1e-10)
            _record("twostep", p, trace)


def test_criterion_7_best_iterate_bound_on_all_traces():
    with criterion(7, "best-iterate bound audits every recorded trajectory"):
        bundles = (
            _tightness_traces()
            + _optimal_schedule_traces()
            + _mixed_traces()
            + _REGISTRY.get("twostep", [])
        )
        assert len(bundles) >= 200
        worst = math.inf
        for bundle in bundles:
            bound = best_iterate_bound(bundle.h_ext, bundle.p.B, bundle.p.R)
            slack = bound - best_gap(bundle.trace, bundle.p)
            worst = min(worst, slack)
        assert worst >= -1e-9, f"worst best-iterate slack {worst:.3e}"


def test_criterion_8_scale_invariance():
    with criterion(8, "gaps scale linearly in B*R"):
        from subgradlab import scale_instance

        # Besides 20 drawn scales, two where a tolerance that does not scale
        # with B*R misjudges a zero subgradient or an active piece.
        fixed = [(1e-15, 1.0), (1e-5, 1e-5)]
        rng = np.random.default_rng(816)
        for i in range(20 + len(fixed)):
            if i < 20:
                B = float(10.0 ** rng.uniform(-1, 1))
                R = float(10.0 ** rng.uniform(-1, 1))
            else:
                B, R = fixed[i - 20]
            unit = random_instance(5, 7, seed=i)
            pairs = [(unit, scale_instance(unit, B, R)), (abs_instance(), abs_instance(B, R))]
            N = int(rng.integers(1, 12))
            h = float(rng.uniform(0.05, 1.0))
            for (unit, scaled), schedule in itertools.product(
                pairs,
                (StepSchedule.constant_normalized(h), StepSchedule.optimal_last_iterate(N)),
            ):
                tu = run(unit, schedule, N=N)
                ts = run(scaled, schedule, N=N)
                gu, gs = last_gap(tu, unit), last_gap(ts, scaled)
                assert abs(gs / (B * R) - gu) <= 1e-9 * max(1.0, gu)
                bu, bs = best_gap(tu, unit), best_gap(ts, scaled)
                assert abs(bs / (B * R) - bu) <= 1e-9 * max(1.0, bu)
                au = avg_gap(tu, unit, list(tu.steps) + [float(tu.steps[-1])])
                as_ = avg_gap(ts, scaled, list(ts.steps) + [float(ts.steps[-1])])
                assert abs(as_ / (B * R) - au) <= 1e-9 * max(1.0, au)
