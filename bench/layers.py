"""Which subgradlab functions the traced run wraps, and the per-layer metrics.

The layers are the package modules.  Every public function of a module
that the CLI can reach is wrapped from here; nothing in ``src/`` changes.
Three kinds of name binding decide where a wrapper must go, so all of them
are installed before an operation starts:

* ``s`` is imported by name into rates, worstcase, certify and cli,
* ``scale_instance`` is imported by name into cli (and ``as_point`` into
  solver and certify, ``instance_from_pieces`` into worstcase),
* instances bind ``partial(eval_plmax, ...)`` and ``project_all`` when they
  are built, which happens inside the operation.

Per-iteration functions (``eval_plmax``, ``ProblemInstance.evaluate``,
``project_all``, ``StepSchedule.step_size``/``nominal_step``) and ``s`` are
hot: counted against their parent span instead of stored one span a call.

Metric names are ``<layer>.<function>.<quantity>``:

* ``calls``, ``self_s``: call count and summed self time over the traced run.
* ``us_per_call`` (``eval_plmax``: self time; ``verify_lemma``: inclusive),
  ``solver.run.us_per_iter`` (inclusive run time over iterations).  A suffix
  such as ``.md_le_512`` or ``.dim_le_8`` slices by the size of the call:
  pieces times dimension for the oracle, dimension for the solver.
  ``build_ms.N_le_100`` is the mean long-step build time for 20 < N <= 100.
* ``flops_computed``/``bytes_computed``: 2*m*d and 8*(m*d + m + d) summed
  over oracle calls, computed from the shapes, not measured.
* ``scripted_share``: oracle calls answered by the scripted tie-break.
* ``repeat_ratio``: calls whose arguments ((N, h, scripted) builds, (alpha,
  k) queries) were already seen in the traced run, over all calls.
* ``<layer>.errors``: exceptions leaving the layer; ``<layer>.self_share``:
  the layer's self time over the operations' time.
* ``trace.overhead_frac``: traced over plain time of the same operations,
  minus 1; ``trace.coverage``: all layers' self time over operation time.
* ``*.incl_share``: inclusive time of the calls ``cli.main`` makes to the
  function, over operation time.
A metric with nothing to divide by (no calls) reads 0.
"""

from __future__ import annotations

import inspect
import math
from collections import defaultdict

from spans import Recorder, coverage, layer_self_times

LAYERS = ("sequences", "rates", "core", "solver", "worstcase", "certify", "cli")

# Size buckets for the slices: (label, inclusive upper limit).
MD_BUCKETS = (("md_le_64", 64), ("md_le_512", 512), ("md_le_4096", 4096), ("md_gt_4096", math.inf))
DIM_BUCKETS = (("dim_le_2", 2), ("dim_le_8", 8), ("dim_le_32", 32), ("dim_gt_32", math.inf))
N_BUCKETS = (("N_le_20", 20), ("N_le_100", 100), ("N_le_200", 200))


def _bucket(buckets, value) -> str | None:
    for label, limit in buckets:
        if value <= limit:
            return label
    return None


def _binder(fn):
    sig = inspect.signature(fn)

    def bound(args, kwargs) -> dict:
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return bound


class Tracer:
    """Installs wrappers around subgradlab on a :class:`Recorder` and turns
    what they recorded into per-layer metrics."""

    def __init__(self):
        self.rec = Recorder()
        self.plmax_md = defaultdict(lambda: [0, 0.0])  # bucket -> [calls, seconds]
        self.plmax_flops = 0
        self.plmax_bytes = 0
        self.plmax_scripted = 0
        self.s_seen: set = set()
        self.s_repeats = 0
        self.wrappers: list[tuple[object, str, object]] = []
        self._plan()

    # --- what to wrap -------------------------------------------------------

    def _plan(self) -> None:
        from subgradlab import certify, cli, core, rates, sequences, solver, worstcase

        rec = self.rec
        add = self.wrappers.append

        def wrap_in(owners, attr, name, layer, **kw):
            original = vars(owners[0])[attr]
            wrapper = rec.wrap(original, name, layer, **kw)
            for owner in dict.fromkeys(owners):
                if vars(owner).get(attr) is original:
                    add((owner, attr, wrapper))

        everywhere = [sequences, rates, worstcase, certify, cli, solver, core]

        # sequences
        wrap_in([sequences] + everywhere[1:], "s", "sequences.s", "sequences",
                hot=True, tally=self._tally_s)
        for fn in ("iter_s", "s_identity_check", "s_bounds"):
            wrap_in([sequences], fn, f"sequences.{fn}", "sequences")

        # rates
        for fn in (
            "constant_step_rate", "optimal_constant_step", "weakened_rate_bounds",
            "constant_length_rate", "optimal_method_rate", "lower_bound",
            "classical_lower_bound", "two_step_worst_gap", "no_universal_step_certificate",
        ):
            wrap_in([rates] + everywhere[2:], fn, f"rates.{fn}", "rates")

        # core
        wrap_in([core], "eval_plmax", "core.eval_plmax", "core", hot=True, tally=self._tally_plmax)
        wrap_in([core.ProblemInstance], "evaluate", "core.evaluate", "core", hot=True)
        wrap_in([core], "project_all", "core.projection", "core", hot=True)
        wrap_in([core.ProblemInstance], "is_feasible", "core.is_feasible", "core")
        for fn in ("as_point", "instance_from_pieces", "scale_instance", "check_instance"):
            wrap_in([core] + everywhere, fn, f"core.{fn}", "core")

        # solver
        run_args = _binder(solver.run)
        wrap_in([solver, worstcase], "run", "solver.run", "solver",
                attrs=lambda a, k, r: {"dim": run_args(a, k)["p"].dimension,
                                       "iters": r.horizon, "early": r.terminated_early})
        for fn in ("last_gap", "best_gap", "avg_gap", "best_iterate_bound"):
            wrap_in([solver, worstcase], fn, f"solver.{fn}", "solver")
        wrap_in([solver.StepSchedule], "step_size", "solver.step_size", "solver", hot=True)
        wrap_in([solver.StepSchedule], "nominal_step", "solver.nominal_step", "solver", hot=True)
        wrap_in([solver.StepSchedule], "check_supports", "solver.check_supports", "solver")

        # worstcase
        ls_args = _binder(worstcase.long_step_instance)
        wrap_in([worstcase], "long_step_instance", "worstcase.long_step_instance", "worstcase",
                attrs=lambda a, k, r: {key: ls_args(a, k)[key] for key in ("N", "h", "scripted")})
        for fn in ("abs_instance", "random_instance", "two_step_schedule", "two_step_worst_small",
                   "two_step_worst_long", "tightness_report"):
            wrap_in([worstcase], fn, f"worstcase.{fn}", "worstcase")

        # certify
        wrap_in([certify.WeightSequence], "__post_init__", "certify.WeightSequence", "certify")
        for fn in ("coefficients", "verify_lemma", "constant_step_weights", "optimal_step_weights",
                   "recursive_weights", "alpha_family_bound", "matching_alpha"):
            wrap_in([certify], fn, f"certify.{fn}", "certify")

        # cli
        wrap_in([cli], "main", "cli.main", "cli")

    def _tally_s(self, args, kwargs, dt) -> None:
        key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
        if key in self.s_seen:
            self.s_repeats += 1
        else:
            self.s_seen.add(key)

    def _tally_plmax(self, args, kwargs, dt) -> None:
        f = args[0]
        k = args[2] if len(args) > 2 else kwargs.get("k")
        m, d = f.slopes.shape
        slot = self.plmax_md[_bucket(MD_BUCKETS, m * d)]
        slot[0] += 1
        slot[1] += dt
        self.plmax_flops += 2 * m * d
        self.plmax_bytes += 8 * (m * d + m + d)
        if f.scripted_choices is not None and k is not None and k in f.scripted_choices:
            self.plmax_scripted += 1

    # --- running ------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, wrapper in self.wrappers:
            self.rec.install(owner, attr, wrapper)

    def restore(self) -> None:
        self.rec.restore()

    # --- metrics --------------------------------------------------------------

    def metrics(self, traced_s: float, untraced_s: float, bytes_out: int) -> tuple[dict, dict]:
        """Per-layer metrics as {name: (value, unit)}, and the share of the
        operations' time taken by each call that ``cli.main`` makes directly
        (inclusive of its children), for the prediction checks."""
        rec = self.rec
        spans = rec.spans
        by_layer = layer_self_times(spans, rec.hot.values())
        op_time = sum(sp.duration for sp in spans if sp.layer is None)

        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        for sp in spans:
            if sp.layer is not None:
                calls[sp.name] += 1
                self_s[sp.name] += sp.self_time
                incl[sp.name] += sp.duration
        for stat in rec.hot.values():
            calls[stat.name] += stat.calls
            self_s[stat.name] += stat.self_time
            incl[stat.name] += stat.total

        def per(total, count, scale=1.0):
            return total * scale / count if count else 0.0

        out: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        # core
        n_plmax = calls["core.eval_plmax"]
        put("core.eval_plmax.calls", n_plmax, "count")
        put("core.eval_plmax.self_s", self_s["core.eval_plmax"], "s")
        put("core.eval_plmax.us_per_call", per(self_s["core.eval_plmax"], n_plmax, 1e6), "us")
        put("core.eval_plmax.flops_computed", self.plmax_flops, "flop")
        put("core.eval_plmax.bytes_computed", self.plmax_bytes, "B")
        put("core.eval_plmax.scripted_share", per(self.plmax_scripted, n_plmax), "ratio")
        for label, _ in MD_BUCKETS:
            n, t = self.plmax_md.get(label, (0, 0.0))
            put(f"core.eval_plmax.us_per_call.{label}", per(t, n, 1e6), "us")
        put("core.evaluate.self_s", self_s["core.evaluate"], "s")
        put("core.projection.calls", calls["core.projection"], "count")
        put("core.projection.self_s", self_s["core.projection"], "s")
        put("core.scale_instance.calls", calls["core.scale_instance"], "count")

        # solver
        runs = [sp for sp in spans if sp.name == "solver.run" and sp.attrs is not None]
        iters = sum(sp.attrs["iters"] for sp in runs)
        put("solver.step_size.self_s", self_s["solver.step_size"], "s")
        put("solver.run.calls", calls["solver.run"], "count")
        put("solver.run.self_s", self_s["solver.run"], "s")
        put("solver.run.iters", iters, "count")
        put("solver.run.us_per_iter", per(incl["solver.run"], iters, 1e6), "us")
        put("solver.run.early_stops", sum(sp.attrs["early"] for sp in runs), "count")
        by_dim = defaultdict(lambda: [0, 0.0])
        for sp in runs:
            slot = by_dim[_bucket(DIM_BUCKETS, sp.attrs["dim"])]
            slot[0] += sp.attrs["iters"]
            slot[1] += sp.duration
        for label, _ in DIM_BUCKETS:
            n, t = by_dim.get(label, (0, 0.0))
            put(f"solver.run.us_per_iter.{label}", per(t, n, 1e6), "us")
        gaps = ("solver.last_gap", "solver.best_gap", "solver.avg_gap", "solver.best_iterate_bound")
        put("solver.gaps.self_s", sum(self_s[g] for g in gaps), "s")

        # worstcase
        builds = [sp for sp in spans if sp.name == "worstcase.long_step_instance"]
        keys = [(sp.attrs["N"], sp.attrs["h"], sp.attrs["scripted"]) for sp in builds if sp.attrs]
        put("worstcase.long_step_instance.calls", len(builds), "count")
        put("worstcase.long_step_instance.self_s", self_s["worstcase.long_step_instance"], "s")
        put("worstcase.long_step_instance.repeat_ratio", per(len(keys) - len(set(keys)), len(keys)),
            "ratio")
        by_n = defaultdict(lambda: [0, 0.0])
        for sp in builds:
            if sp.attrs:
                slot = by_n[_bucket(N_BUCKETS, sp.attrs["N"])]
                slot[0] += 1
                slot[1] += sp.duration
        for label, _ in N_BUCKETS:
            n, t = by_n.get(label, (0, 0.0))
            put(f"worstcase.long_step_instance.build_ms.{label}", per(t, n, 1e3), "ms")
        put("worstcase.random_instance.calls", calls["worstcase.random_instance"], "count")
        put("worstcase.random_instance.self_s", self_s["worstcase.random_instance"], "s")
        put("worstcase.abs_instance.calls", calls["worstcase.abs_instance"], "count")

        # sequences
        put("sequences.s.calls", calls["sequences.s"], "count")
        put("sequences.s.self_s", self_s["sequences.s"], "s")
        put("sequences.s.repeat_ratio", per(self.s_repeats, calls["sequences.s"]), "ratio")

        # rates
        rate_names = [n for n in calls if n.startswith("rates.")]
        put("rates.calls", sum(calls[n] for n in rate_names), "count")
        put("rates.self_s", sum(self_s[n] for n in rate_names), "s")

        # certify
        put("certify.verify_lemma.calls", calls["certify.verify_lemma"], "count")
        put("certify.verify_lemma.self_s", self_s["certify.verify_lemma"], "s")
        put("certify.verify_lemma.us_per_call",
            per(incl["certify.verify_lemma"], calls["certify.verify_lemma"], 1e6), "us")
        put("certify.WeightSequence.self_s", self_s["certify.WeightSequence"], "s")

        # cli
        put("cli.main.self_s", self_s["cli.main"], "s")
        put("cli.bytes_out", bytes_out, "B")

        for layer in LAYERS:
            put(f"{layer}.errors", rec.errors[layer], "count")
            put(f"{layer}.self_share", per(by_layer.get(layer, 0.0), op_time), "ratio")

        put("trace.overhead_frac", per(traced_s, untraced_s) - 1.0, "ratio")
        put("trace.coverage", coverage(spans, rec.hot.values()), "ratio")

        # Inclusive time of what cli.main calls directly, for the predictions.
        main_ids = {sp.id for sp in spans if sp.name == "cli.main"}
        shares: dict[str, float] = defaultdict(float)
        for sp in spans:
            if sp.parent in main_ids:
                shares[sp.name] += sp.duration
        for stat in rec.hot.values():
            if stat.parent in main_ids:
                shares[stat.name] += stat.total
        shares["cli.main(self)"] = self_s["cli.main"]
        shares = {name: per(t, op_time) for name, t in shares.items()}
        put("worstcase.long_step_instance.incl_share",
            shares.get("worstcase.long_step_instance", 0.0), "ratio")
        put("solver.run.incl_share", shares.get("solver.run", 0.0), "ratio")
        return out, shares
