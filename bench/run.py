"""Benchmark of the subgradlab CLI: closed-loop workloads, one client.

Usage (from the root of a source checkout)::

    python3 bench/run.py --workload sweep_worstcase --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each operation is one ``subgradlab.cli.main(argv)`` call made in-process
with stdout captured; the next starts when the previous has returned.  The
argv list comes from the workload seed (see ``workloads.py``).  Whole blocks
of operations run until ``--seconds`` have passed and the workload's
minimum operation count is reached.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
blocks of the workload twice per operation, plain and then with every
public subgradlab function wrapped (``layers.py``), reports per-layer
metrics and writes the spans to ``.bench_build/spans-<workload>.jsonl``.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it are a
readable report and a ``details`` JSON line with sample counts, the
environment, calibration timings and the stdout digest.

BLAS is pinned to one thread in this process and in the set-up probes, and
glibc's mmap threshold is fixed (see ``pin_allocator``).  A traced run
covers a fixed number of blocks, whatever ``--seconds`` says, so that its
counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

import workloads  # noqa: E402  (the BLAS pin must come first)

SETUP_REPEATS = 5  # before and again after the closed loop
MMAP_THRESHOLD = 128 * 1024  # glibc's default, fixed so that it cannot adapt
CALIBRATION_REPEATS = 9
# Stands in for the latency of a failed operation: it misses every limit.
FAILED_LATENCY_MS = sys.float_info.max


# --- measuring one operation ----------------------------------------------------


def run_op(cli, op: workloads.Op) -> tuple[int | None, str, str, float]:
    """Run one CLI call; returns (exit status or None, stdout, error, seconds).

    ``cli.main`` is looked up on each call so that a traced run reaches the
    wrapper installed in its place."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an operation that raises is a failed operation
        rc, error = None, repr(exc)
    dt = time.perf_counter() - t0
    return rc, out.getvalue(), error or err.getvalue().strip(), dt


def check_op(w, ref, op, rc, stdout, error) -> str | None:
    if rc is None:
        return f"raised {error}"
    try:
        return w.check(op, rc, stdout, ref)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}"


# --- set-up, calibration, environment -----------------------------------------------


SETUP_PROBE = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import subgradlab.cli
import workloads
workloads.WORKLOADS[{name!r}].opening({seed!r})
"""


def measure_setup(name: str, seed: int) -> list[float]:
    """Wall time of ``SETUP_REPEATS`` fresh interpreters that import the CLI
    and build the workload's opening operations."""
    code = SETUP_PROBE.format(src=SRC, bench=BENCH_DIR, name=name, seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return times


def calibrate() -> dict:
    """Time a fixed numpy-and-Python loop; reported beside results, never
    used to rescale them."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        x = a
        for _ in range(150):
            x = np.tanh(x @ a)
        acc = 0.0
        for i in range(30000):
            acc += i * 0.5
        times.append((time.perf_counter() - t0) * 1e3)
    q1, med, q3 = statistics.quantiles(times, n=4)
    return {"median_ms": med, "q1_ms": q1, "q3_ms": q3, "max_ms": max(times), "n": len(times)}


def pin_allocator() -> int | None:
    """Fix glibc's mmap threshold.  Left dynamic, it grows after large
    arrays are freed, later arrays then come from the heap and are not
    returned, and peak RSS moves by several MB with the allocation history.
    Returns the threshold set, or None where mallopt is unavailable."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    M_MMAP_THRESHOLD = -3
    return MMAP_THRESHOLD if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 else None


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    import numpy as np

    base = os.path.dirname(np.__file__)
    libs = glob.glob(os.path.join(base, "..", "numpy.libs", "*openblas*.so*"))
    libs += glob.glob(os.path.join(base, ".libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(mmap_threshold: int | None) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "malloc_mmap_threshold": mmap_threshold,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# --- output digests ----------------------------------------------------------------


def stdout_digest(w, seed: int, outputs: list[str]) -> dict:
    """sha256 of the operations' stdout, over all of them and over block 0,
    which every run of the seed does.  Comparing the block-0 digest between
    result sets shows whether the CLI's bytes changed; it never fails a run."""
    first = len(w.block(seed, 0))
    return {
        "all_sha256": hashlib.sha256("".join(outputs).encode()).hexdigest(),
        "all_ops": len(outputs),
        "block0_sha256": hashlib.sha256("".join(outputs[:first]).encode()).hexdigest(),
    }


# --- statistics -------------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --- the two kinds of run ------------------------------------------------------------


def closed_loop(w, seed: int, seconds: float) -> dict:
    from subgradlab import cli

    ref = workloads.SequenceReference()
    run_op(cli, w.block(seed, -1)[0])  # warm-up, not measured

    runs = []
    t_start = time.perf_counter()
    index = 0
    while True:
        for op in w.block(seed, index):
            runs.append((op, *run_op(cli, op)))
        index += 1
        if len(runs) >= w.min_ops and time.perf_counter() - t_start >= seconds:
            break
    wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    latencies, failures = [], []
    for op, rc, stdout, error, dt in runs:
        reason = check_op(w, ref, op, rc, stdout, error)
        if reason is None:
            latencies.append(dt * 1e3)
        else:
            failures.append({"argv": " ".join(op.argv), "reason": reason})
            latencies.append(FAILED_LATENCY_MS)
    n = len(runs)
    ok = n - len(failures)
    tail = percentile(latencies, w.tail_pct)
    beyond = sum(1 for v in latencies if v > tail)
    return {
        "attempted": n,
        "failures": failures,
        "metrics": {
            "ops_per_s": (metric(ok / wall, "1/s"), {"n": ok, "wall_s": wall, "blocks": index}),
            "op_p50_ms": (metric(statistics.median(latencies), "ms"), {"n": n}),
            "op_tail_ms": (metric(tail, "ms"),
                           {"n": n, "percentile": w.tail_pct, "beyond": beyond}),
            "peak_rss_mb": (metric(peak_rss_mb, "MB"), {"n": 1}),
        },
        "fail_frac": len(failures) / n,
        "digest": stdout_digest(w, seed, [stdout for _, _, stdout, _, _ in runs]),
    }


def spans_path(w) -> str:
    """Where a traced run writes its spans; each traced run of the workload
    replaces the file, which keeps the disk used bounded."""
    return os.path.join(ROOT, ".bench_build", f"spans-{w.name}.jsonl")


def traced_run(w, seed: int) -> dict:
    """Run the first ``trace_blocks`` blocks plain and traced, operation by
    operation, and write the spans to ``spans_path``."""
    from subgradlab import cli

    from layers import Tracer

    ref = workloads.SequenceReference()
    tracer = Tracer()
    run_op(cli, w.block(seed, -1)[0])  # warm-up, not measured

    ops = [op for b in range(w.trace_blocks) for op in w.block(seed, b)]
    outputs, failures = [], []
    plain_s = traced_s = 0.0
    for i, op in enumerate(ops):
        rc0, out0, err0, dt0 = run_op(cli, op)
        tracer.install()
        try:
            with tracer.rec.operation(i):
                rc1, out1, err1, dt1 = run_op(cli, op)
        finally:
            tracer.restore()
        plain_s += dt0
        traced_s += dt1
        outputs.append(out1)
        reason = check_op(w, ref, op, rc0, out0, err0) or check_op(w, ref, op, rc1, out1, err1)
        if reason is None and (rc0, out0) != (rc1, out1):
            reason = "traced output differs from the plain run"
        if reason is not None:
            failures.append({"argv": " ".join(op.argv), "reason": reason})
    path = spans_path(w)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tracer.rec.dump(path)

    bytes_out = sum(len(out.encode()) for out in outputs)
    values, shares = tracer.metrics(traced_s, plain_s, bytes_out)
    long_step_calls = values["worstcase.long_step_instance.calls"][0]
    largest = max(shares, key=shares.get) if shares else None
    predictions = {
        "long_step_instance built only where expected":
            (long_step_calls > 0) == w.builds_long_step,
    }
    if w.largest_share is not None:
        predictions[f"largest share is {w.largest_share}"] = largest == w.largest_share
    return {
        "attempted": len(ops),
        "failures": failures,
        "metrics": {name: metric(v, unit) for name, (v, unit) in values.items()},
        "fail_frac": len(failures) / len(ops),
        "digest": stdout_digest(w, seed, outputs),
        "shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "predictions": predictions,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "spans": os.path.relpath(path, ROOT),
    }


def run_workload(args, mmap_threshold: int | None) -> int:
    w = workloads.WORKLOADS[args.workload]
    env = environment(mmap_threshold)
    before = calibrate()
    setup = []
    if args.trace:
        res = traced_run(w, args.seed)
        metrics = res["metrics"]
    else:
        # Probes on both sides of the loop sample two machine states, not one.
        setup = measure_setup(w.name, args.seed)
        res = closed_loop(w, args.seed, args.seconds)
        setup += measure_setup(w.name, args.seed)
        metrics = {"setup_s": metric(statistics.median(setup), "s")}
        counts = {"setup_s": {"n": len(setup)}}
        for name, (m, info) in res["metrics"].items():
            metrics[name] = m
            counts[name] = info
        res["counts"] = counts
    after = calibrate()

    failed = len(res["failures"])
    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, m in metrics.items():
        n = res.get("counts", {}).get(name, {}).get("n", "")
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<6} {f'n={n}' if n != '' else ''}")
    print(f"  {'fail_frac':<48} {res['fail_frac']:>14.6g} {'ratio':<6} n={res['attempted']}")
    for f in res["failures"][:5]:
        print(f"  FAILED: {f['argv']}: {f['reason']}")
    details = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "fail_frac": res["fail_frac"],
        "failures": res["failures"][:20],
        "counts": res.get("counts"),
        "setup_s_samples": setup,
        "digest": res["digest"],
        "environment": env,
        "calibration": {"before": before, "after": after},
    }
    for key in ("shares", "predictions", "plain_s", "traced_s", "spans"):
        if key in res:
            details[key] = res[key]
    print("details " + json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        details = json.loads(next(ln for ln in lines if ln.startswith("details "))[8:])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            n = ((details.get("counts") or {}).get(metric_name) or {}).get("n", "")
            rows.append((name, metric_name, m["value"], m["unit"], n))
            combined["metrics"][f"{name}.{metric_name}"] = m
        rows.append((name, "fail_frac", details["fail_frac"], "ratio", result["attempted"]))
    for name, metric_name, value, unit, n in rows:
        print(f"{name:<16} {metric_name:<48} {value:>14.6g} {unit:<6} n={n}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "subgradlab", "cli.py")):
        print(f"error: no subgradlab sources under {SRC}", file=sys.stderr)
        return 2
    mmap_threshold = pin_allocator()
    sys.path.insert(0, SRC)
    import subgradlab

    if os.path.dirname(os.path.dirname(os.path.abspath(subgradlab.__file__))) != SRC:
        print(f"error: subgradlab was imported from {subgradlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, mmap_threshold)


if __name__ == "__main__":
    sys.exit(main())
