"""Quick runs of every workload: a few operations each, traced and plain."""

import dataclasses
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def first_ops(w, count):
    return dataclasses.replace(w, make_block=lambda *rngs: w.make_block(*rngs)[:count],
                               trace_blocks=1)


def test_spec_names_the_workloads():
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    w = workloads.WORKLOADS[name]
    res = run.traced_run(first_ops(w, 3), seed=5)
    assert res["failures"] == []
    with open(os.path.join(ROOT, res["spans"])) as f:
        kinds = {json.loads(line)["kind"] for line in f}
    assert kinds == {"span", "hot"}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    assert res["metrics"]["trace.coverage"]["value"] > 0.9
    calls = res["metrics"]["worstcase.long_step_instance.calls"]["value"]
    assert (calls > 0) == w.builds_long_step


def test_closed_loop_reports_every_end_to_end_metric():
    # tail_pct 0 asks for the fewest operations, ten: two blocks of five
    w = dataclasses.replace(workloads.WORKLOADS["certify_random"], tail_pct=0)
    res = run.closed_loop(first_ops(w, 5), seed=5, seconds=0)
    assert res["attempted"] == 10 and res["failures"] == []
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    reported = {k: m["unit"] for k, (m, _) in res["metrics"].items()}
    assert reported == {k: u for k, u in names.items() if k != "setup_s"}
    assert res["digest"]["all_ops"] == 10 and len(res["digest"]["block0_sha256"]) == 64


def test_checks_reject_wrong_output():
    ref = workloads.SequenceReference()
    w = workloads.WORKLOADS["sweep_worstcase"]
    op = next(o for o in w.block(5, 0) if o.params["method"] == "constant")
    rc, out, _, _ = run.run_op(run_cli(), op)
    assert w.check(op, rc, out, ref) is None
    header, first, *rest = out.splitlines()
    cols = first.split(",")
    cols[header.split(",").index("last_gap")] = "0.5"
    tampered = "\n".join([header, ",".join(cols), *rest]) + "\n"
    assert "tight rate" in w.check(op, rc, tampered, ref)
    assert w.check(op, 1, out, ref) == "exit status 1"


def run_cli():
    from subgradlab import cli

    return cli
