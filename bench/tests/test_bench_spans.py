"""Self-time and coverage arithmetic of the span recorder."""

import itertools
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import Recorder, coverage, layer_self_times


def nested_trace() -> Recorder:
    """One operation traced with a scripted clock:

    op [0, 100] > main [5, 95] > build [10, 40] > inner [15, 25]
                               > run [50, 80] > eval [52, 56] > s [53, 55]
                                              > eval [60, 62]
                                              > eval [70, 74] > s [71, 72]

    with eval and s hot."""
    times = iter([0, 5, 10, 15, 25, 40, 50, 52, 53, 55, 56, 60, 62, 70, 71, 72, 74, 80, 95, 100])
    rec = Recorder(clock=lambda: float(next(times)))
    s = rec.wrap(lambda: None, "sequences.s", "sequences", hot=True)
    ev = rec.wrap(lambda call_s: s() if call_s else None, "core.eval", "core", hot=True)
    run = rec.wrap(lambda: (ev(True), ev(False), ev(True)), "solver.run", "solver")
    inner = rec.wrap(lambda: None, "core.inner", "core")
    build = rec.wrap(lambda: inner(), "worstcase.build", "worstcase")
    main = rec.wrap(lambda: (build(), run()), "cli.main", "cli")
    with rec.operation(0):
        main()
    return rec


def test_self_times_subtract_children_and_hot_calls():
    rec = nested_trace()
    by_name = {sp.name: sp for sp in rec.spans}
    assert {name: sp.self_time for name, sp in by_name.items()} == {
        "op": 10, "cli.main": 30, "worstcase.build": 20, "core.inner": 10, "solver.run": 20}
    assert by_name["core.inner"].parent == by_name["worstcase.build"].id
    assert by_name["solver.run"].parent == by_name["cli.main"].id
    run_id = by_name["solver.run"].id
    ev, s = rec.hot[("core.eval", run_id)], rec.hot[("sequences.s", run_id)]
    assert (ev.calls, ev.total, ev.self_time) == (3, 10, 7)
    assert (s.calls, s.total, s.self_time) == (2, 3, 3)
    assert layer_self_times(rec.spans, rec.hot.values()) == {
        "cli": 30, "worstcase": 20, "core": 17, "solver": 20, "sequences": 3}
    # everything but the op's own 10 s is inside some layer
    assert coverage(rec.spans, rec.hot.values()) == pytest.approx(0.9)


def test_recorder_nests_hot_calls_and_counts_errors():
    ticks = itertools.count()
    rec = Recorder(clock=lambda: float(next(ticks)))

    def leaf(fail):
        if fail:
            raise KeyError("boom")
        return 1

    hot_leaf = rec.wrap(leaf, "c.leaf", "c", hot=True)

    def middle(fail):
        return hot_leaf(fail)

    hot_middle = rec.wrap(middle, "b.middle", "b", hot=True)
    outer = rec.wrap(lambda fail: hot_middle(fail), "a.outer", "a",
                     attrs=lambda args, kwargs, result: {"result": result})

    assert outer(False) == 1  # outside an operation: untraced
    assert rec.spans == [] and rec.hot == {}

    with rec.operation(7):
        assert outer(False) == 1
    # clock: op 0, outer 1, middle 2, leaf 3..4, middle ..5, outer ..6, op ..7
    op, span = sorted(rec.spans, key=lambda s: s.start)
    assert (op.start, op.end, span.start, span.end) == (0, 7, 1, 6)
    assert span.parent == op.id and span.op == 7 and span.attrs == {"result": 1}
    assert span.self_time == 2
    middle_stat = rec.hot[("b.middle", span.id)]
    leaf_stat = rec.hot[("c.leaf", span.id)]
    assert (middle_stat.calls, middle_stat.total, middle_stat.self_time) == (1, 3, 2)
    assert (leaf_stat.calls, leaf_stat.total, leaf_stat.self_time) == (1, 1, 1)
    assert layer_self_times(rec.spans, rec.hot.values()) == {"a": 2, "b": 2, "c": 1}
    assert coverage(rec.spans, rec.hot.values()) == pytest.approx(5 / 7)

    with rec.operation(8):
        with pytest.raises(KeyError):
            outer(True)
    assert rec.errors == {"a": 1, "b": 1, "c": 1}


def test_dump_writes_spans_and_hot_counters(tmp_path):
    rec = nested_trace()
    rec.dump(tmp_path / "spans.jsonl")
    lines = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [r["kind"] for r in lines] == ["span"] * 5 + ["hot"] * 2
    run = next(r for r in lines if r["name"] == "solver.run")
    assert (run["start"], run["end"], run["self_time"]) == (50, 80, 20)


def test_install_and_restore_module_and_class_attributes():
    class Box:
        def value(self):
            return 3

    import types

    mod = types.ModuleType("fake")
    mod.f = lambda: 4
    original_f = mod.f
    original_value = Box.__dict__["value"]
    rec = Recorder()
    rec.install(mod, "f", rec.wrap(mod.f, "fake.f", "fake"))
    rec.install(Box, "value", rec.wrap(original_value, "fake.value", "fake", hot=True))
    with rec.operation(0):
        assert mod.f() == 4 and Box().value() == 3
    assert {s.name for s in rec.spans} == {"op", "fake.f"}
    assert rec.hot[("fake.value", 0)].calls == 1
    rec.restore()
    assert mod.f is original_f and Box.__dict__["value"] is original_value
