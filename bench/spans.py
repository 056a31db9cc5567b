"""In-memory span recorder for traced benchmark runs.

A :class:`Recorder` wraps plain functions so that every call made inside an
operation records a span: name, layer, start, end, parent span and
operation id.  Spans stay in memory until :meth:`Recorder.dump` writes them
out.

Functions called once per solver iteration or inner-loop step are wrapped as
*hot*.  A hot call stores no span of its own; its call count, inclusive time
and self time are added to a counter keyed by (name, nearest stored span).
That keeps a traced run of millions of calls small in memory and keeps the
wrapper cost low enough to measure.

Self time of a call, stored or hot, is its duration minus the durations of
the calls made directly from it.  The recorder keeps one call stack, so
children of a call never overlap and their durations can be summed as each
child returns.

The module uses only the standard library, so that other code (a
``--timings`` flag, say) can reuse the same hooks.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

# A frame on the recorder's call stack: [time of direct children,
# id of the nearest stored span, whether this frame is a hot call, layer].
_CHILD, _SPAN, _HOT, _LAYER = range(4)


@dataclass
class Span:
    """One stored call.  ``self_time`` is its duration minus that of the
    calls made directly from it; ``attrs`` holds whatever the wrapper's attrs
    function returned."""

    id: int
    name: str
    layer: str | None
    op: int
    parent: int | None
    start: float
    end: float
    self_time: float
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class HotStat:
    """Aggregated calls of one hot function under one stored span."""

    name: str
    layer: str
    parent: int
    op: int
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Recorder:
    """Records spans for functions wrapped with :meth:`wrap`.

    Calls made outside :meth:`operation` are passed through untraced.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.hot: dict[tuple[str, int], HotStat] = {}
        self.errors: Counter[str] = Counter()
        self.op = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    # --- recording --------------------------------------------------------

    def operation(self, op_id: int) -> "_Operation":
        """Context manager that records one operation as a root span ``op``."""
        return _Operation(self, op_id)

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        *,
        hot: bool = False,
        attrs: Callable[[tuple, dict, object], dict] | None = None,
        tally: Callable[[tuple, dict, float], None] | None = None,
    ) -> Callable:
        """Return a wrapper of ``fn`` that records its calls.

        ``attrs(args, kwargs, result)`` runs after a successful stored call
        and its dict is kept on the span.  ``tally(args, kwargs, seconds)``
        runs after every hot call.  A stored function called from inside a
        hot call is counted as hot, so that no time is subtracted twice.
        """
        stack = self._stack
        clock = self.clock
        hot_stats = self.hot
        errors = self.errors
        spans = self.spans
        rec = self

        def hot_call(parent, args, kwargs):
            frame = [0.0, parent[_SPAN], True, layer]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if parent[_LAYER] != layer:
                    errors[layer] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                parent[_CHILD] += dt
                key = (name, parent[_SPAN])
                stat = hot_stats.get(key)
                if stat is None:
                    stat = hot_stats[key] = HotStat(name, layer, parent[_SPAN], rec.op)
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[_CHILD]
                if tally is not None:
                    tally(args, kwargs, dt)

        if hot:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not stack:
                    return fn(*args, **kwargs)
                return hot_call(stack[-1], args, kwargs)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if parent[_HOT]:
                return hot_call(parent, args, kwargs)
            sid = rec._next_id
            rec._next_id += 1
            frame = [0.0, sid, False, layer]
            stack.append(frame)
            t0 = clock()
            info = None
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    info = attrs(args, kwargs, result)
                return result
            except BaseException:
                if parent[_LAYER] != layer:
                    errors[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                parent[_CHILD] += t1 - t0
                spans.append(
                    Span(sid, name, layer, rec.op, parent[_SPAN], t0, t1,
                         t1 - t0 - frame[_CHILD], info)
                )

        return wrapper

    # --- installing wrappers ----------------------------------------------

    def install(self, owner: object, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by ``wrapper``."""
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`install`, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # --- output -----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every stored span and hot counter as one JSON object a line."""
        with open(path, "w") as f:
            for sp in self.spans:
                f.write(json.dumps({"kind": "span", **asdict(sp)}, default=str) + "\n")
            for stat in self.hot.values():
                f.write(json.dumps({"kind": "hot", **asdict(stat)}) + "\n")


class _Operation:
    def __init__(self, rec: Recorder, op_id: int):
        self.rec = rec
        self.op_id = op_id

    def __enter__(self) -> "_Operation":
        rec = self.rec
        if rec._stack:
            raise RuntimeError("operations do not nest")
        rec.op = self.op_id
        self.sid = rec._next_id
        rec._next_id += 1
        self.frame = [0.0, self.sid, False, None]
        rec._stack.append(self.frame)
        self.start = rec.clock()
        return self

    def __exit__(self, *exc) -> None:
        rec = self.rec
        end = rec.clock()
        rec._stack.pop()
        rec.spans.append(
            Span(self.sid, "op", None, self.op_id, None, self.start, end,
                 end - self.start - self.frame[_CHILD])
        )


# --- arithmetic on a finished trace ------------------------------------------


def layer_self_times(spans: Iterable[Span], hot: Iterable[HotStat]) -> dict[str, float]:
    """Self time summed by layer over stored spans and hot counters.

    Root operation spans (layer ``None``) are left out.
    """
    out: dict[str, float] = defaultdict(float)
    for sp in spans:
        if sp.layer is not None:
            out[sp.layer] += sp.self_time
    for stat in hot:
        out[stat.layer] += stat.self_time
    return dict(out)


def coverage(spans: Iterable[Span], hot: Iterable[HotStat]) -> float:
    """Share of the operations' time that some layer's self time accounts for."""
    spans = list(spans)
    op_time = sum(sp.duration for sp in spans if sp.layer is None)
    if op_time <= 0:
        return 0.0
    return sum(layer_self_times(spans, hot).values()) / op_time
