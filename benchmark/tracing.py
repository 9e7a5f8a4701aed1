"""In-memory spans for the traced benchmark run.

Spans are recorded from the benchmark's own code around each call into a
``fras`` layer; nothing in the library is modified on disk.  Two hooks
reach inside a layer without editing it:

* ``wrapped_functions`` swaps timing wrappers in for the public functions
  that ``fras.access`` calls while building an index, and restores them;
* ``TimedBitvector`` stands in for a ``FrasIndex``'s ``rule_marks`` and
  ``start_marks`` and counts and times every rank/select call.  Those
  calls are folded into per-query counts and time instead of one span
  each, which bounds memory.

A span is ``(id, name, start_ns, end_ns, parent_id, query_id, counts)``;
``counts`` is ``(rank calls, rank ns, select calls, select ns)`` on the
spans of the query loop.  At most ``max_records`` spans are stored; later ones are counted as
dropped, but coarse spans (one per layer call outside the query loop)
always keep their duration and per-child totals for the metrics.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self, max_records: int = 20_000):
        self.records: list[tuple] = []
        self.dropped = 0
        # name -> [(duration_ns, {child name: ns})] for every coarse span.
        self.coarse: dict[str, list[tuple[int, dict[str, int]]]] = defaultdict(list)
        self._max = max_records
        self._next_id = 0
        self._stack: list[list] = []

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _parent(self):
        return self._stack[-1][0] if self._stack else None

    def _store(self, record: tuple) -> None:
        if len(self.records) < self._max:
            self.records.append(record)
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        entry = [self._new_id(), name, self._parent(), perf_counter_ns(), defaultdict(int)]
        self._stack.append(entry)
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            sid, _, parent, start, children = entry
            self.coarse[name].append((end - start, dict(children)))
            if self._stack:
                self._stack[-1][4][name] += end - start
            self._store((sid, name, start, end, parent, None, None))

    def record(self, name: str, start: int, end: int, query_id: int, counts=None) -> None:
        """A leaf span from the query loop, child of the innermost open span."""
        self._store((self._new_id(), name, start, end, self._parent(), query_id, counts))

    def durations_s(self, name: str) -> list[float]:
        return [ns / 1e9 for ns, _ in self.coarse.get(name, ())]

    def child_s(self, name: str, child: str) -> list[float]:
        """Per span called ``name``: total seconds spent in children ``child``."""
        return [c[child] / 1e9 for _, c in self.coarse.get(name, ()) if child in c]

    def write(self, path, meta: dict) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "query", "counts")
        doc = dict(meta, dropped_spans=self.dropped, spans=[dict(zip(keys, r)) for r in self.records])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


@contextmanager
def wrapped_functions(tracer: Tracer, module, names: dict[str, str]):
    """Replace ``module.<attr>`` by a spanned wrapper for each ``attr: span name``."""
    originals = {attr: getattr(module, attr) for attr in names}

    def wrap(fn, span_name):
        def traced(*args, **kwargs):
            with tracer.span(span_name):
                return fn(*args, **kwargs)

        return traced

    try:
        for attr, span_name in names.items():
            setattr(module, attr, wrap(originals[attr], span_name))
        yield
    finally:
        for attr, fn in originals.items():
            setattr(module, attr, fn)


class SuccinctCounters:
    __slots__ = ("rank_calls", "rank_ns", "select_calls", "select_ns")

    def __init__(self):
        self.rank_calls = self.rank_ns = self.select_calls = self.select_ns = 0

    def snapshot(self) -> tuple[int, int, int, int]:
        return self.rank_calls, self.rank_ns, self.select_calls, self.select_ns


class TimedBitvector:
    """Delegates to a bitvector, counting and timing rank/select calls."""

    def __init__(self, bv, counters: SuccinctCounters):
        self._bv = bv
        self._counters = counters
        self.kind = bv.kind

    def rank(self, i: int) -> int:
        t = perf_counter_ns()
        r = self._bv.rank(i)
        c = self._counters
        c.rank_ns += perf_counter_ns() - t
        c.rank_calls += 1
        return r

    def select(self, r: int) -> int:
        t = perf_counter_ns()
        p = self._bv.select(r)
        c = self._counters
        c.select_ns += perf_counter_ns() - t
        c.select_calls += 1
        return p
