"""Span recording for the traced benchmark run.

Spans are recorded from outside the program: :class:`Tracer` replaces
module and class attributes of ``repro`` with wrappers for the duration of
a ``with`` block and restores the originals on exit. Each wrapper records
``(name, start, end, parent, query id)``; spans stay in memory until
:meth:`Tracer.write` dumps them as JSON lines.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import repro.core.aggregate
import repro.core.coverage
import repro.core.storage
import repro.core.update
import repro.core.weighting
from repro.core.engine import PHEngine
from repro.core.model import PairwiseHist

#: (owner, attribute, span name) for every layer boundary the trace covers.
TRACED = (
    (PHEngine, "execute", "engine.execute"),
    (PHEngine, "execute_grouped", "engine.execute_grouped"),
    (repro.core.weighting, "weights", "weighting.weights"),
    (repro.core.coverage, "region_coverage", "coverage.region_coverage"),
    (repro.core.aggregate, "aggregate", "aggregate.aggregate"),
    (PairwiseHist, "pair", "model.pair"),
    (repro.core.storage, "serialize", "storage.serialize"),
    (repro.core.storage, "deserialize", "storage.deserialize"),
    (repro.core.update, "append_rows", "update.append_rows"),
)


class Tracer:
    """Context manager that records a span per call into each traced layer."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.qids: list[int] = []
        self.query_id = -1  # set by the caller before each operation
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.starts.append(clock())
            self.ends.append(0)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.qids.append(self.query_id)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.ends[idx] = clock()

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name in TRACED:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def durations_ns(self, name: str) -> list[int]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def totals_ns(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Per span name: (total time, self time, call count). Self time is
        a span's duration minus that of its direct children; calls are
        single-threaded, so children never overlap."""
        total: dict[str, int] = defaultdict(int)
        child: dict[int, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for idx, name in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            total[name] += dur
            calls[name] += 1
            if self.parents[idx] >= 0:
                child[self.parents[idx]] += dur
        self_ns: dict[str, int] = defaultdict(int)
        for idx, name in enumerate(self.names):
            self_ns[name] += self.ends[idx] - self.starts[idx] - child[idx]
        return dict(total), dict(self_ns), dict(calls)

    def write(self, path: Path) -> None:
        """One JSON array per span: name, start ns, end ns, parent index
        (-1 for a root) and query id (-1 outside a query)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.qids):
                f.write(json.dumps(row) + "\n")
