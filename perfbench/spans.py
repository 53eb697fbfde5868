"""In-memory span and counter recording for the traced benchmark run.

A span is recorded around each call the benchmark makes into a layer of
the package: name, start, end, parent span and operation id.  Spans are kept
in memory and written out when the run ends.  A layer's self time is its
span's duration minus the time its child spans cover.

While tracing is on, ``tracemalloc`` runs and every span also records the
peak of traced memory during the call above the level at its start
(``peak_mb``).  Nested spans keep the peak of their parents intact: the
parent takes the peak seen so far before a child resets it.

Exact counters come from :meth:`Tracer.counted`, which wraps a callable and
adds the number of points it was evaluated at to a named counter of the
current operation.  With tracing off, spans are no-ops and nothing is
wrapped, so the untraced run calls the package exactly as a user would.
"""

from __future__ import annotations

import json
import math
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MB = 2.0**20


def _points(*arrays) -> int:
    """Number of points in a broadcast evaluation over leading axes."""
    return math.prod(np.broadcast_shapes(*(np.shape(a)[:-1] for a in arrays)))


class Tracer:
    """Spans and counters of one benchmark process."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counters: dict = defaultdict(lambda: defaultdict(int))
        self.op = "setup"
        self._stack: list[dict] = []
        self._next_id = 0

    # -- switching -----------------------------------------------------
    def start(self) -> None:
        self.enabled = True
        if not tracemalloc.is_tracing():
            tracemalloc.start()

    def stop(self) -> None:
        self.enabled = False
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    # -- recording -----------------------------------------------------
    @contextmanager
    def span(self, name: str, extra: bool = False):
        """Time one call into a layer.

        ``extra`` marks a call that only the traced run makes (a direct
        call that breaks an operation into its layers); its time is left
        out of the traced operation time used for the overhead figure.
        """
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        cur, peak = tracemalloc.get_traced_memory()
        if parent is not None:
            parent["_peak"] = max(parent["_peak"], peak)
        tracemalloc.reset_peak()
        inherited = parent is not None and parent["extra"]
        rec = {"id": self._next_id, "name": name, "op": self.op,
               "parent": None if parent is None else parent["id"],
               "extra": extra or inherited, "outer_extra": extra and not inherited,
               "_base": cur, "_peak": cur}
        self._next_id += 1
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            _, peak = tracemalloc.get_traced_memory()
            rec["_peak"] = max(rec["_peak"], peak)
            self._stack.pop()
            if parent is not None:
                parent["_peak"] = max(parent["_peak"], rec["_peak"])
            tracemalloc.reset_peak()
            rec["peak_mb"] = (rec.pop("_peak") - rec.pop("_base")) / MB
            self.spans.append(rec)

    def counted(self, name: str, fn):
        """Wrap ``fn`` so each call adds its evaluation points to ``name``."""
        if not self.enabled:
            return fn

        def wrapper(*args):
            self.counters[self.op][name] += _points(*args)
            return fn(*args)

        return wrapper

    # -- summaries -----------------------------------------------------
    def self_times(self) -> dict:
        """Span id -> duration minus the time covered by its children."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: (s["end"] - s["start"]) - child[s["id"]] for s in self.spans}

    def extra_seconds(self, op) -> float:
        """Time of the outermost trace-only spans of one operation."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["op"] == op and s["outer_extra"])

    def layer_table(self, ops) -> dict:
        """Per-layer medians over the given operations.

        For each span name: self seconds, call count and the largest
        ``peak_mb`` within one operation, each summed or maximized per
        operation and then reduced to the median over operations.
        """
        selft = self.self_times()
        per_op = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0.0]))
        for s in self.spans:
            if s["op"] not in ops:
                continue
            acc = per_op[s["name"]][s["op"]]
            acc[0] += selft[s["id"]]
            acc[1] += 1
            acc[2] = max(acc[2], s["peak_mb"])
        table = {}
        for name, byop in per_op.items():
            vals = list(byop.values())
            table[name] = {
                "s": statistics.median(v[0] for v in vals),
                "calls": statistics.median(v[1] for v in vals),
                "peak_mb": statistics.median(v[2] for v in vals),
                "ops": len(vals),
            }
        return table

    def counter_table(self, ops) -> dict:
        """Median over operations of each counter (exact counts per op)."""
        names = {n for op in ops for n in self.counters.get(op, {})}
        return {n: statistics.median(self.counters.get(op, {}).get(n, 0) for op in ops)
                for n in sorted(names)}

    def dump(self, path) -> None:
        payload = {"spans": self.spans,
                   "counters": {str(op): dict(c) for op, c in self.counters.items()}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
