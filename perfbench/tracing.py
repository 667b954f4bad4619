"""Spans around the calls the benchmark makes into each layer.

The traced run records a span at every layer boundary the benchmark can
reach from outside the program: the workload pass, ``run_design`` /
``run_planned`` / ``run_cells``, per-cell ``rocc.build`` / ``rocc.run``
(in-process cells), ``fingerprint``, ``cache.get`` / ``cache.put``,
``screen`` and ``allocate_variation``.  A span is ``[name, start, end,
parent, cell]``; spans of one cell share the ``cell`` id (the cache key
prefix for engine cells).  Spans stay in memory and are written out
once, when the benchmark ends.

In-cell kind times come from the program's own kernel profile
(``REPRO_PROFILE``), which ``EngineStats.profile`` merges for pool
cells; :func:`profile_layers` turns one merged profile into the
``des.*`` / ``rocc.*`` per-layer numbers.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.engine import CellCache, ExperimentEngine

#: Profiler event kinds charged to each ROCC component.
KIND_LAYERS = {
    "rocc.cpu_s": ("cpudone", "cpuslice"),
    "rocc.network_s": ("transfer",),
    "rocc.pipes_s": ("storeget", "storeput"),
    "rocc.holds_s": ("timeout",),
}


class Spans:
    """In-memory span recorder (one per traced run)."""

    def __init__(self):
        self.records: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None):
        sid = len(self.records)
        parent = self._stack[-1] if self._stack else None
        rec = [name, perf_counter(), None, parent, cell]
        self.records.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    @staticmethod
    def maybe(spans: Optional["Spans"], name: str, cell: Optional[str] = None):
        """A span on *spans*, or nothing when the run is untraced."""
        return nullcontext() if spans is None else spans.span(name, cell)

    def mean(self, name: str, since: int = 0) -> float:
        """Mean duration of the *name* spans recorded from *since* on."""
        d = [r[2] - r[1] for r in self.records[since:] if r[0] == name]
        return sum(d) / len(d) if d else 0.0

    def covered(self, root: int) -> float:
        """Seconds of span *root* covered by at least one descendant."""
        inside = {root}
        intervals = []
        for sid in range(root + 1, len(self.records)):
            rec = self.records[sid]
            if rec[3] in inside:
                inside.add(sid)
                intervals.append((rec[1], rec[2]))
        return union_length(intervals)

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "cell")
        Path(path).write_text(json.dumps(
            [dict(zip(keys, r)) for r in self.records]))


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class TracedCache(CellCache):
    """``CellCache`` whose reads and writes record spans."""

    def __init__(self, spans: Spans, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.spans = spans

    def get(self, key):
        with self.spans.span("cache.get", cell=key[:16]):
            return super().get(key)

    def put(self, key, results):
        with self.spans.span("cache.put", cell=key[:16]):
            return super().put(key, results)


class TracedEngine(ExperimentEngine):
    """``ExperimentEngine`` recording batch and fingerprint spans."""

    def __init__(self, spans: Spans, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.spans = spans

    def run_cells(self, configs, aggregated=False, isolate=False):
        with self.spans.span("run_cells"):
            return super().run_cells(configs, aggregated, isolate)

    def _fingerprint(self, config, aggregated):
        with self.spans.span("fingerprint") as rec:
            key = super()._fingerprint(config, aggregated)
            rec[4] = key[:16] if key else None
            return key


def profile_layers(profile: Optional[dict], cell_wall: float,
                   cells: int) -> Dict[str, float]:
    """``des.*`` / ``rocc.*`` numbers from one pass's merged kernel profile.

    Counts are per pass; times are per cell.  *cell_wall* is the summed
    wall time of the *cells* the profile covers (build + run); the part
    outside the profiled kernel loop is build and result assembly.
    """
    out = {key: 0.0 for key in (
        "des.events", "des.enqueues", "des.queue_resizes",
        "des.schedule_depth_mean", "des.schedule_depth_max",
        "rocc.build_s", "rocc.run_s", "des.us_per_event", *KIND_LAYERS)}
    if not profile or not cells:
        return out
    events = profile["events"]
    queue = profile.get("queue", {})
    run_wall = profile["wall_seconds"]
    out.update({
        "des.events": events,
        "des.enqueues": queue.get("enqueues", 0),
        "des.queue_resizes": queue.get("resizes", 0),
        "des.schedule_depth_mean": profile["heap"]["mean"],
        "des.schedule_depth_max": profile["heap"]["max"],
        "rocc.run_s": run_wall / cells,
        "rocc.build_s": max(0.0, cell_wall - run_wall) / cells,
        "des.us_per_event": 1e6 * run_wall / events if events else 0.0,
    })
    kinds = profile["by_kind"]
    for key, names in KIND_LAYERS.items():
        out[key] = sum(kinds.get(k, {}).get("wall_seconds", 0.0)
                       for k in names) / cells
    return out
