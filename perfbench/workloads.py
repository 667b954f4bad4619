"""The benchmark's three workloads, driven from outside the program.

Each workload builds its inputs from the benchmark seed alone (applied
to the program's own configs with ``dataclasses.replace(cfg, seed=...)``),
sets up once, then runs *passes*: one pass is a closed batch of cells
whose wall time the harness measures.  A pass returns every delivered
cell with its config, so the correctness gate can audit it, plus the
exact work counters and, when a :class:`~tracing.Spans` recorder is
given, the per-layer numbers of :mod:`tracing`.

* ``now_sweep``  — the quick Table 4 NOW 2^4·r design on a cold cache,
  two pool workers (``runners.run_design`` on ``ExperimentEngine``).
* ``ref_cells``  — the 64-node MPP tree cell and the 1024-node NOW
  cell, built and run in-process (``ParadynISSystem``), no engine.
* ``cached_replay`` — set-up fills a cache with the Table 4 design and
  the planned NOW sweep; each pass replays both through a fresh engine
  and cache, then allocates variation over the sweep's responses.
"""

from __future__ import annotations

import gc
import os
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple
from unittest import mock

from repro.des.profiling import merge_profiles, take_last_profile
from repro.expdesign.effects import allocate_variation
from repro.experiments import now_exp
from repro.experiments.engine import CellCache, ExperimentEngine
from repro.experiments.runners import run_design
from repro.planner import PlannerConfig, run_planned
from repro.planner import plan as planner_plan
from repro.rocc.config import (
    Architecture,
    ForwardingTopology,
    SimulationConfig,
)
from repro.rocc.system import ParadynISSystem

from tracing import Spans, TracedCache, TracedEngine, profile_layers

#: Pool size of the engine workloads (the 2-core reference machine).
WORKERS = 2
#: Simulated duration of each reference cell, µs.
REF_DURATION = 1_000_000.0


@dataclass
class Pass:
    """What one timed pass delivered."""

    #: ``(config, outcome)`` per delivered cell; the outcome is a
    #: ``SimulationResults``, or a string naming why the cell failed.
    cells: List[Tuple[SimulationConfig, object]] = field(default_factory=list)
    #: Exact work counters (repeat bit-for-bit for a given seed).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Per-layer numbers (traced passes only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Correctness failures found while delivering (cache misses...).
    problems: List[str] = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0
    #: Filled in by the gate, which then releases ``cells``.
    n_cells: int = 0
    failed: int = 0
    digest: str = ""


def now_spec(seed: int):
    """The quick Table 4 design spec with the benchmark seed applied."""
    spec = now_exp.design_spec(quick=True)
    return replace(spec, make=lambda run: replace(spec.make(run), seed=seed))


def _design_cells(groups, means) -> List[Tuple[SimulationConfig, object]]:
    """Pair ``run_design`` output with the configs of each design run."""
    cells = []
    for reps, mean in zip(groups, means):
        outcomes: List[object] = list(mean.results)
        outcomes += [f"raised: {e.error}" for e in mean.errors]
        cells.extend(zip(reps, outcomes))
    return cells


def _rep_groups(spec) -> List[List[SimulationConfig]]:
    """Configs of every replication, grouped by design run."""
    return [[base.with_(replication=base.replication + r)
             for r in range(spec.repetitions)]
            for base in spec.design.configs(spec.make)]


def _engine(cache_dir: Path, spans: Optional[Spans]) -> ExperimentEngine:
    if spans is None:
        return ExperimentEngine(workers=WORKERS,
                                cache=CellCache(cache_dir, enabled=True))
    return TracedEngine(spans, workers=WORKERS,
                        cache=TracedCache(spans, cache_dir, enabled=True))


def _engine_layers(engine: ExperimentEngine) -> Dict[str, float]:
    st = engine.stats
    util = st.worker_utilization
    return {
        "engine.worker_utilization": util if util == util else 0.0,
        "engine.overhead_s": st.wall_time * st.workers - st.cell_wall_time,
    }


class Workload:
    """One benchmark workload; subclasses define the pass."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.fill_s = 0.0

    def configs(self) -> List[SimulationConfig]:
        """Every config a pass submits (the generated inputs)."""
        raise NotImplementedError

    def setup(self) -> None:
        """One-time work before the first timed pass."""

    def before_pass(self) -> None:
        """Untimed preparation of the next pass."""

    def run_pass(self, spans: Optional[Spans] = None) -> Pass:
        raise NotImplementedError


class _NowDesign(Workload):
    """A workload over the quick Table 4 design (one cache directory)."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.spec = now_spec(seed)
        self.groups = _rep_groups(self.spec)
        self.cache_dir = self.workdir / f"{self.name}_cache"

    def configs(self):
        return [cfg for group in self.groups for cfg in group]


class NowSweep(_NowDesign):
    name = "now_sweep"

    def before_pass(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)

    def run_pass(self, spans=None):
        spec = self.spec
        with _engine(self.cache_dir, spans) as engine, \
                Spans.maybe(spans, "run_design"):
            means = run_design(spec.design, spec.make,
                               repetitions=spec.repetitions,
                               isolate=True, engine=engine)
        out = Pass(cells=_design_cells(self.groups, means))
        st = engine.stats
        out.counters = {
            "engine.cells_run": st.cells_run,
            "engine.cache_hits": st.cache_hits,
        }
        if spans is not None:
            out.layers = {**_engine_layers(engine),
                          **profile_layers(st.profile, st.cell_wall_time,
                                           st.cells_run)}
            for key in ("des.events", "des.enqueues"):
                out.counters[key] = int(out.layers[key])
        return out


class RefCells(Workload):
    name = "ref_cells"

    def configs(self):
        cells = (
            SimulationConfig(architecture=Architecture.MPP, nodes=64,
                             forwarding=ForwardingTopology.TREE,
                             duration=REF_DURATION),
            SimulationConfig(architecture=Architecture.NOW, nodes=1024,
                             duration=REF_DURATION),
        )
        return [replace(cfg, seed=self.seed) for cfg in cells]

    def before_pass(self):
        # Start every pass from a collected heap: the models are object
        # graphs with cycles, and the garbage one pass leaves would
        # otherwise slow the collector by a varying amount in the next.
        gc.collect()

    def run_pass(self, spans=None):
        out = Pass()
        events = enqueues = 0
        build_s = run_s = 0.0
        profiles = []
        for i, cfg in enumerate(self.configs()):
            try:
                t0 = perf_counter()
                with Spans.maybe(spans, "rocc.build", cell=str(i)):
                    system = ParadynISSystem(cfg)
                t1 = perf_counter()
                with Spans.maybe(spans, "rocc.run", cell=str(i)):
                    result = system.run()
                t2 = perf_counter()
            except Exception as exc:  # a raising cell is a counted failure
                out.cells.append((cfg, f"raised: {type(exc).__name__}: {exc}"))
                continue
            out.cells.append((cfg, result))
            build_s += t1 - t0
            run_s += t2 - t1
            q = system.env.scheduler.stats()
            events += q["dequeues"]
            enqueues += q["enqueues"]
            if spans is not None:
                profiles.append(take_last_profile())
        out.counters = {"des.events": events, "des.enqueues": enqueues}
        if spans is not None:
            merged = None
            for p in profiles:
                merged = merge_profiles(merged, p)
            n = len(profiles)
            out.layers = profile_layers(merged, build_s + run_s, n)
            if n:  # in-process cells: build and run timed directly
                out.layers["rocc.build_s"] = build_s / n
                out.layers["rocc.run_s"] = run_s / n
        return out


class CachedReplay(_NowDesign):
    name = "cached_replay"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        #: The cells set-up delivered; every replay must reproduce them.
        self.filled: List[Tuple[SimulationConfig, object]] = []
        self.fill_variation = None

    def _replay(self, engine, spans) -> Tuple[list, object, object]:
        spec = self.spec
        with Spans.maybe(spans, "run_design"):
            means = run_design(spec.design, spec.make,
                               repetitions=spec.repetitions,
                               isolate=True, engine=engine)
        with Spans.maybe(spans, "run_planned"):
            planned = run_planned(spec.design, spec.make,
                                  repetitions=spec.repetitions,
                                  planner=PlannerConfig(), engine=engine)
        rows = [[r.pd_cpu_time_per_node for r in m.results] for m in means]
        with Spans.maybe(spans, "allocate_variation"):
            variation = allocate_variation(spec.design, rows)
        cells = _design_cells(self.groups, means)
        for pc in planned.cells:
            if pc.results is not None:
                # Adaptive top-ups extend a run past the fixed repetitions;
                # the config only identifies the machine to the audit.
                base = self.groups[pc.index][0]
                cells.extend((base, res) for res in pc.results.results)
        return cells, planned, variation

    def setup(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        t0 = perf_counter()
        with _engine(self.cache_dir, None) as engine:
            self.filled, _, self.fill_variation = self._replay(engine, None)
        self.fill_s = perf_counter() - t0

    def run_pass(self, spans=None):
        with _engine(self.cache_dir, spans) as engine:
            if spans is None:
                cells, planned, variation = self._replay(engine, None)
            else:
                def traced_screen(*args, **kwargs):
                    with spans.span("screen"):
                        return screen(*args, **kwargs)

                screen = planner_plan.screen
                with mock.patch.object(planner_plan, "screen", traced_screen):
                    cells, planned, variation = self._replay(engine, spans)
        out = Pass(cells=cells)
        st = engine.stats
        out.counters = {
            "engine.cells_run": st.cells_run,
            "engine.cache_hits": st.cache_hits,
            "planner.cells_pruned": planned.cells_pruned,
            "planner.replications_saved": planned.replications_saved,
        }
        if st.cells_run:
            out.problems.append(
                f"{st.cells_run} cache miss(es): replay simulated cells")
        if len(cells) != len(self.filled):
            out.problems.append(
                f"replay delivered {len(cells)} cells, set-up wrote "
                f"{len(self.filled)}")
        if variation.as_percentages() != self.fill_variation.as_percentages():
            out.problems.append("allocation of variation differs from set-up")
        if spans is not None:
            out.layers = _engine_layers(engine)
        return out


WORKLOADS = {w.name: w for w in (NowSweep, RefCells, CachedReplay)}


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from "
                       f"{', '.join(WORKLOADS)}")
    return WORKLOADS[name](seed, workdir)


def set_profiling(on: bool) -> None:
    """Turn the program's kernel profiler on or off for cells started
    from now on (pool workers read it when they fork)."""
    if on:
        os.environ["REPRO_PROFILE"] = "1"
    else:
        os.environ.pop("REPRO_PROFILE", None)
