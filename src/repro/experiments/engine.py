"""Parallel experiment engine with a content-addressed cell cache.

Every number the paper reports is the outcome of an independent
*simulation cell* — one ``(SimulationConfig, replication)`` pair — and
cells draw from dedicated named substreams, so they are embarrassingly
parallel and fully deterministic.  :class:`ExperimentEngine` exploits
both properties:

* **Scheduling** — cells submitted through :meth:`ExperimentEngine.run_cells`
  fan out across a process pool (``workers > 1``) or run inline
  (``workers=1``, fail-fast: after a failure later cells never start).
  Failures ship back as picklable :class:`CellError` artifacts, so
  ``isolate=True`` semantics survive the process boundary.  A worker
  killed mid-cell breaks the pool; the cells lost with it are requeued
  on a fresh pool, and after ``degrade_after`` pool failures the engine
  demotes itself to serial execution, which cannot lose workers.
* **Memoization** — a :class:`CellCache` keys finished
  :class:`~repro.rocc.metrics.SimulationResults` by a stable content
  fingerprint of the config (every dataclass field, nested cost models,
  distributions, fault plan, replication index) salted with a hash of
  the simulation source code, so re-running a sweep or benchmark
  recomputes only cells whose inputs or code actually changed.  The
  key is the sha256 of the ``repr`` of the config's canonical form: it
  does not depend on the process or hash seed, and it survives every
  code change outside the salted simulation packages.
* **Deadlines** — ``cell_timeout`` arms the kernel watchdog inside the
  worker (``max_wall_seconds``), so a runaway cell aborts itself with
  :class:`~repro.des.SimulationStalled`.  A worker hung outside the
  kernel is caught by a parent-side wait guard and its pool is torn
  down.
* **Retries** — a :class:`~repro.experiments.resilience.RetryPolicy`
  re-runs transient failures (stalls, deadline breaches, injected
  faults) with exponential backoff and deterministic jitter.  The
  default is ``RetryPolicy.none()``: every first failure is final.
  Cells are deterministic, so a retry that succeeds is
  indistinguishable from a first-attempt success.
* **Checkpoint/resume** — a
  :class:`~repro.experiments.resilience.RunJournal` records every
  attempt, success and final failure by cell fingerprint; re-running
  with the same journal serves completed cells without simulating them.
  With ``strict=False`` a sweep always returns (partial results plus
  :attr:`ExperimentEngine.failure_report`) instead of raising.

Counters (``engine.retries``, ``engine.cell_timeouts``,
``engine.pool_resets``, ``engine.cache_corrupt``) are published through
the :mod:`repro.obs` metrics registry, and every attempt runs under a
span when tracing is enabled.  The chaos harness in
:mod:`repro.experiments.chaos` injects the failure modes.

Environment knobs:

* ``REPRO_WORKERS`` — worker count of the ambient engine (default 1).
* ``REPRO_CELL_CACHE`` — set to ``0``/``off`` to disable the cache.
* ``REPRO_CACHE_DIR`` — cache directory (default
  ``$XDG_CACHE_HOME/repro/cells`` or ``~/.cache/repro/cells``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from math import isnan, nan
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..des.profiling import merge_profiles, take_last_profile
from ..obs.metrics import diff_snapshots, registry as obs_registry
from ..obs.spans import (
    SpanBatch,
    Tracer,
    current_tracer,
    maybe_span,
    tracing_enabled,
    use_tracing,
)
from ..rocc.aggregate import simulate_aggregated
from ..rocc.config import SimulationConfig
from ..rocc.metrics import SimulationResults
from ..rocc.system import simulate
from .resilience import CellTimeout, FailureReport, RetryPolicy, RunJournal

__all__ = [
    "CellError",
    "EngineCellError",
    "EngineStats",
    "CellCache",
    "ExperimentEngine",
    "config_fingerprint",
    "code_version",
    "results_equal",
    "current_engine",
    "use_engine",
]


# ---------------------------------------------------------------------------
# Failure artifacts
# ---------------------------------------------------------------------------


@dataclass
class CellError:
    """A failed cell, preserved as an artifact of the sweep.

    With ``isolate=True`` a crashing cell no longer aborts the whole
    experiment: the error (message + formatted traceback) rides along in
    :attr:`MeanResults.errors` and the sweep completes with whatever
    replications succeeded.  The artifact is plain strings, so it
    crosses process boundaries even when the original exception cannot
    be pickled.
    """

    config_summary: str
    error: str
    traceback: str

    @classmethod
    def from_exception(cls, config: SimulationConfig, exc: BaseException) -> "CellError":
        summary = (
            f"{config.architecture.value} n={config.nodes} "
            f"b={config.batch_size} rep={config.replication}"
        )
        return cls(
            config_summary=summary,
            error=f"{type(exc).__name__}: {exc}",
            traceback="".join(
                _traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )


class EngineCellError(RuntimeError):
    """Raised (non-isolated runs) when a worker's exception cannot be
    re-raised verbatim in the parent — e.g. an unpicklable exception
    type."""

    def __init__(self, cell_error: CellError):
        self.cell_error = cell_error
        super().__init__(
            f"cell {cell_error.config_summary} failed: {cell_error.error}\n"
            f"{cell_error.traceback}"
        )


# ---------------------------------------------------------------------------
# Content-addressed fingerprinting
# ---------------------------------------------------------------------------

#: Sub-packages whose source defines simulation semantics; their content
#: hash salts every fingerprint so stale results die with code changes.
_SIM_PACKAGES = ("des", "rocc", "faults", "workload", "variates")

_code_version: Optional[str] = None


def code_version() -> str:
    """Hash of the simulation source tree (the cache's code salt)."""
    global _code_version
    if _code_version is None:
        root = Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        for pkg in _SIM_PACKAGES:
            for path in sorted((root / pkg).rglob("*.py")):
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
        h.update(os.environ.get("REPRO_CACHE_SALT", "").encode())
        _code_version = h.hexdigest()[:16]
    return _code_version


def _tuple_text(parts: List[str]) -> str:
    """``repr`` of a tuple whose items' reprs are *parts*."""
    if len(parts) == 1:
        return "(" + parts[0] + ",)"
    return "(" + ", ".join(parts) + ")"


#: Per-type encoders, built by :func:`_encoder_for` on first sight.
_ENCODERS: dict = {}


def _encode(obj) -> str:
    """The canonical text of *obj*: a deterministic, order-stable ``repr``.

    Covers everything a :class:`SimulationConfig` can hold: nested
    dataclasses (cost models, workload, fault plans), enums,
    distributions (plain objects — captured by class name + sorted
    instance dict), numpy values and arrays, and containers.  Floats
    are tagged ``('f', repr)``, which keeps full precision, so configs
    differing in the 17th digit fingerprint apart.  The text is written
    directly, without building the tuple it spells; exact leaves are
    formatted inline and every other type gets an encoder compiled once.
    """
    t = type(obj)
    if t is float:
        return "('f', '" + repr(obj) + "')"
    if t is int or t is str or t is bool or obj is None:
        return repr(obj)
    enc = _ENCODERS.get(t)
    if enc is None:
        enc = _ENCODERS[t] = _encoder_for(t)
    return enc(obj)


def _encoder_for(t: type) -> Callable[[object], str]:
    """Build the encoder of type *t*.  The checks run in a fixed order
    and a type matching several (an ``IntEnum``, a namedtuple, a float
    subclass) takes the first: the order is part of the key format."""
    if issubclass(t, (str, int)):  # str-Enums, IntEnums, bool
        return repr
    if issubclass(t, float):  # np.float64 renders as 'np.float64(...)'
        return lambda o: "('f', " + repr(repr(o)) + ")"
    if issubclass(t, Enum):
        name = repr(t.__name__)
        return lambda o: "('enum', " + name + ", " + _encode(o.value) + ")"
    if is_dataclass(t) and not issubclass(t, type):
        labels = [(f.name, "(" + repr(f.name) + ", ") for f in fields(t)]
        head = "('dc', " + repr(t.__name__) + ", "

        def encode_dataclass(o) -> str:
            parts = []
            for name, label in labels:
                v = getattr(o, name)
                if type(v) is float:  # the commonest leaf, inline
                    parts.append(label + "('f', '" + repr(v) + "'))")
                else:
                    parts.append(label + _encode(v) + ")")
            return head + _tuple_text(parts) + ")"

        return encode_dataclass
    if issubclass(t, dict):
        return lambda o: "('dict', " + _tuple_text(sorted(
            "(" + _encode(k) + ", " + _encode(v) + ")"
            for k, v in o.items())) + ")"
    if issubclass(t, (list, tuple)):
        return lambda o: "('seq', " + _tuple_text(
            [_encode(v) for v in o]) + ")"
    if issubclass(t, (set, frozenset)):
        return lambda o: "('set', " + _tuple_text(
            sorted(_encode(v) for v in o)) + ")"
    if issubclass(t, np.ndarray):
        return lambda o: repr(
            ("nd", o.shape, tuple(repr(float(v)) for v in o.ravel())))
    if issubclass(t, np.generic):  # np.int64(5) -> ('f', '5')
        return lambda o: "('f', " + repr(repr(o.item())) + ")"
    name = repr(t.__name__)

    def encode_object(o) -> str:
        d = getattr(o, "__dict__", None)
        if d is None:
            return "('repr', " + repr(repr(o)) + ")"
        parts = []
        for k, v in sorted(d.items()):
            if type(v) is float:
                parts.append("(" + repr(k) + ", ('f', '" + repr(v) + "'))")
            else:
                parts.append("(" + repr(k) + ", " + _encode(v) + ")")
        return "('obj', " + name + ", " + _tuple_text(parts) + ")"

    return encode_object


def config_fingerprint(config: SimulationConfig, aggregated: bool = False) -> str:
    """Stable content address of one simulation cell.

    The key is the sha256 of the ``repr`` of the canonical form
    ``("cell-v1", code_version(), aggregated, <config>)``, where every
    field — including the replication index and nested models — is
    spelled out by value.  Two configs fingerprint identically iff
    every field matches and the simulation source is unchanged; changes
    outside the salted simulation packages (``_SIM_PACKAGES``) leave
    every key, and so every cache entry and journal record, valid.
    """
    text = ("('cell-v1', " + repr(code_version()) + ", "
            + repr(bool(aggregated)) + ", " + _encode(config) + ")")
    return hashlib.sha256(text.encode()).hexdigest()


def results_equal(a: SimulationResults, b: SimulationResults) -> bool:
    """Field-by-field equality, treating NaN as equal to NaN."""

    def same(x, y) -> bool:
        if isinstance(x, float) and isinstance(y, float):
            return x == y or (isnan(x) and isnan(y))
        return x == y

    return all(same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


# ---------------------------------------------------------------------------
# On-disk cell cache
# ---------------------------------------------------------------------------


def _default_cache_root() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro" / "cells"


def _cache_enabled_by_env() -> bool:
    return os.environ.get("REPRO_CELL_CACHE", "1").strip().lower() not in (
        "0", "off", "false", "no", "",
    )


class CellCache:
    """Content-addressed store of pickled :class:`SimulationResults`.

    Entries live at ``<root>/<key[:2]>/<key>.pkl`` with a sha256
    checksum stored beside each one (``<key>.pkl.sha256``).  Writes are
    atomic (temp file + fsync + ``os.replace``) so a worker killed
    mid-``put`` can never leave a torn pickle in place, and reads verify
    the checksum *before* unpickling: a corrupted or truncated entry is
    quarantined (moved aside under ``<root>/quarantine/``) and treated
    as a miss, so the cell simply recomputes.
    """

    def __init__(self, root: Union[str, Path, None] = None,
                 enabled: Optional[bool] = None):
        self.root = Path(root).expanduser() if root else _default_cache_root()
        self.enabled = _cache_enabled_by_env() if enabled is None else enabled
        #: Entries quarantined by this instance (checksum mismatches,
        #: unpicklable blobs); surfaced as ``EngineStats.cache_corrupt``.
        self.corrupt_entries = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def checksum_path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl.sha256"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def get(self, key: str) -> Optional[SimulationResults]:
        if not self.enabled:
            return None
        # Same location as path_for(), built as one string rather than
        # by pathlib joins: this runs once per served cell.
        path = os.path.join(self.root, key[:2], key + ".pkl")
        try:
            with open(path, "rb") as f:
                blob = f.read()
        except OSError:
            return None
        try:
            with open(path + ".sha256", "rb") as f:
                expected = f.read().strip()
        except OSError:
            expected = None  # pre-checksum entry: fall back to unpickling
        if (expected is not None
                and hashlib.sha256(blob).hexdigest().encode() != expected):
            self._quarantine(key)
            return None
        try:
            result = pickle.loads(blob)
        except Exception:
            self._quarantine(key)
            return None
        if not isinstance(result, SimulationResults):
            self._quarantine(key)
            return None
        return result

    def put(self, key: str, results: SimulationResults) -> None:
        if not self.enabled:
            return
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        try:
            # Blob first, checksum second: a crash between the two
            # renames leaves a mismatched pair, which get() quarantines
            # and recomputes — never a torn pickle served as a hit.
            self._atomic_write(path, blob)
            self._atomic_write(self.checksum_path_for(key), digest.encode())
        except OSError:
            pass  # cache is best-effort

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as f:
                f.write(data)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise

    def _quarantine(self, key: str) -> None:
        """Move a corrupt entry (and its checksum) aside for post-mortem
        instead of serving — or silently deleting — garbage."""
        self.corrupt_entries += 1
        obs_registry().counter(
            "engine.cache_corrupt",
            "cell-cache entries quarantined as corrupt",
        ).inc()
        qdir = self.quarantine_dir
        for p in (self.path_for(key), self.checksum_path_for(key)):
            if not p.exists():
                continue
            try:
                qdir.mkdir(parents=True, exist_ok=True)
                os.replace(p, qdir / p.name)
            except OSError:
                p.unlink(missing_ok=True)

    def clear(self) -> int:
        """Delete every live entry; returns the number removed.

        Quarantined entries are left in place for post-mortem.
        """
        n = 0
        if self.root.is_dir():
            for path in self.root.glob("??/*.pkl"):
                path.unlink(missing_ok=True)
                path.with_name(path.name + ".sha256").unlink(missing_ok=True)
                n += 1
        return n


# ---------------------------------------------------------------------------
# Engine statistics
# ---------------------------------------------------------------------------


@dataclass
class EngineStats:
    """Shared counters of one engine's activity (see ``reporting``)."""

    workers: int = 1
    cells_submitted: int = 0
    #: Cells actually executed (cache misses, including failed cells).
    cells_run: int = 0
    cache_hits: int = 0
    cell_errors: int = 0
    #: Extra attempts beyond each cell's first: re-runs under the retry
    #: policy plus requeues of cells lost when a worker broke the pool.
    retries: int = 0
    #: Cells that exceeded their wall-clock deadline (in-worker watchdog
    #: or the parent-side wait guard).
    cell_timeouts: int = 0
    #: Worker-pool restarts after breakage (killed/hung workers).
    pool_resets: int = 0
    #: Cache entries quarantined as corrupt during lookups.
    cache_corrupt: int = 0
    #: Cells served from a resumed run journal instead of executing.
    cells_resumed: int = 0
    #: Design cells the experiment planner served as analytic surrogates
    #: instead of simulating (see :mod:`repro.planner`).
    cells_pruned: int = 0
    #: Cell-replications the planner avoided vs the fixed-r baseline.
    replications_saved: int = 0
    #: Wall-clock seconds spent inside ``run_cells`` batches.
    wall_time: float = 0.0
    #: Sum of per-cell wall seconds as measured inside the workers.
    cell_wall_time: float = 0.0
    #: Sum of per-cell CPU seconds as measured inside the workers.
    cell_cpu_time: float = 0.0
    #: Kernel events processed by profiled cells (0 unless REPRO_PROFILE).
    sim_events: int = 0
    #: Merged kernel profile of every profiled cell (None unless
    #: REPRO_PROFILE; see :mod:`repro.des.profiling`).
    profile: Optional[dict] = None

    @property
    def cache_misses(self) -> int:
        return self.cells_run

    @property
    def worker_utilization(self) -> float:
        """Busy fraction of the worker pool: cell wall time over
        (batch wall time × workers).  NaN until something has run."""
        if self.wall_time <= 0 or self.workers < 1:
            return nan
        return self.cell_wall_time / (self.wall_time * self.workers)

    def copy(self) -> "EngineStats":
        return replace(self)

    def since(self, earlier: "EngineStats") -> "EngineStats":
        """Delta of the counters relative to an earlier snapshot.

        The merged ``profile`` is cumulative (profiles only ever merge),
        so the delta carries the current one unchanged.
        """
        return EngineStats(
            workers=self.workers,
            cells_submitted=self.cells_submitted - earlier.cells_submitted,
            cells_run=self.cells_run - earlier.cells_run,
            cache_hits=self.cache_hits - earlier.cache_hits,
            cell_errors=self.cell_errors - earlier.cell_errors,
            retries=self.retries - earlier.retries,
            cell_timeouts=self.cell_timeouts - earlier.cell_timeouts,
            pool_resets=self.pool_resets - earlier.pool_resets,
            cache_corrupt=self.cache_corrupt - earlier.cache_corrupt,
            cells_resumed=self.cells_resumed - earlier.cells_resumed,
            cells_pruned=self.cells_pruned - earlier.cells_pruned,
            replications_saved=(
                self.replications_saved - earlier.replications_saved
            ),
            wall_time=self.wall_time - earlier.wall_time,
            cell_wall_time=self.cell_wall_time - earlier.cell_wall_time,
            cell_cpu_time=self.cell_cpu_time - earlier.cell_cpu_time,
            sim_events=self.sim_events - earlier.sim_events,
            profile=self.profile,
        )

    def summary(self) -> str:
        util = self.worker_utilization
        util_s = f"{100.0 * util:.0f}%" if util == util else "-"
        events_s = (
            f", {self.sim_events:,} kernel events" if self.sim_events else ""
        )
        resilience_bits = [
            f"{count} {label}"
            for count, label in (
                (self.cells_pruned, "pruned"),
                (self.replications_saved, "replications saved"),
                (self.cells_resumed, "resumed"),
                (self.retries, "retries"),
                (self.cell_timeouts, "timeouts"),
                (self.pool_resets, "pool resets"),
                (self.cache_corrupt, "corrupt cache entries"),
            )
            if count
        ]
        resilience_s = (
            f", {', '.join(resilience_bits)}" if resilience_bits else ""
        )
        return (
            f"{self.cells_submitted} cells ({self.cells_run} run, "
            f"{self.cache_hits} cached, {self.cell_errors} failed) in "
            f"{self.wall_time:.2f}s wall / {self.cell_cpu_time:.2f}s cpu, "
            f"{self.workers} worker(s), {util_s} utilization"
            f"{resilience_s}{events_s}"
        )


# ---------------------------------------------------------------------------
# Cell execution
# ---------------------------------------------------------------------------


@dataclass
class _CellOutcome:
    """What one executed cell produced (picklable in every branch)."""

    ok: bool
    result: Optional[SimulationResults] = None
    error: Optional[CellError] = None
    #: The original exception when it can cross the process boundary
    #: (re-raised verbatim by non-isolated runs).
    exc: Optional[BaseException] = None
    wall: float = 0.0
    cpu: float = 0.0
    #: Kernel profile of the run (plain dict; set only under REPRO_PROFILE).
    profile: Optional[dict] = None
    #: Spans recorded while running this cell (set only when traced).
    trace: Optional[SpanBatch] = None
    #: Metrics-registry delta produced by this cell (obs snapshot diff).
    metrics: Optional[dict] = None
    #: Process that executed the cell — the parent merges the metrics
    #: delta only for foreign pids (inline cells already published).
    pid: int = 0


def _run_cell(payload: Tuple[SimulationConfig, bool, bool, Optional[int]]) -> _CellOutcome:
    """Execute one cell; never raises (failures become artifacts)."""
    config, aggregated, traced, lp_workers = payload
    if aggregated:
        runner: Callable[[SimulationConfig], SimulationResults] = simulate_aggregated
    elif lp_workers is not None and lp_workers >= 2:
        def runner(cfg, _k=lp_workers):
            return simulate(cfg, lp_workers=_k)
    else:
        runner = simulate
    # A traced cell records into its own fresh tracer (explicitly
    # installed — forked workers inherit the parent's tracer object, and
    # inline cells must not write parent spans twice) and ships the
    # batch back, exactly like kernel profiles do.
    tracer = Tracer() if traced else None
    metrics_before = obs_registry().snapshot()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is not None:
            with use_tracing(tracer):
                with tracer.span(
                    "cell", cat="engine.cell",
                    args={
                        "config": (
                            f"{config.architecture.value} n={config.nodes} "
                            f"rep={config.replication}"
                        ),
                        "aggregated": aggregated,
                    },
                ):
                    result = runner(config)
        else:
            result = runner(config)
    except Exception as exc:
        err = CellError.from_exception(config, exc)
        try:  # only ship the exception object if it survives pickling
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = None
        return _CellOutcome(
            ok=False, error=err, exc=exc,
            wall=time.perf_counter() - t0, cpu=time.process_time() - c0,
            trace=tracer.batch() if tracer is not None else None,
            metrics=diff_snapshots(metrics_before, obs_registry().snapshot()),
            pid=os.getpid(),
        )
    return _CellOutcome(
        ok=True, result=result,
        wall=time.perf_counter() - t0, cpu=time.process_time() - c0,
        profile=take_last_profile(),
        trace=tracer.batch() if tracer is not None else None,
        metrics=diff_snapshots(metrics_before, obs_registry().snapshot()),
        pid=os.getpid(),
    )


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

#: The parent-side wait guard for a pool cell is ``cell_timeout ×
#: _DEADLINE_GRACE + 2`` seconds: long enough that the in-worker watchdog
#: always fires first, so the guard only catches workers hung outside
#: the kernel.
_DEADLINE_GRACE = 3.0

# Module-cached instruments (registry().reset() zeroes them in place,
# so the references stay valid across test isolation).
_RETRIES = obs_registry().counter(
    "engine.retries", "cell re-executions scheduled by the engine"
)
_TIMEOUTS = obs_registry().counter(
    "engine.cell_timeouts", "cells that exceeded their wall-clock deadline"
)
_ATTEMPT_SECONDS = obs_registry().histogram(
    "engine.attempt_seconds", "wall seconds per executed cell attempt"
)
_BATCH_SECONDS = obs_registry().histogram(
    "engine.batch_seconds", "wall seconds per run_cells batch"
)


class ExperimentEngine:
    """Schedules simulation cells over workers, memoized by content.

    ``workers=1`` (the default, or ``REPRO_WORKERS`` unset) executes
    inline with fail-fast semantics; ``workers=N`` fans cells out over a
    lazily created :class:`~concurrent.futures.ProcessPoolExecutor` that
    is reused across batches until :meth:`close`.

    Failure handling (see the module docstring):

    * ``retry`` — the :class:`RetryPolicy` for failures inside a cell.
    * ``cell_timeout`` — per-cell wall-clock deadline, seconds.
    * ``journal`` — a :class:`RunJournal` (or a path) to checkpoint into
      and resume from.
    * ``strict`` — when False, a cell that exhausts its attempts is
      returned as a :class:`CellError` artifact (the partial-results
      contract of ``isolate=True``) and recorded in
      :attr:`failure_report` instead of raising.
    * ``degrade_after`` — pool failures tolerated before the engine
      demotes itself to serial in-process execution.

    Attempt accounting: a failure *inside* a cell (exception, watchdog
    stall, deadline breach) consumes one of the cell's attempts.  Pool
    shrapnel — sibling futures that die with ``BrokenProcessPool`` or
    are cancelled because some *other* cell broke the pool — is requeued
    without consuming the victim cells' budgets, and is bounded by
    ``degrade_after`` instead.
    """

    def __init__(self, workers: Optional[int] = None,
                 cache: Optional[CellCache] = None,
                 stats: Optional[EngineStats] = None,
                 lp_workers: Union[int, str, None] = None,
                 retry: RetryPolicy = RetryPolicy.none(),
                 cell_timeout: Optional[float] = None,
                 journal: Union[RunJournal, str, Path, None] = None,
                 strict: bool = True,
                 degrade_after: int = 3):
        if workers is None:
            workers = int(os.environ.get("REPRO_WORKERS", "1") or 1)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if isinstance(lp_workers, str) and lp_workers != "auto":
            raise ValueError("lp_workers must be an int, 'auto', or None")
        if isinstance(lp_workers, int) and lp_workers < 1:
            raise ValueError("lp_workers must be >= 1")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive (or None)")
        if degrade_after < 1:
            raise ValueError("degrade_after must be >= 1")
        self.workers = workers
        #: In-cell LP parallelism: an LP count applied to every eligible
        #: cell, ``"auto"`` to partition big cells when cores allow, or
        #: ``None`` to leave the choice to ``REPRO_DES_PARALLEL``.
        #: Cell workers and in-cell LP workers multiply — size the
        #: product to the machine.
        self.lp_workers = lp_workers
        self.cache = cache if cache is not None else CellCache()
        self.stats = stats if stats is not None else EngineStats(workers=workers)
        self.stats.workers = workers
        self.retry = retry
        self.cell_timeout = cell_timeout
        self.journal = (
            journal if isinstance(journal, RunJournal) or journal is None
            else RunJournal(journal)
        )
        self.strict = strict
        self.degrade_after = degrade_after
        self.failure_report = FailureReport()
        self._pool_failures = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        #: The picklable callable executed per cell.  The chaos harness
        #: (:mod:`repro.experiments.chaos`) swaps in a fault-injecting
        #: wrapper; everything else uses :func:`_run_cell`.
        self.cell_runner: Callable[[Tuple], _CellOutcome] = _run_cell

    # -- lifecycle -----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down and close the journal (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution -----------------------------------------------------
    def run_cells(
        self,
        configs: Sequence[SimulationConfig],
        aggregated: bool = False,
        isolate: bool = False,
    ) -> List[Union[SimulationResults, CellError]]:
        """Run every cell, returning outcomes in submission order.

        Journaled and cached cells are served without executing; the
        rest run inline (``workers=1``) or on the pool.  Failures become
        :class:`CellError` entries under ``isolate=True`` or
        ``strict=False`` and raise otherwise — the original exception
        when picklable, :class:`EngineCellError` when not.
        """
        configs = list(configs)
        t_start = time.perf_counter()
        hits_before = self.stats.cache_hits
        try:
            with maybe_span(
                "run_cells", cat="engine.batch",
                args={"cells": len(configs), "workers": self.workers},
            ) as span:
                outcomes = self._run_cells(
                    configs, aggregated, isolate or not self.strict
                )
                if span is not None:
                    span.args["cache_hits"] = (
                        self.stats.cache_hits - hits_before
                    )
                return outcomes
        finally:
            elapsed = time.perf_counter() - t_start
            self.stats.wall_time += elapsed
            _BATCH_SECONDS.observe(elapsed)

    def _run_cells(self, configs, aggregated, isolate):
        self.stats.cells_submitted += len(configs)
        outcomes: List[Union[SimulationResults, CellError, None]]
        outcomes = [None] * len(configs)
        misses: List[Tuple[int, SimulationConfig, Optional[str]]] = []
        for i, config in enumerate(configs):
            key = self._fingerprint(config, aggregated)
            hit = self._lookup(key)
            if hit is not None:
                outcomes[i] = hit
            else:
                misses.append((i, config, key))

        for i, key, out in self._execute(misses, aggregated, isolate):
            self.stats.cells_run += 1
            if out.ok:
                outcomes[i] = out.result
                if key:
                    self.cache.put(key, out.result)
                continue
            self.stats.cell_errors += 1
            if not isolate:
                if out.exc is not None:
                    raise out.exc
                raise EngineCellError(out.error)
            outcomes[i] = out.error
        return outcomes

    # -- keys and lookup -----------------------------------------------
    def _lp_workers_for(self, config: SimulationConfig,
                        aggregated: bool) -> Optional[int]:
        """Resolve the in-cell LP count for one cell, or ``None``.

        ``"auto"`` partitions only cells big enough to amortize the
        worker processes (>= 256 nodes), only on machines with cores to
        spare, and only when the configuration is protocol-eligible;
        everything else stays sequential.
        """
        if aggregated or self.lp_workers is None:
            return None
        if self.lp_workers == "auto":
            from ..rocc.partition import parallel_ineligibility

            cpus = os.cpu_count() or 1
            if (
                cpus < 4
                or config.nodes < 256
                or parallel_ineligibility(config) is not None
            ):
                return None
            return min(4, cpus)
        return self.lp_workers if self.lp_workers >= 2 else None

    def _payload(self, config: SimulationConfig, aggregated: bool,
                 traced: bool) -> Tuple:
        return (config, aggregated, traced,
                self._lp_workers_for(config, aggregated))

    def _fingerprint(self, config: SimulationConfig,
                     aggregated: bool) -> Optional[str]:
        """Content key of one cell, or None when nothing will use it
        (no cache and no journal)."""
        if not self.cache.enabled and self.journal is None:
            return None
        key = config_fingerprint(config, aggregated)
        lp = self._lp_workers_for(config, aggregated)
        if lp is not None:
            # A partitioned run may differ from the sequential one in
            # the last ulp of a few re-associated float sums; keep the
            # two result streams cache- and journal-separate.
            key = hashlib.sha256(f"{key}|lp{lp}".encode()).hexdigest()
        return key

    def _lookup(self, key: Optional[str]) -> Optional[SimulationResults]:
        """Serve a cell without executing it — from the journal, else
        the cache — or return None."""
        if key is None:
            return None
        if self.journal is not None:
            result = self.journal.result_for(key)
            if result is not None:
                self.stats.cells_resumed += 1
                return result
        if not self.cache.enabled:
            return None
        corrupt_before = self.cache.corrupt_entries
        hit = self.cache.get(key)
        self.stats.cache_corrupt += self.cache.corrupt_entries - corrupt_before
        if hit is not None:
            self.stats.cache_hits += 1
        return hit

    # -- attempts --------------------------------------------------------
    def _execute(
        self, misses, aggregated: bool, isolate: bool
    ) -> Iterator[Tuple[int, Optional[str], _CellOutcome]]:
        """Run the cache misses; yields ``(index, key, final outcome)``."""
        traced = tracing_enabled()
        pending = [(i, config, key, 1) for i, config, key in misses]
        while pending:
            if self.workers == 1 or len(pending) == 1:
                for i, config, key, attempt in pending:
                    out, attempt = self._serial_attempts(
                        config, key, aggregated, traced, attempt
                    )
                    self._finalize(config, key, out, attempt)
                    yield i, key, out
                    if not out.ok and not isolate:
                        return  # fail fast: later cells never start
                return
            pending, delay = yield from self._pool_round(
                pending, aggregated, traced
            )
            if pending and delay > 0.0:
                time.sleep(delay)

    def _serial_attempts(self, config, key, aggregated, traced,
                         attempt: int) -> Tuple[_CellOutcome, int]:
        """Run one cell inline until success or the policy gives up;
        returns the final outcome and its attempt number."""
        while True:
            self._journal_attempt(key, attempt)
            with maybe_span(
                "attempt", cat="engine.attempt",
                args={"attempt": attempt, "key": (key or "")[:12]},
            ):
                try:
                    out = self.cell_runner(self._payload(
                        self._with_deadline(config), aggregated, traced
                    ))
                except Exception as exc:
                    # Chaos wrappers swapped into cell_runner raise by
                    # design; the stock runner never does.
                    out = _CellOutcome(
                        ok=False, error=CellError.from_exception(config, exc),
                        exc=exc,
                    )
            self._book(out)
            if not self._retrying(out, key, attempt):
                return out, attempt
            time.sleep(self.retry.delay(attempt, key or ""))
            attempt += 1

    def _pool_round(self, pending, aggregated, traced):
        """One parallel wave over *pending*; yields finished cells and
        returns ``(still_pending, backoff_delay)``."""
        pool = self._ensure_pool()
        futures = []
        for item in pending:
            i, config, key, attempt = item
            self._journal_attempt(key, attempt)
            futures.append((item, pool.submit(
                self.cell_runner,
                self._payload(self._with_deadline(config), aggregated, traced),
            )))
        next_pending: List[Tuple] = []
        delay = 0.0
        pool_failed = False
        for (i, config, key, attempt), future in futures:
            with maybe_span(
                "attempt", cat="engine.attempt",
                args={"attempt": attempt, "key": (key or "")[:12]},
            ) as span:
                try:
                    # Once the pool is known broken, the remaining
                    # futures fail (or were cancelled) immediately —
                    # keep a short guard instead of a full deadline wait.
                    wait = 15.0 if pool_failed else self._wait_timeout()
                    out = future.result(timeout=wait)
                except KeyboardInterrupt:
                    raise
                except _FuturesTimeout:
                    # The worker is hung somewhere the in-worker
                    # watchdog cannot reach; kill the pool and charge
                    # this cell.
                    out = self._timeout_outcome(config)
                    self._note_pool_failure(hard=True)
                    pool_failed = True
                except BaseException:
                    # Worker death (BrokenProcessPool) or post-reset
                    # cancellation: pool-level shrapnel.  Requeue
                    # without consuming the cell's attempt budget —
                    # bounded by degrade_after, not the retry policy.
                    if not pool_failed:
                        self._note_pool_failure(hard=False)
                        pool_failed = True
                    self._count_retry(key, attempt, "BrokenProcessPool")
                    next_pending.append((i, config, key, attempt))
                    if span is not None:
                        span.args["requeued"] = True
                    continue
                if span is not None:
                    span.args["ok"] = out.ok
            self._book(out)
            if self._retrying(out, key, attempt):
                delay = max(delay, self.retry.delay(attempt, key or ""))
                next_pending.append((i, config, key, attempt + 1))
            else:
                self._finalize(config, key, out, attempt)
                yield i, key, out
        return next_pending, delay

    # -- accounting ------------------------------------------------------
    def _book(self, out: _CellOutcome) -> None:
        """Account one executed attempt, final or retried: its wall/CPU
        time, spans, metrics delta and kernel profile."""
        _ATTEMPT_SECONDS.observe(out.wall)
        self.stats.cell_wall_time += out.wall
        self.stats.cell_cpu_time += out.cpu
        tracer = current_tracer()
        if tracer is not None and out.trace is not None:
            tracer.merge(out.trace)
        if out.metrics and out.pid != os.getpid():
            # Inline cells already published into this registry;
            # only foreign (worker) deltas need folding in.
            obs_registry().merge_snapshot(out.metrics)
        if out.profile is not None:
            self.stats.profile = merge_profiles(self.stats.profile, out.profile)
            self.stats.sim_events += out.profile["events"]

    def _retrying(self, out: _CellOutcome, key: Optional[str],
                  attempt: int) -> bool:
        """Whether a finished attempt gets another try (counted if so)."""
        if out.ok:
            return False
        if self.retry.error_class(out.error) in ("CellTimeout",
                                                 "SimulationStalled"):
            self.stats.cell_timeouts += 1
            self.failure_report.cell_timeouts += 1
            _TIMEOUTS.inc()
        if not self.retry.should_retry(out.error, attempt):
            return False
        self._count_retry(key, attempt, out.error.error)
        return True

    def _count_retry(self, key: Optional[str], attempt: int,
                     error: str) -> None:
        self.stats.retries += 1
        self.failure_report.retries += 1
        _RETRIES.inc()
        if self.journal is not None:
            self.journal.record_retry(key, attempt, error.splitlines()[0])

    def _journal_attempt(self, key: Optional[str], attempt: int) -> None:
        if self.journal is not None:
            self.journal.record_attempt(key, attempt)

    def _finalize(self, config: SimulationConfig, key: Optional[str],
                  out: _CellOutcome, attempt: int) -> None:
        """Journal and failure-report bookkeeping for a final outcome."""
        if out.ok:
            if self.journal is not None:
                self.journal.record_success(
                    key, out.result, attempt=attempt, wall=out.wall
                )
            return
        if self.journal is not None:
            self.journal.record_failure(
                key, attempt, out.error.error.splitlines()[0]
            )
        self.failure_report.add(config, key, attempt, out.error)

    # -- deadlines and pool failures -------------------------------------
    def _with_deadline(self, config: SimulationConfig) -> SimulationConfig:
        if self.cell_timeout is None:
            return config
        current = config.max_wall_seconds
        deadline = (
            self.cell_timeout if current is None
            else min(current, self.cell_timeout)
        )
        if current == deadline:
            return config
        return config.with_(max_wall_seconds=deadline)

    def _wait_timeout(self) -> Optional[float]:
        if self.cell_timeout is None:
            return None
        return self.cell_timeout * _DEADLINE_GRACE + 2.0

    def _timeout_outcome(self, config: SimulationConfig) -> _CellOutcome:
        exc = CellTimeout(
            f"cell exceeded its wall-clock deadline of "
            f"{self.cell_timeout}s (worker unresponsive; pool reset)"
        )
        return _CellOutcome(
            ok=False, error=CellError.from_exception(config, exc), exc=exc
        )

    def _note_pool_failure(self, hard: bool) -> None:
        self._pool_failures += 1
        if hard and self._pool is not None:
            # The workers may be hung, not just dead: terminate them
            # before shutting the executor down.
            for proc in list((getattr(self._pool, "_processes", None)
                              or {}).values()):
                try:
                    proc.terminate()
                except Exception:
                    pass
        self._reset_broken_pool()
        self.failure_report.pool_resets = self.stats.pool_resets
        if self._pool_failures >= self.degrade_after and self.workers > 1:
            # Graceful degradation: the pool keeps dying under us, so
            # stop using one.  Serial execution cannot lose workers.
            self.workers = 1
            self.stats.workers = 1
            self.failure_report.degraded_to_serial = True

    def _reset_broken_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self.stats.pool_resets += 1
            obs_registry().counter(
                "engine.pool_resets",
                "worker-pool restarts after breakage",
            ).inc()


# ---------------------------------------------------------------------------
# Ambient engine
# ---------------------------------------------------------------------------

_default_engine: Optional[ExperimentEngine] = None
_engine_stack: List[ExperimentEngine] = []


def current_engine() -> ExperimentEngine:
    """The innermost :func:`use_engine` engine, else a process-wide
    default built from the environment on first use."""
    if _engine_stack:
        return _engine_stack[-1]
    global _default_engine
    if _default_engine is None:
        _default_engine = ExperimentEngine()
    return _default_engine


@contextmanager
def use_engine(engine: ExperimentEngine):
    """Make *engine* ambient for ``replicate``/``sweep`` in the block."""
    _engine_stack.append(engine)
    try:
        yield engine
    finally:
        _engine_stack.pop()
