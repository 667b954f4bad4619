"""Conservative parallel execution of one partitioned ROCC simulation.

:func:`parallel_simulate` splits a cell's topology into K *logical
processes* (LPs) via :func:`~repro.rocc.partition.partition_topology`
and runs each as an independent sequential kernel in its own OS
process, synchronized by a bounded-window null-message protocol.

The eligible topologies (see
:func:`~repro.rocc.partition.parallel_ineligibility`) have a special
structure that this module exploits hard: with direct forwarding on a
contention-free network, *every* cross-LP edge points from a node LP to
the main LP.  Node LPs therefore have **no inbound edges at all** —
they can free-run through the whole simulated horizon with zero
blocking, pausing only at window boundaries to report

``("window", lp, horizon, entries)``

where *entries* are the cut-edge deliveries their boundary network
recorded (at **send** time, which is what makes the protocol sound —
see :class:`~repro.rocc.partition.LPBoundaryNetwork`).  A report with
no entries is exactly a CMB *null message*: pure lookahead information.

The coordinator runs the main LP inline.  After each batch of reports
it advances the safe bound::

    safe = min over node LPs (horizon_k + lookahead_k)

Every cut-edge delivery with timestamp ``t < safe`` is provably known
(an unreported send happens at or after ``horizon_k``, so its delivery
lands at or after ``horizon_k + lookahead_k``).  Those deliveries are
injected into the main kernel — sorted by ``(t, src_lp, seq)`` so the
injection order never depends on wall-clock message arrival — and the
main kernel runs ``until=safe`` (the kernel's stop event is URGENT, so
events exactly *at* the bound stay queued for the next window).

Determinism contract: per-node variate streams are seeded by global
stream name, so every node's event trajectory is bit-identical to the
sequential kernel.  Cross-LP *ties* (two events at exactly the same
timestamp on the main LP) may be ordered differently than sequentially;
with the model's continuous latency distributions such ties have
measure zero.  ``differential.parallel_kernel`` enforces the resulting
equivalence on every run of the verify battery.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import os
import signal
import time
from contextlib import nullcontext
from multiprocessing.connection import wait as _conn_wait
from typing import Dict, List, Optional

from ..obs.metrics import registry as obs_registry
from ..obs.spans import SIM, current_tracer, maybe_span, sim_track_pid
from .events import NORMAL, Event
from .profiling import (
    KernelProfiler,
    merge_profiles,
    profile_enabled,
    set_last_profile,
)

__all__ = ["LPWorkerLost", "parallel_simulate"]

#: Number of synchronization windows a run is divided into by default.
_DEFAULT_WINDOWS = 64

#: Env knob: explicit synchronization window length in µs.
_WINDOW_ENV = "REPRO_DES_LP_WINDOW"

#: Env knob (chaos harness): path of a marker file.  When set and the
#: marker does not exist yet, LP worker 0 creates it right after its
#: first window report and SIGKILLs itself — the coordinator then
#: raises :class:`LPWorkerLost`, and a retried attempt (which sees the
#: marker) runs clean.
_CHAOS_KILL_ENV = "REPRO_CHAOS_LP_KILL"


class LPWorkerLost(RuntimeError):
    """An LP worker process died before reporting its final aggregates.

    Raised by the coordinator when a worker's pipe hits EOF mid-run
    (crash, OOM kill, SIGKILL).  Listed in the resilience layer's
    transient set: a retried cell rebuilds every worker from scratch.
    """


def _window_length(duration: float) -> float:
    raw = os.environ.get(_WINDOW_ENV, "").strip()
    if raw:
        w = float(raw)
        if w <= 0.0:
            raise ValueError(f"{_WINDOW_ENV}={raw!r} must be positive")
        return w
    return max(duration / _DEFAULT_WINDOWS, 1.0)


def _lp_worker(conn, config, role, window: float) -> None:
    """Body of one node-LP worker process.

    Free-runs its kernel window by window, streaming cut-edge
    deliveries after each, then ships its metrics and raw aggregates.
    Any exception is reported over the pipe before exiting nonzero.
    """
    from ..rocc.system import ParadynISSystem

    try:
        chaos_marker = os.environ.get(_CHAOS_KILL_ENV)
        system = ParadynISSystem(config, lp_role=role)
        env = system.env
        outbox = role.outbox
        duration = config.duration
        profiler = KernelProfiler(env) if profile_enabled() else None

        sent = 0
        horizon = 0.0
        w = 0
        with profiler or nullcontext():
            while horizon < duration:
                w += 1
                horizon = min(duration, w * window)
                env.run(until=horizon)
                conn.send(("window", role.lp_index, horizon, outbox[sent:]))
                sent = len(outbox)
                if (
                    chaos_marker
                    and role.lp_index == 0
                    and not os.path.exists(chaos_marker)
                ):
                    with open(chaos_marker, "w"):
                        pass
                    os.kill(os.getpid(), signal.SIGKILL)

        payload = {
            "metrics": system.metrics,
            "agg": system._raw_aggregates(),
            "windows": w,
            "profile": profiler.report() if profiler is not None else None,
        }
        conn.send(("done", role.lp_index, payload))
    except BaseException as exc:  # noqa: BLE001 - relayed to coordinator
        try:
            conn.send(("error", getattr(role, "lp_index", -1), repr(exc)))
        except (BrokenPipeError, OSError):
            pass
        raise
    finally:
        conn.close()


class _Deliver:
    """Injected cut-edge delivery: calls the main process's inbox."""

    __slots__ = ("deliver", "payload")

    def __init__(self, deliver, payload):
        self.deliver = deliver
        self.payload = payload

    def __call__(self, _event) -> None:
        self.deliver(self.payload)


def parallel_simulate(config, lp_workers: int, window: Optional[float] = None):
    """Run *config* on ``lp_workers`` node LPs plus the inline main LP.

    Falls back to the sequential kernel when the configuration is
    ineligible or the partition degenerates to a single LP.  Returns a
    :class:`~repro.rocc.metrics.SimulationResults` assembled through
    the same code path as a sequential run.
    """
    from ..rocc.partition import LPRole, parallel_ineligibility, partition_topology
    from ..rocc.system import ParadynISSystem, assemble_results

    if parallel_ineligibility(config) is not None or lp_workers < 2:
        return ParadynISSystem(config).run()
    plan = partition_topology(config, lp_workers)
    k = plan.lp_count
    if k < 2:
        return ParadynISSystem(config).run()

    duration = config.duration
    win = _window_length(duration) if window is None else float(window)
    la_map = plan.lookahead_into(plan.main_lp)

    ctx = mp.get_context("fork")
    procs: List = []
    conn_by_fd: Dict = {}
    lp_of_conn: Dict = {}
    try:
        for lp in range(k):
            lo, hi = plan.ranges[lp]
            role = LPRole(
                lp_index=lp, node_lo=lo, node_hi=hi,
                include_main=False, plan=plan,
            )
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_lp_worker,
                args=(child_conn, config, role, win),
                name=f"repro-lp{lp}",
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            conn_by_fd[parent_conn.fileno()] = parent_conn
            lp_of_conn[parent_conn.fileno()] = lp

        main_role = LPRole(
            lp_index=plan.main_lp, node_lo=0, node_hi=0,
            include_main=True, plan=plan,
        )
        system = ParadynISSystem(config, lp_role=main_role)
        env = system.env
        main = system.main

        tracer = current_tracer()
        pid = 0
        if tracer is not None:
            system._attach_observability(tracer)
            pid = sim_track_pid(system._run_label())
            for lp in range(k):
                lo, hi = plan.ranges[lp]
                tracer.name_thread(pid, f"lp{lp}", f"LP {lp}: nodes [{lo},{hi})")

        horizons = [0.0] * k
        done: List[Optional[dict]] = [None] * k
        #: Per-LP min-heap of pending deliveries ``(t, seq, payload)``.
        buffers = [[] for _ in range(k)]
        sync_waits = 0
        null_messages = 0
        total_windows = 0
        last_safe = 0.0

        def handle(conn) -> None:
            nonlocal null_messages, total_windows
            fd = conn.fileno()
            lp = lp_of_conn[fd]
            try:
                msg = conn.recv()
            except EOFError:
                raise LPWorkerLost(
                    f"LP worker {lp} died at horizon {horizons[lp]:g} µs "
                    f"(of {duration:g})"
                ) from None
            kind = msg[0]
            if kind == "window":
                _, _, horizon, entries = msg
                if tracer is not None:
                    tracer.add_span(
                        "lp-window", cat="parallel", ts=horizons[lp],
                        dur=horizon - horizons[lp], tid=f"lp{lp}", pid=pid,
                        domain=SIM, args={"deliveries": len(entries)},
                    )
                horizons[lp] = horizon
                total_windows += 1
                if not entries:
                    null_messages += 1
                buf = buffers[lp]
                for t, _dst_lp, _dst_node, payload, seq in entries:
                    # A delivery the sequential kernel would never
                    # process (completion at or past end of run).
                    if t < duration:
                        heapq.heappush(buf, (t, seq, payload))
            elif kind == "done":
                done[lp] = msg[2]
                horizons[lp] = duration
                del conn_by_fd[fd]
                conn.close()
            else:  # "error"
                raise RuntimeError(f"LP worker {lp} failed: {msg[2]}")

        def inject_up_to(limit: float) -> None:
            batch = []
            for lp in range(k):
                buf = buffers[lp]
                while buf and buf[0][0] < limit:
                    t, seq, payload = heapq.heappop(buf)
                    batch.append((t, lp, seq, payload))
            batch.sort(key=lambda e: (e[0], e[1], e[2]))
            now = env.now
            deliver = main.deliver
            for t, _lp, _seq, payload in batch:
                ev = Event(env)
                ev._ok = True
                ev._value = None
                ev.callbacks.append(_Deliver(deliver, payload))
                env.schedule(ev, NORMAL, t - now)

        t0 = time.perf_counter()
        profiler = KernelProfiler(env) if profile_enabled() else None
        with profiler or nullcontext(), maybe_span(
            "simulate", cat="run",
            args={
                "config": system._run_label(),
                "duration_us": duration,
                "lp_workers": k,
            },
        ):
            while True:
                safe = min(duration, min(
                    horizons[lp] + la_map.get(lp, 0.0) for lp in range(k)
                ))
                if safe > last_safe:
                    inject_up_to(safe)
                    if safe > env.now:
                        env.run(until=safe)
                    last_safe = safe
                if all(d is not None for d in done):
                    break
                sync_waits += 1
                for conn in _conn_wait(list(conn_by_fd.values())):
                    handle(conn)

        for proc in procs:
            proc.join()

        if tracer is not None:
            system._finish_observability()

        # Merge: the main LP's metrics hold every receipt; node LP
        # fragments contribute generation, forwarding, and per-node
        # counters, folded in ascending LP (= ascending node) order.
        metrics = system.metrics
        agg = system._raw_aggregates()
        profile = profiler.report() if profiler is not None else None
        for lp in range(k):
            payload = done[lp]
            metrics.merge(payload["metrics"])
            agg.merge(payload["agg"])
            if profile is not None and payload["profile"] is not None:
                profile = merge_profiles(profile, payload["profile"])
        if profiler is not None:
            set_last_profile(profile)

        la = plan.min_lookahead
        agg.obs_info = dict(agg.obs_info)
        agg.obs_info.update({
            "lp_workers": k,
            "lookahead_us": la if la != float("inf") else 0.0,
            "lp_windows": total_windows,
            "lp_sync_waits": sync_waits,
            "null_messages": null_messages,
        })

        system._publish_metrics()
        reg = obs_registry()
        reg.counter(
            "parallel.lp_sync_waits",
            "coordinator blocks waiting on LP window reports",
        ).inc(sync_waits)
        reg.counter(
            "parallel.null_messages",
            "LP window reports carrying no cut-edge deliveries",
        ).inc(null_messages)
        reg.gauge(
            "parallel.lookahead_ns",
            "cut-edge lookahead of the most recent partition",
        ).set((la if la != float("inf") else 0.0) * 1000.0)
        reg.histogram(
            "rocc.run_wall_seconds", "wall time of one simulation run"
        ).observe(time.perf_counter() - t0)

        return assemble_results(config, metrics, agg)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=10.0)
        for conn in conn_by_fd.values():
            conn.close()
