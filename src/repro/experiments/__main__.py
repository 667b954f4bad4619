"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro.experiments list
    python -m repro.experiments table4
    python -m repro.experiments figure17 figure18
    python -m repro.experiments all            # everything, quick mode
    python -m repro.experiments all --full     # paper-scale (slow)
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .registry import get, list_experiments


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce tables/figures from the Paradyn IS paper",
    )
    parser.add_argument(
        "ids",
        nargs="+",
        help="experiment ids (e.g. table4 figure17), 'list', or 'all'",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at paper scale instead of quick mode",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also save each artifact as <DIR>/<id>.json (+ .txt)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run simulation cells on N worker processes "
        "(default: $REPRO_WORKERS or 1)",
    )
    parser.add_argument(
        "--lp-workers",
        default=None,
        metavar="K",
        help="partition each eligible simulation cell across K parallel "
        "LP worker processes, or 'auto' to partition only big cells on "
        "multi-core machines; multiplies with --workers "
        "(default: $REPRO_DES_PARALLEL, else sequential)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the content-addressed cell cache",
    )
    parser.add_argument(
        "--workload",
        metavar="NAME[:k=v,...]",
        default=None,
        help="open-workload traffic spec passed to experiments that "
        "accept one (e.g. open_workload; 'stationary:rate=200', "
        "'open:avg_users=100,rpm=60')",
    )
    parser.add_argument(
        "--plan",
        action="store_true",
        help="run planned experiments (planned_now, ...) under the "
        "hybrid analytic-simulation planner; also enables forwarding "
        "--ci-target/--budget to them",
    )
    parser.add_argument(
        "--ci-target",
        type=float,
        default=None,
        metavar="FRACTION",
        help="adaptive-replication precision target: relative 90%% CI "
        "half-width per cell (planner default: 0.35)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="cap on total simulated cell-replications for a planned "
        "design (default: the fixed-r baseline count)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock deadline: a cell exceeding it is "
        "aborted (in-worker watchdog, plus a parent-side guard for "
        "hung workers) and retried per --max-retries",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per cell for transient failures (worker death, "
        "stalls, deadline breaches); 0 disables retrying (default: 2)",
    )
    parser.add_argument(
        "--resume",
        metavar="JOURNAL",
        default=None,
        help="record every cell attempt/success/failure to this JSONL "
        "run journal and, when it already exists, serve completed "
        "cells from it instead of re-simulating them",
    )
    parser.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="with --no-strict, cells that exhaust their retries are "
        "reported in a failure report and the run continues with "
        "partial results instead of aborting",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the simulation kernel in every executed cell and "
        "print the merged profile (implies --no-cache so cells run)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="record spans of every executed cell and write a trace to "
        "PATH (.jsonl for JSONL, otherwise Chrome trace_event JSON "
        "loadable in Perfetto; implies --no-cache so cells run; "
        "default: $REPRO_TRACE)",
    )
    args = parser.parse_args(argv)

    if args.ids == ["list"]:
        for e in list_experiments():
            print(f"{e.id:10s} {e.title}")
        return 0

    ids = args.ids
    if ids == ["all"]:
        ids = [e.id for e in list_experiments()]

    from .engine import CellCache, ExperimentEngine, use_engine
    from .resilience import RetryPolicy

    if args.profile:
        import os

        os.environ["REPRO_PROFILE"] = "1"

    from ..obs import (
        export_trace,
        registry,
        summarize,
        trace_path_from_env,
        use_tracing,
    )
    from contextlib import ExitStack

    trace_out = args.trace_out or trace_path_from_env()

    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    lp_workers = args.lp_workers
    if lp_workers is not None and lp_workers != "auto":
        try:
            lp_workers = int(lp_workers)
        except ValueError:
            parser.error("--lp-workers must be an integer or 'auto'")
        if lp_workers < 1:
            parser.error(f"--lp-workers must be >= 1, got {lp_workers}")
    if args.ci_target is not None and args.ci_target <= 0:
        parser.error("--ci-target must be positive")
    if args.budget is not None and args.budget < 1:
        parser.error("--budget must be >= 1")
    plan = None
    if args.plan or args.ci_target is not None or args.budget is not None:
        from ..planner import PlannerConfig, ReplicationPolicy

        replication = ReplicationPolicy()
        if args.ci_target is not None:
            replication = ReplicationPolicy(ci_target=args.ci_target)
        plan = PlannerConfig(replication=replication, budget=args.budget)
        # --plan routes the classic factorial ids to their planned
        # variants; the planned_* ids also take the flags directly.
        planned_alias = {
            "table4": "planned_now",
            "table5": "planned_smp",
            "table6": "planned_mpp",
            "figure30": "planned_validation",
        }
        if args.plan:
            ids = [planned_alias.get(i, i) for i in ids]
    workload = None
    if args.workload is not None:
        from ..workload.generators import TrafficSpec

        try:
            workload = TrafficSpec.parse(args.workload)
            workload.validate()
        except ValueError as exc:
            parser.error(str(exc))
    engine = ExperimentEngine(
        workers=args.workers,
        lp_workers=lp_workers,
        cache=(
            CellCache(enabled=False)
            if (args.no_cache or args.profile or trace_out)
            else None
        ),
        retry=RetryPolicy(max_attempts=args.max_retries + 1),
        cell_timeout=args.cell_timeout,
        journal=args.resume,
        strict=args.strict,
    )
    status = 0
    with ExitStack() as stack:
        stack.enter_context(engine)
        stack.enter_context(use_engine(engine))
        tracer = (
            stack.enter_context(use_tracing()) if trace_out else None
        )
        for id_ in ids:
            try:
                experiment = get(id_)
            except KeyError as exc:
                print(exc, file=sys.stderr)
                status = 2
                continue
            extra = {}
            if workload is not None and experiment.accepts("workload"):
                extra["workload"] = workload
            if plan is not None and experiment.accepts("plan"):
                extra["plan"] = plan
            t0 = time.time()
            if tracer is not None:
                with tracer.span(id_, cat="experiment"):
                    artifact = experiment.run(quick=not args.full, **extra)
            else:
                artifact = experiment.run(quick=not args.full, **extra)
            elapsed = time.time() - t0
            print(artifact.format())
            if args.out:
                from pathlib import Path

                from .reporting import save_artifact

                path = save_artifact(artifact, Path(args.out) / f"{id_}.json")
                print(f"[saved to {path}]")
            print(f"\n[{id_} completed in {elapsed:.1f}s]\n")
        print(f"[engine: {engine.stats.summary()}]", file=sys.stderr)
        if engine.failure_report:
            print(engine.failure_report.format(), file=sys.stderr)
            status = status or 1
        if args.profile and engine.stats.profile is not None:
            from ..des.profiling import format_profile

            print(format_profile(engine.stats.profile), file=sys.stderr)
        if tracer is not None:
            path = export_trace(tracer, trace_out, registry())
            print(summarize(tracer, registry()), file=sys.stderr)
            print(f"[trace written to {path}]", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
