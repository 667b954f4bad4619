"""The repository benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload now_sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``now_sweep``, ``ref_cells``,
``cached_replay``.  The seed is applied to every generated config; the
program under test receives only those configs.  Passes of the
workload repeat until ``--seconds`` of timed wall clock have elapsed.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` — median over fresh interpreters of the time from process
  start to the first timed call (import, then workload set-up, which
  for ``cached_replay`` fills the cache);
* ``cells_per_s`` — cells delivered (simulated or served from cache)
  per second of timed wall clock;
* ``cpu_s_per_cell`` — user + system CPU of this process and its pool
  workers per delivered cell;
* ``peak_rss_mb`` — largest peak RSS of this process or any worker.

``--trace 1`` spends half the time untraced and half traced and reports
the per-layer metrics instead (``PER_LAYER``; a layer the workload does
not exercise reports 0), writing its spans to
``.perfbench/trace-<workload>-seed<seed>.json``.  Human-readable lines
(including ``failed_frac``) come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every delivered cell
passed the correctness gate (``gate.py``), 1 when one failed, 2 when
the benchmark could not run at all (for instance without ``src/``).

``--record`` stores the run's digest and exact counters for its seed
in ``reference.json``; later runs of that seed must match them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "cpu_s_per_cell": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.fill_s": "s",
    "rocc.build_s": "s/cell",
    "rocc.run_s": "s/cell",
    "rocc.samples_received": "count",
    "rocc.events_per_sample": "ratio",
    "rocc.cpu_s": "s/cell",
    "rocc.network_s": "s/cell",
    "rocc.pipes_s": "s/cell",
    "rocc.holds_s": "s/cell",
    "des.events": "count",
    "des.enqueues": "count",
    "des.queue_resizes": "count",
    "des.us_per_event": "us",
    "des.schedule_depth_mean": "events",
    "des.schedule_depth_max": "events",
    "engine.fingerprint_s": "s/call",
    "engine.cache_get_s": "s/call",
    "engine.cache_put_s": "s/call",
    "engine.result_bytes": "bytes",
    "engine.worker_utilization": "ratio",
    "engine.overhead_s": "s",
    "engine.cache_hits": "count",
    "engine.cells_run": "count",
    "planner.screen_s": "s/call",
    "planner.cells_pruned": "count",
    "planner.replications_saved": "count",
    "expdesign.allocate_variation_s": "s/call",
    "obs.trace_overhead": "ratio",
    "trace.unattributed_frac": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store digest and exact counters for this seed")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def clean_environment(workdir: Path) -> None:
    """Run the program at its defaults, caching only inside *workdir*."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default_cache")


def import_program() -> float:
    """Import the program from this checkout; returns the import time."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import repro.experiments  # noqa: F401
    import repro.planner  # noqa: F401
    import repro.rocc  # noqa: F401
    elapsed = perf_counter() - t0
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")
    return elapsed


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped workers."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mib() -> float:
    """Largest peak RSS of this process and of any reaped worker."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
               ) / 1024.0


def measure(wl, seconds: float, gate, problems: list, spans=None):
    """Run passes until *seconds* of timed wall clock have elapsed.

    Each pass is gated as soon as it ends, outside the timed region,
    and its cells are released so the harness holds no results.
    A pass that raised counts all of its cells as failed and ends the
    measurement.
    """
    from tracing import Spans
    from workloads import Pass

    passes, timed = [], 0.0
    while timed < seconds:
        wl.before_pass()
        c0, t0 = cpu_seconds(), perf_counter()
        root = len(spans.records) if spans is not None else None
        try:
            with Spans.maybe(spans, "pass"):
                out = wl.run_pass(spans)
        except Exception as exc:  # a raising pass is a counted failure
            problems.append(f"pass {len(passes)} raised "
                            f"{type(exc).__name__}: {exc}")
            n = len(wl.configs())
            passes.append(Pass(wall=perf_counter() - t0, n_cells=n, failed=n))
            return passes
        out.wall = perf_counter() - t0
        out.cpu = cpu_seconds() - c0
        if spans is not None:
            out.layers.update(span_layers(spans, root))
        problems += [f"pass {len(passes)}: {m}" for m in gate.check(out)]
        out.n_cells, out.cells = len(out.cells), []
        passes.append(out)
        timed += out.wall
    return passes


def span_layers(spans, root: int) -> dict:
    """Per-call means and the unattributed share of one traced pass."""
    dur = spans.records[root][2] - spans.records[root][1]
    return {
        "engine.fingerprint_s": spans.mean("fingerprint", root),
        "engine.cache_get_s": spans.mean("cache.get", root),
        "engine.cache_put_s": spans.mean("cache.put", root),
        "planner.screen_s": spans.mean("screen", root),
        "expdesign.allocate_variation_s": spans.mean("allocate_variation", root),
        "trace.unattributed_frac": (
            1.0 - spans.covered(root) / dur if dur > 0 else 0.0),
    }


def cells_per_s(passes) -> float:
    """Cells delivered per second of timed wall clock."""
    wall = sum(p.wall for p in passes)
    return sum(p.n_cells for p in passes) / wall if wall else 0.0


def cpu_per_cell(passes) -> float:
    """CPU seconds (this process and its workers) per delivered cell."""
    cells = sum(p.n_cells for p in passes)
    return sum(p.cpu for p in passes) / cells if cells else 0.0


def layer_metrics(passes, untraced, traced, import_s: float,
                  fill_s: float) -> dict:
    """Every per-layer metric: medians over the traced passes."""
    out = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        vals = [p.counters.get(name, p.layers.get(name)) for p in passes]
        vals = [v for v in vals if v is not None]
        if vals:
            out[name] = median(vals)
    events, samples = out["des.events"], out["rocc.samples_received"]
    out["rocc.events_per_sample"] = events / samples if samples else 0.0
    out["setup.import_s"] = import_s
    out["setup.fill_s"] = fill_s
    out["obs.trace_overhead"] = untraced / traced if traced else 0.0
    return out


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until a workload's
    first timed call could begin (import + set-up)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "READY":
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return ready


def record(wl, passes) -> None:
    import gate

    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    counters = {}
    for p in passes:
        counters.update({k: v for k, v in p.counters.items()
                         if k in gate.EXACT_COUNTERS})
    ref.setdefault("seeds", {}).setdefault(wl.name, {})[str(wl.seed)] = {
        "digest": passes[0].digest,
        "counters": dict(sorted(counters.items())),
    }
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=False) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    clean_environment(workdir)
    try:
        return _run(args, scratch, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, scratch: Path, workdir: Path) -> int:
    try:
        import_s = import_program()
        sys.path.insert(0, str(HERE))
        import gate
        import workloads
        from tracing import Spans
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
    except KeyError as exc:
        print(f"perfbench: {exc.args[0]}", file=sys.stderr)
        return 2

    wl.setup()
    if args.setup_probe:
        print("READY", flush=True)
        return 0

    reference = None
    if REFERENCE.exists() and not args.record:
        reference = json.loads(REFERENCE.read_text()).get(
            "seeds", {}).get(wl.name, {}).get(str(wl.seed))
    checker = gate.Gate(reference, getattr(wl, "filled", None),
                        paper_direction=wl.name == "now_sweep")
    problems: list = []
    if args.trace:
        untraced = measure(wl, args.seconds / 2, checker, problems)
        spans, traced = Spans(), []
        if not problems:
            workloads.set_profiling(True)
            traced = measure(wl, args.seconds / 2, checker, problems, spans)
            workloads.set_profiling(False)
        spans.dump(scratch / f"trace-{wl.name}-seed{wl.seed}.json")
        passes = untraced + traced
        metrics = layer_metrics(traced, cells_per_s(untraced),
                                cells_per_s(traced), import_s, wl.fill_s)
        units = PER_LAYER
    else:
        passes = measure(wl, args.seconds, checker, problems)
        rss = peak_rss_mib()
        try:
            setups = [setup_probe(wl.name, wl.seed)
                      for _ in range(SETUP_REPEATS)]
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        metrics = {
            "setup_s": median(setups),
            "cells_per_s": cells_per_s(passes),
            "cpu_s_per_cell": cpu_per_cell(passes),
            "peak_rss_mb": rss,
        }
        units = END_TO_END
    attempted = sum(p.n_cells for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not problems

    if correct and args.record:
        record(wl, passes)
    for m in problems[:20]:
        print(f"FAILED {m}")
    print(f"{wl.name} seed={wl.seed}: {len(passes)} passes, "
          f"{attempted} cells attempted, {failed} failed")
    print(f"  failed_frac = {failed / attempted if attempted else 1.0:.6g} ratio")
    for name, value in metrics.items():
        print(f"  {name} = {value:.10g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
