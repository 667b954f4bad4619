"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.experiments.engine import config_fingerprint  # noqa: E402
from repro.rocc.config import SimulationConfig  # noqa: E402
from repro.rocc.system import simulate  # noqa: E402
from tracing import Spans, union_length  # noqa: E402


def _pass(n_cells, wall, cpu=0.0, **kw):
    return workloads.Pass(n_cells=n_cells, wall=wall, cpu=cpu, **kw)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert union_length([(2.0, 3.0), (0.0, 5.0)]) == 5.0


def test_unattributed_share_of_a_pass():
    spans = Spans()
    spans.records = [
        ["pass", 0.0, 10.0, None, None],
        ["run_design", 1.0, 6.0, 0, None],
        ["run_cells", 2.0, 5.0, 1, None],  # nested: already covered
        ["allocate_variation", 8.0, 9.0, 0, None],
        ["other_pass", 20.0, 30.0, None, None],  # not a descendant
    ]
    layers = run.span_layers(spans, 0)
    assert layers["trace.unattributed_frac"] == pytest.approx(0.4)
    assert layers["expdesign.allocate_variation_s"] == pytest.approx(1.0)
    assert layers["planner.screen_s"] == 0.0


def test_end_to_end_arithmetic_uses_timed_totals():
    passes = [_pass(10, 2.0, cpu=4.0), _pass(20, 1.0, cpu=3.0),
              _pass(10, 1.0, cpu=1.0)]
    assert run.cells_per_s(passes) == pytest.approx(10.0)
    assert run.cpu_per_cell(passes) == pytest.approx(0.2)
    assert run.cells_per_s([]) == 0.0


def test_layer_metrics_ratios():
    traced = [
        _pass(2, 1.0, counters={"des.events": 100,
                                "rocc.samples_received": 4},
              layers={"rocc.run_s": 0.5}),
        _pass(2, 1.0, counters={"des.events": 100,
                                "rocc.samples_received": 4},
              layers={"rocc.run_s": 0.7}),
    ]
    m = run.layer_metrics(traced, untraced=3.0, traced=2.0,
                          import_s=0.4, fill_s=0.0)
    assert set(m) == set(run.PER_LAYER)
    assert m["rocc.events_per_sample"] == 25.0
    assert m["rocc.run_s"] == pytest.approx(0.6)
    assert m["obs.trace_overhead"] == 1.5
    assert m["setup.import_s"] == 0.4


def test_compare_counters_reports_only_exact_mismatches():
    seen = {"des.events": 10, "engine.cache_hits": 1}
    assert gate.compare_counters(seen, {"des.events": 10}, "ref") == []
    assert gate.compare_counters(seen, {"des.events": 11}, "ref") == [
        "des.events = 10 but ref has 11"]
    # Not an exact gate counter: never compared.
    assert gate.compare_counters(seen, {"engine.cache_hits": 2}, "ref") == []


@pytest.fixture(scope="module")
def small_cells():
    cfgs = [SimulationConfig(nodes=2, duration=200_000.0, seed=s,
                             batch_size=b)
            for s, b in ((1, 1), (2, 8))]
    return [(cfg, simulate(cfg)) for cfg in cfgs]


def test_gate_accepts_clean_and_rejects_one_perturbed_field(small_cells):
    clean = workloads.Pass(cells=list(small_cells))
    assert gate.Gate().check(clean) == []
    reference = {"digest": clean.digest, "counters": dict(clean.counters)}

    cfg, res = small_cells[1]
    one_ulp = math.nextafter(res.pd_cpu_time_per_node, math.inf)
    bumped = replace(res, pd_cpu_time_per_node=one_ulp)
    perturbed = workloads.Pass(cells=[small_cells[0], (cfg, bumped)])
    problems = gate.Gate(reference).check(perturbed)
    assert "digest differs from reference.json" in problems
    assert perturbed.failed == 2


def test_gate_audits_invariants_without_a_reference(small_cells):
    cfg, res = small_cells[0]
    broken = replace(res, samples_received=res.samples_generated + 1)
    p = workloads.Pass(cells=[(cfg, broken)])
    problems = gate.Gate().check(p)
    assert problems and p.failed == 1


def test_gate_flags_replay_that_differs_from_setup(small_cells):
    cfg, res = small_cells[0]
    changed = replace(res, samples_received=res.samples_received + 1)
    p = workloads.Pass(cells=[(cfg, changed)])
    problems = gate.Gate(expected=small_cells[:1]).check(p)
    assert problems == ["cell 0: replay differs from set-up"]


def test_paper_direction_check(small_cells):
    cf, bf = small_cells  # batch 1 vs batch 8
    assert gate.bf_below_cf([cf, bf]) == []
    swapped = [(cf[0], bf[1]), (bf[0], cf[1])]
    assert gate.bf_below_cf(swapped)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_argument_changes_generated_configs(name, tmp_path):
    def keys(seed):
        cfgs = workloads.make(name, seed, tmp_path).configs()
        assert {c.seed for c in cfgs} == {seed}
        return [config_fingerprint(c) for c in cfgs]

    assert keys(1) == keys(1)
    assert keys(1) != keys(2)


def test_cached_replay_pass_with_a_cache_miss_is_flagged(tmp_path):
    wl = workloads.make("cached_replay", 3, tmp_path)
    # A shortened design keeps the test quick; the replay logic is the same.
    wl.spec = replace(wl.spec, make=lambda r, make=wl.spec.make: replace(
        make(r), duration=100_000.0))
    wl.groups = workloads._rep_groups(wl.spec)
    wl.setup()

    ok = wl.run_pass()
    assert ok.problems == [] and ok.counters["engine.cells_run"] == 0
    assert gate.Gate(expected=wl.filled).check(ok) == []

    victim = next(wl.cache_dir.rglob("*.pkl"))
    victim.unlink()
    missed = wl.run_pass()
    assert missed.counters["engine.cells_run"] >= 1
    assert any("cache miss" in m for m in missed.problems)
    assert gate.Gate(expected=wl.filled).check(missed)


def test_unknown_workload_is_rejected(tmp_path):
    with pytest.raises(KeyError):
        workloads.make("nope", 1, tmp_path)


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
