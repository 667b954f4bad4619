"""Partitioned parallel kernel: equivalence, fallback, fault recovery."""

import pytest

from repro.experiments.engine import CellCache, ExperimentEngine
from repro.experiments.resilience import DEFAULT_TRANSIENT, RetryPolicy
from repro.des.parallel import LPWorkerLost, parallel_simulate
from repro.rocc import Architecture, ForwardingTopology, SimulationConfig, simulate
from repro.rocc.config import NetworkMode
from repro.verify.differential import diff_results

#: Fields whose sequential values are float sums accumulated in one
#: global order; partitioned runs re-associate them (per-LP partial
#: sums), so they may differ in the last ulp.
ULP = ("network_utilization", "pd_network_utilization", "pipe_blocked_time")
IGNORE = ULP + ("observability",)


def _assert_equivalent(seq, par):
    assert diff_results(seq, par, ignore=IGNORE) == []
    for f in ULP:
        a, b = getattr(seq, f), getattr(par, f)
        assert a == pytest.approx(b, rel=1e-9), f


@pytest.fixture(scope="module")
def mpp_config():
    return SimulationConfig(
        architecture=Architecture.MPP, nodes=8, duration=250_000.0,
        app_processes_per_node=2, seed=13,
    )


@pytest.fixture(scope="module")
def mpp_sequential(mpp_config):
    return simulate(mpp_config)


def test_two_lp_equivalence(mpp_config, mpp_sequential):
    _assert_equivalent(mpp_sequential, simulate(mpp_config, lp_workers=2))


def test_uneven_partition_equivalence(mpp_config, mpp_sequential):
    # 8 nodes over 3 LPs: ranges of 3/3/2 — exercises the uneven split.
    _assert_equivalent(mpp_sequential, simulate(mpp_config, lp_workers=3))


def test_now_cf_with_warmup_equivalence():
    cfg = SimulationConfig(
        architecture=Architecture.NOW, nodes=6,
        network_mode=NetworkMode.CONTENTION_FREE,
        duration=200_000.0, warmup=40_000.0, seed=21,
    )
    _assert_equivalent(simulate(cfg), simulate(cfg, lp_workers=2))


def test_parallel_run_is_replayable(mpp_config):
    # The coordinator's injection order is wall-clock independent, so a
    # parallel run replays bit-identically (including the ulp fields).
    a = simulate(mpp_config, lp_workers=2)
    b = simulate(mpp_config, lp_workers=2)
    assert diff_results(a, b, ignore=("observability",)) == []


def test_single_lp_request_stays_sequential(mpp_config, mpp_sequential):
    out = simulate(mpp_config, lp_workers=1)
    assert diff_results(mpp_sequential, out, ignore=("observability",)) == []
    assert "lp_workers" not in out.observability


def test_env_knob_enables_parallelism(mpp_config, monkeypatch):
    monkeypatch.setenv("REPRO_DES_PARALLEL", "2")
    out = simulate(mpp_config)
    assert out.observability.get("lp_workers") == 2


def test_ineligible_config_falls_back(mpp_sequential, mpp_config):
    treed = mpp_config.with_(forwarding=ForwardingTopology.TREE)
    seq = simulate(treed)
    par = simulate(treed, lp_workers=4)
    assert diff_results(seq, par, ignore=("observability",)) == []
    assert "lp_workers" not in par.observability
    assert "lp_fallback" not in seq.observability


def test_fallback_reason_recorded_for_mpp_tree_cell():
    """A 64-node MPP tree cell asked for 2 LPs says why it ran
    sequentially."""
    cfg = SimulationConfig(
        architecture=Architecture.MPP, nodes=64,
        forwarding=ForwardingTopology.TREE, duration=50_000.0, seed=5,
    )
    out = simulate(cfg, lp_workers=2)
    assert out.observability["lp_fallback"].startswith("tree forwarding")
    assert "lp_workers" not in out.observability
    assert "lp_fallback" not in simulate(cfg, lp_workers=1).observability


def test_window_env_knob(mpp_config, monkeypatch):
    monkeypatch.setenv("REPRO_DES_LP_WINDOW", "50000")
    out = simulate(mpp_config, lp_workers=2)
    # 250 ms over 50 ms windows: 5 windows per LP.
    assert out.observability["lp_windows"] == 10
    seq = simulate(mpp_config)
    _assert_equivalent(seq, out)


def test_parallel_observability_metadata(mpp_config):
    out = simulate(mpp_config, lp_workers=2)
    obs = out.observability
    assert obs["lp_workers"] == 2
    assert obs["lookahead_us"] == 0.0  # exponential network costs
    assert obs["lp_sync_waits"] >= 1
    assert obs["null_messages"] >= 0


# ---------------------------------------------------------------------------
# Fault injection: a SIGKILLed LP worker is retried cleanly
# ---------------------------------------------------------------------------


def test_lp_worker_lost_is_transient():
    assert "LPWorkerLost" in DEFAULT_TRANSIENT


def test_killed_lp_worker_raises(mpp_config, tmp_path, monkeypatch):
    marker = tmp_path / "lp-kill"
    monkeypatch.setenv("REPRO_CHAOS_LP_KILL", str(marker))
    with pytest.raises(LPWorkerLost):
        parallel_simulate(mpp_config, 2)
    assert marker.exists()


def test_resilient_engine_retries_killed_lp_worker(
    mpp_config, mpp_sequential, tmp_path, monkeypatch
):
    """An LP worker SIGKILLed mid-window: the cell fails with
    LPWorkerLost, the retrying engine runs it again, and the second attempt
    (chaos marker present) reproduces the sequential results."""
    marker = tmp_path / "lp-kill-retried"
    monkeypatch.setenv("REPRO_CHAOS_LP_KILL", str(marker))
    with ExperimentEngine(
        workers=1,
        cache=CellCache(enabled=False),
        retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        lp_workers=2,
    ) as engine:
        (result,) = engine.run_cells([mpp_config])
    assert engine.stats.retries == 1
    assert marker.exists()
    _assert_equivalent(mpp_sequential, result)


def test_engine_auto_stays_sequential_for_small_cells(
    mpp_config, mpp_sequential
):
    with ExperimentEngine(
        workers=1, cache=CellCache(enabled=False), lp_workers="auto"
    ) as engine:
        (result,) = engine.run_cells([mpp_config])
    # 8 nodes is far below the auto threshold: bit-identical everywhere.
    assert diff_results(mpp_sequential, result,
                        ignore=("observability",)) == []


def test_engine_fingerprint_separates_parallel_results(mpp_config, tmp_path):
    seq_engine = ExperimentEngine(workers=1, cache=CellCache(enabled=True))
    par_engine = ExperimentEngine(
        workers=1, cache=CellCache(enabled=True), lp_workers=4
    )
    # A journal needs keys even with the cache off; they must carry the
    # same LP salt, or --resume would mix partitioned and sequential runs.
    journal_engine = ExperimentEngine(
        workers=1, cache=CellCache(enabled=False), lp_workers=4,
        journal=tmp_path / "run.jsonl",
    )
    try:
        a = seq_engine._fingerprint(mpp_config, False)
        b = par_engine._fingerprint(mpp_config, False)
        c = journal_engine._fingerprint(mpp_config, False)
        assert a != b
        assert c == b
    finally:
        seq_engine.close()
        par_engine.close()
        journal_engine.close()
