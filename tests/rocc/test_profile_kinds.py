"""The kernel profile's event-kind names.

``by_kind`` keys come from :func:`repro.des.profiling.event_kind`; the
benchmark's per-layer rows (``rocc.cpu_s``, ``rocc.network_s``, ...) are
looked up by these names, so a renamed kind would silently read 0.
"""

from repro.des.profiling import take_last_profile
from repro.rocc.config import Architecture, ForwardingTopology, SimulationConfig
from repro.rocc.system import ParadynISSystem

NOW_CELL = SimulationConfig(architecture=Architecture.NOW, nodes=4,
                            duration=200_000.0, seed=1)


def _profile(monkeypatch, cfg):
    monkeypatch.setenv("REPRO_PROFILE", "1")
    take_last_profile()
    system = ParadynISSystem(cfg)
    system.run()
    profile = take_last_profile()
    assert profile is not None
    return system, profile


def test_mpp_tree_cell_kinds(monkeypatch):
    cfg = SimulationConfig(architecture=Architecture.MPP, nodes=8,
                           forwarding=ForwardingTopology.TREE,
                           duration=200_000.0, seed=1)
    _, profile = _profile(monkeypatch, cfg)
    assert {"cpudone", "cpuslice", "storeget", "timeout", "transfer"} <= set(
        profile["by_kind"]
    )


def test_now_cell_kinds(monkeypatch):
    _, profile = _profile(monkeypatch, NOW_CELL)
    assert "queuedtransfer" in profile["by_kind"]


def test_profile_queue_section_is_the_scheduler_counters(monkeypatch):
    system, profile = _profile(monkeypatch, NOW_CELL)
    assert profile["queue"] == system.env.scheduler.stats()
    assert set(profile["queue"]) == {"enqueues", "dequeues"}
