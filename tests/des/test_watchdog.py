"""Tests for the Environment.run watchdog (SimulationStalled)."""

import pytest

import repro.des.core
from repro.des import Environment, SimulationStalled


def _spinner(env):
    while True:
        yield env.timeout(0)


def test_max_events_raises_and_names_blocked_process():
    env = Environment()
    env.process(_spinner(env), name="spinner")
    with pytest.raises(SimulationStalled) as excinfo:
        env.run(until=10.0, max_events=1000)
    exc = excinfo.value
    assert "spinner" in exc.blocked
    assert "spinner" in str(exc)
    assert exc.events_processed == 1000
    assert exc.now == 0.0  # zero-delay loop never advances the clock


@pytest.mark.parametrize("max_events", [1, 1023, 1024, 1025, 3000])
def test_max_events_is_exact_across_chunk_boundaries(max_events):
    """The watchdog dispatches in 1024-event chunks; the budget still
    stops the run after exactly ``max_events`` events."""
    env = Environment()
    env.process(_spinner(env), name="spinner")
    seen = []

    def tracer(ev, now):
        seen.append(now)
        assert len(seen) <= max_events, "ran past the event budget"

    env.add_tracer(tracer)
    with pytest.raises(SimulationStalled) as excinfo:
        env.run(until=10.0, max_events=max_events)
    assert excinfo.value.events_processed == max_events
    assert len(seen) == max_events


def test_wall_clock_read_once_per_1024_events(monkeypatch):
    """One read arms the deadline, then one per full 1024-event chunk:
    5000 events end four chunks (1024..4096) before the budget stops
    the fifth."""
    reads = []

    def fake_monotonic():
        reads.append(None)
        return 0.0

    monkeypatch.setattr(repro.des.core, "monotonic", fake_monotonic)
    env = Environment()
    env.process(_spinner(env), name="spinner")
    with pytest.raises(SimulationStalled, match="max_events=5000"):
        env.run(until=10.0, max_events=5000, max_wall_seconds=1e9)
    assert len(reads) == 1 + 4


def test_wall_deadline_fires_on_a_1024_event_boundary(monkeypatch):
    """The deadline is armed at t=0 and the clock jumps past it at the
    second check, so the run stops after exactly two 1024-event chunks."""
    clock = iter([0.0, 0.0, 5.0])
    monkeypatch.setattr(repro.des.core, "monotonic", lambda: next(clock))
    env = Environment()
    env.process(_spinner(env), name="spinner")
    with pytest.raises(SimulationStalled, match="max_wall_seconds") as excinfo:
        env.run(until=10.0, max_wall_seconds=1.0)
    assert excinfo.value.events_processed == 2048


@pytest.mark.parametrize("k", [1023, 1024])
def test_until_firing_as_last_budgeted_event_returns(k):
    """Events: the process start, timeouts at 1..k-1, then the urgent
    ``until`` stop at k, so the stop is event k+1."""

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env = Environment()
    env.process(ticker(env), name="ticker")
    assert env.run(until=float(k), max_events=k + 1) is None
    assert env.now == float(k)

    env = Environment()
    env.process(ticker(env), name="ticker")
    with pytest.raises(SimulationStalled):
        env.run(until=float(k), max_events=k)


def test_max_events_is_not_triggered_by_healthy_run():
    env = Environment()

    def worker(env):
        for _ in range(5):
            yield env.timeout(1.0)

    env.process(worker(env), name="worker")
    env.run(until=10.0, max_events=100_000)
    assert env.now == 10.0


def test_max_wall_seconds_aborts_livelock():
    env = Environment()
    env.process(_spinner(env), name="hog")
    with pytest.raises(SimulationStalled) as excinfo:
        env.run(until=10.0, max_wall_seconds=0.05)
    assert excinfo.value.events_processed > 0
    assert "max_wall_seconds" in str(excinfo.value)


def test_watchdog_parameter_validation():
    env = Environment()
    with pytest.raises(ValueError):
        env.run(until=1.0, max_events=0)
    with pytest.raises(ValueError):
        env.run(until=1.0, max_wall_seconds=0.0)


def test_watchdog_off_by_default():
    env = Environment()
    env.process((env.timeout(1.0) for _ in range(1)), name="one")
    env.run(until=5.0)
    assert env.now == 5.0


def test_stalled_through_simulation_config():
    """SimulationConfig.max_events flows through to the kernel watchdog."""
    from repro.rocc import SimulationConfig, simulate

    cfg = SimulationConfig(
        nodes=1,
        duration=1_000_000.0,
        include_pvmd=False,
        include_other=False,
        max_events=50,
    )
    with pytest.raises(SimulationStalled):
        simulate(cfg)
    # A sane budget completes fine.
    ok = simulate(cfg.with_(max_events=5_000_000))
    assert ok.samples_received > 0
