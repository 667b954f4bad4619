"""Kernel benchmarks: raw event throughput of the DES substrate.

These are the ablation baseline for DESIGN.md §5.1 — they quantify how
expensive the generator-based kernel is per event, which bounds every
ROCC simulation above it.
"""

from repro.des import Environment, Resource, Store
from repro.rocc.config import Architecture, ForwardingTopology, SimulationConfig
from repro.rocc.system import simulate


def _timeout_chain(n_events: int) -> float:
    env = Environment()

    def clock(env):
        for _ in range(n_events):
            yield env.timeout(1.0)

    env.process(clock(env))
    env.run()
    return env.now


def test_timeout_event_throughput(benchmark):
    """Pure timeout scheduling: the kernel's floor cost per event."""
    result = benchmark(_timeout_chain, 20_000)
    assert result == 20_000.0


def _hold_chain(n_events: int) -> float:
    env = Environment()

    def clock(env):
        hold = env.hold
        for _ in range(n_events):
            yield hold(1.0)

    env.process(clock(env))
    env.run()
    return env.now


def test_hold_event_throughput(benchmark):
    """Allocation-free process sleeps: the fast path the ROCC model
    loops (CPU quanta, sampling ticks, network serialization) run on.
    Equivalent workload to ``_timeout_chain``; the gap between the two
    is the saving from ``env.hold``."""
    result = benchmark(_hold_chain, 20_000)
    assert result == 20_000.0


def _resource_churn(n_ops: int) -> int:
    env = Environment()
    res = Resource(env, capacity=2)
    done = [0]

    def user(env):
        for _ in range(n_ops // 10):
            with res.request() as req:
                yield req
                yield env.timeout(1.0)
            done[0] += 1

    for _ in range(10):
        env.process(user(env))
    env.run()
    return done[0]


def test_resource_acquire_release_throughput(benchmark):
    """Request/hold/release cycles across ten competing processes."""
    result = benchmark(_resource_churn, 10_000)
    assert result == 10_000


def _store_churn(n_items: int) -> int:
    env = Environment()
    store = Store(env, capacity=64)
    got = [0]

    def producer(env):
        for i in range(n_items):
            yield store.put(i)

    def consumer(env):
        for _ in range(n_items):
            yield store.get()
            got[0] += 1

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    return got[0]


def test_store_put_get_throughput(benchmark):
    """Bounded-buffer handoffs (the pipe hot path)."""
    result = benchmark(_store_churn, 10_000)
    assert result == 10_000


def _interleaved_model(n_processes: int, cycles: int) -> float:
    """A miniature ROCC-like node: processes alternating two resources."""
    env = Environment()
    cpu = Resource(env, capacity=1)
    net = Resource(env, capacity=1)

    def proc(env):
        for _ in range(cycles):
            with cpu.request() as r:
                yield r
                yield env.timeout(3.0)
            with net.request() as r:
                yield r
                yield env.timeout(1.0)

    for _ in range(n_processes):
        env.process(proc(env))
    env.run()
    return env.now


def test_multiprocess_contention_throughput(benchmark):
    result = benchmark(_interleaved_model, 20, 100)
    assert result >= 20 * 100 * 3.0  # serial bound on the CPU resource


def _mpp_tree_cell() -> int:
    """One second of a 64-node MPP tree cell: the single-large-cell
    workload the ROADMAP's scale north-star cares about."""
    results = simulate(SimulationConfig(
        architecture=Architecture.MPP,
        nodes=64,
        forwarding=ForwardingTopology.TREE,
        duration=1_000_000.0,
        seed=1,
    ))
    return results.samples_received


def test_mpp_tree_cell_64n(run_once):
    """End-to-end kernel cost of a single large cell (64-node MPP tree).

    This is the headline number for the in-cell hot path: everything —
    scheduler, network transfers, CPU slices, pipes, metrics — sits on
    it.  History in BENCH_DES.json records it under every event
    scheduler the kernel has had."""
    received = run_once(_mpp_tree_cell)
    assert received > 0
