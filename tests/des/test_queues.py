"""The kernel's event scheduler and the shared tie-breaking heap.

The schedule key ``(time, priority, seq)`` is a total order: the
scheduler must pop entries in exactly that order, same-time entries
FIFO by sequence number, and keep its ``stats()`` counters continuous
across any push/pop interleaving.
"""

import heapq
import random
from math import inf

import pytest

from repro.des import Environment
from repro.des.queues import HeapScheduler, TieBreakingHeap


def test_pop_order_matches_heap_oracle():
    """Random push/pop interleavings mirrored onto a shadow heap.

    Pushes respect kernel monotonicity (never below the time of the
    last pop); pop results, lengths and the stats counters must match
    the shadow at every step.
    """
    def gaps(rng):
        return rng.choice((
            0.0, 0.0, 1.0, 4.545454545454546, 7.25,
            rng.expovariate(0.05), rng.random() * 1e6, inf,
        ))

    for seed in range(20):
        rng = random.Random(seed)
        sched = HeapScheduler()
        shadow = []
        seq = popped = 0
        now = 0.0
        for _ in range(500):
            if shadow and rng.random() < 0.45:
                expected = heapq.heappop(shadow)
                assert sched.pop() == expected
                popped += 1
                if expected[0] != inf:
                    now = expected[0]
            else:
                gap = gaps(rng)
                t = inf if gap == inf else now + gap
                entry = (t, rng.choice((0, 1)), seq, None)
                seq += 1
                heapq.heappush(shadow, entry)
                sched.push(entry)
            assert len(sched) == len(shadow)
            stats = sched.stats()
            assert (stats["enqueues"], stats["dequeues"]) == (seq, popped)
        while shadow:
            assert sched.pop() == heapq.heappop(shadow)
        assert sched.stats()["dequeues"] == seq


def test_empty_queue_peeks_inf_and_pop_raises():
    sched = HeapScheduler()
    assert sched.peek_time() == inf
    with pytest.raises(IndexError):
        sched.pop()
    sched.push((1.0, 0, 0, None))
    sched.pop()
    assert sched.peek_time() == inf
    with pytest.raises(IndexError):
        sched.pop()
    assert Environment().peek() == inf


def test_same_time_entries_pop_fifo_by_sequence():
    sched = HeapScheduler()
    # Pushed in scrambled sequence order; one urgent entry (priority 0)
    # jumps the normal ones at the same time, the rest keep seq order.
    for seq in (3, 0, 4, 1, 2):
        sched.push((5.0, 1, seq, f"e{seq}"))
    sched.push((5.0, 0, 5, "urgent"))
    assert [sched.pop()[3] for _ in range(6)] == [
        "urgent", "e0", "e1", "e2", "e3", "e4",
    ]


def test_stats_shape_and_counts():
    sched = HeapScheduler()
    for i in range(10):
        sched.push((float(i), 0, i, None))
    for _ in range(4):
        sched.pop()
    assert sched.stats() == {"enqueues": 10, "dequeues": 4}


def test_environment_counts_every_event():
    """The kernel's own scheduler reports what one run scheduled."""
    env = Environment()

    def ticker(env, period):
        while True:
            yield env.timeout(period)

    env.process(ticker(env, 3.0))
    env.process(ticker(env, 7.0))
    env.run(until=50.0)
    stats = env.scheduler.stats()
    # Two process starts, 16 + 7 fired timeouts and the ``until`` stop
    # event were served; each ticker's next timeout is still pending.
    assert stats["dequeues"] == 2 + 16 + 7 + 1
    assert stats["enqueues"] == stats["dequeues"] + len(env) == 28


def test_smallest_and_peek():
    sched = HeapScheduler()
    assert sched.peek_time() == inf
    for i, t in enumerate((5.0, 1.0, 3.0, inf)):
        sched.push((t, 0, i, None))
    assert sched.peek_time() == 1.0
    assert [e[0] for e in sched.smallest(3)] == [1.0, 3.0, 5.0]


class _Opaque:
    """No ordering protocol: items must never be compared."""
    __lt__ = None


def test_tie_breaking_heap_is_fifo_and_never_compares_items():
    heap = TieBreakingHeap()
    items = [_Opaque() for _ in range(6)]
    for item in items[:3]:
        heap.push((1, 0.0), item)
    for item in items[3:]:
        heap.push((0, 0.0), item)
    assert len(heap) == 6 and bool(heap)
    order = [heap.pop() for _ in range(6)]
    assert order == items[3:] + items[:3]  # priority first, FIFO within
    assert not heap
    with pytest.raises(IndexError):
        heap.pop()
