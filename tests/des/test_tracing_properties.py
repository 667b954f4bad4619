"""Property tests for the kernel's tracer hook (``Environment.add_tracer``).

For any workload, a tracer registered on the environment must see:

* processed times that are monotone (the kernel processes events in
  time order);
* exactly as many events as the scheduler dequeued;
* the same ``(time, kind)`` trace under both kernels.

Both kernel paths are exercised: the fast path (holds, event pooling)
and the generic loop (``REPRO_DES_FASTPATH=0``).  The knob is read per
:class:`Environment`, so it is flipped around each construction.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, event_kind


@contextmanager
def _fastpath(enabled: bool):
    # Hypothesis shares one example context across its shrink loop, so
    # monkeypatch fixtures don't compose with @given; set the variable
    # directly and restore it whatever happens.
    prev = os.environ.get("REPRO_DES_FASTPATH")
    os.environ["REPRO_DES_FASTPATH"] = "1" if enabled else "0"
    try:
        yield
    finally:
        if prev is None:
            os.environ.pop("REPRO_DES_FASTPATH", None)
        else:
            os.environ["REPRO_DES_FASTPATH"] = prev


def _workload(env: Environment, delays_per_proc) -> None:
    def proc(delays):
        for d in delays:
            yield env.hold(d)

    for delays in delays_per_proc:
        env.process(proc(delays))


def _traced(env: Environment) -> list:
    seen = []
    env.add_tracer(lambda ev, now: seen.append((now, event_kind(ev))))
    return seen


@given(
    delays_per_proc=st.lists(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=8,
        ),
        min_size=1, max_size=5,
    ),
    fastpath=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_eventlog_conservation_and_monotonicity(delays_per_proc, fastpath) -> None:
    with _fastpath(fastpath):
        env = Environment()
        _workload(env, delays_per_proc)
        seen = _traced(env)
        env.run(until=10_000.0)

    # Conservation: the tracer saw every event the scheduler served.
    assert len(seen) == env.scheduler.stats()["dequeues"]

    # Monotone time.
    times = [t for t, _ in seen]
    assert times == sorted(times)


def test_eventlog_equivalent_across_kernel_paths() -> None:
    """The same workload yields the same trace under both kernels."""
    traces = {}
    for fastpath in (True, False):
        with _fastpath(fastpath):
            env = Environment()
            _workload(env, [[5.0, 1.0], [2.0, 2.0, 2.0]])
            seen = _traced(env)
            env.run(until=1_000.0)
        traces[fastpath] = seen
    assert traces[True] == traces[False]
