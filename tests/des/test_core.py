"""Tests for the DES environment: clock, scheduling, run modes."""

import pytest

from repro.des import Environment, EmptySchedule, Event, Timeout

NAN = float("nan")


def test_initial_time_default():
    assert Environment().now == 0.0


def test_initial_time_custom():
    assert Environment(initial_time=42.5).now == 42.5


def test_timeout_advances_clock(env):
    log = []

    def proc(env):
        yield env.timeout(10)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [10.0, 12.5]


def test_run_until_time_advances_clock_exactly(env):
    def noop(env):
        yield env.timeout(1)

    env.process(noop(env))
    env.run(until=100.0)
    assert env.now == 100.0


def test_run_until_must_not_be_in_past(env):
    with pytest.raises(ValueError):
        env.run(until=-1.0)


def test_run_until_now_is_noop(env):
    """``until == now`` returns immediately (SimPy semantics)."""
    assert env.run(until=0.0) is None
    assert env.now == 0.0

    def worker(env):
        yield env.timeout(5.0)

    env.process(worker(env))
    env.run(until=5.0)
    # The queue still holds events at t=5; an until==now run must not
    # process them.
    pending = len(env)
    assert env.run(until=5.0) is None
    assert env.now == 5.0
    assert len(env) == pending


def test_run_until_event_returns_value(env):
    def proc(env):
        yield env.timeout(5)
        return "done"

    p = env.process(proc(env))
    assert env.run(until=p) == "done"
    assert env.now == 5.0


def test_run_until_already_processed_event(env):
    ev = env.event()
    ev.succeed("x")
    env.run()
    assert env.run(until=ev) == "x"


def test_run_empty_schedule_returns_none(env):
    assert env.run() is None


def test_step_empty_raises(env):
    with pytest.raises(EmptySchedule):
        env.step()


def test_run_until_event_never_triggered_raises(env):
    ev = env.event()

    def proc(env):
        yield env.timeout(1)

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="until event was not triggered"):
        env.run(until=ev)


def test_peek_returns_next_event_time(env):
    env.timeout(7.0)
    env.timeout(3.0)
    assert env.peek() == 3.0


def test_peek_empty_is_infinite(env):
    assert env.peek() == float("inf")


def test_len_counts_scheduled_events(env):
    env.timeout(1)
    env.timeout(2)
    assert len(env) == 2


def test_events_at_same_time_fifo_order(env):
    log = []

    def proc(env, name):
        yield env.timeout(10)
        log.append(name)

    for name in "abc":
        env.process(proc(env, name))
    env.run()
    assert log == ["a", "b", "c"]


def test_negative_delay_rejected(env):
    with pytest.raises(ValueError):
        env.timeout(-1)


@pytest.mark.parametrize("delay", [-5.0, NAN])
def test_schedule_rejects_bad_delay(env, delay):
    env.run(until=10.0)
    with pytest.raises(ValueError, match="invalid delay"):
        env.schedule(env.event(), delay=delay)
    assert len(env) == 0 and env.now == 10.0


def test_timeout_rejects_nan_delay_fresh(env):
    assert env._timeout_pool == []
    with pytest.raises(ValueError, match="invalid delay"):
        env.timeout(NAN)
    assert len(env) == 0


@pytest.mark.parametrize("delay", [-1.0, NAN])
def test_timeout_rejects_bad_delay_pooled(env, delay):
    def proc(env):
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    assert env._timeout_pool  # the next timeout comes off the free list
    with pytest.raises(ValueError, match="invalid delay"):
        env.timeout(delay)
    assert len(env) == 0


def test_timeout_constructor_rejects_nan_delay(env):
    with pytest.raises(ValueError, match="invalid delay"):
        Timeout(env, NAN)
    assert len(env) == 0


def test_hold_rejects_nan_delay(env):
    caught = []

    def proc(env):
        try:
            env.hold(NAN)
        except ValueError as exc:
            caught.append(str(exc))
        yield env.hold(1.0)

    env.process(proc(env))
    env.run()
    assert len(caught) == 1 and "invalid delay" in caught[0]
    assert env.now == 1.0


def test_run_until_nan_rejected(env):
    with pytest.raises(ValueError):
        env.run(until=NAN)


def test_step_processes_exactly_one_event(env):
    env.timeout(3.0)
    env.timeout(5.0)
    env.step()
    assert len(env) == 1
    assert env.now == 3.0
    env.step()
    assert len(env) == 0
    assert env.now == 5.0


def test_clock_is_monotonic_across_many_events(env):
    seen = []

    def proc(env, d):
        yield env.timeout(d)
        seen.append(env.now)

    for d in (5, 1, 9, 3, 3, 7, 0):
        env.process(proc(env, d))
    env.run()
    assert seen == sorted(seen)


def test_active_process_visible_during_resume(env):
    captured = []

    def proc(env):
        captured.append(env.active_process)
        yield env.timeout(1)

    p = env.process(proc(env))
    env.run()
    assert captured == [p]
    assert env.active_process is None


def test_failed_event_without_waiter_crashes_simulation(env):
    ev = env.event()
    ev.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_failed_event_with_waiter_is_defused(env):
    caught = []

    def proc(env, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    ev = env.event()
    env.process(proc(env, ev))
    ev.fail(RuntimeError("handled"))
    env.run()
    assert caught == ["handled"]
