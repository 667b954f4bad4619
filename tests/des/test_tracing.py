"""Tests for the kernel's tracer hook (add_tracer / remove_tracer) and
the event-kind names its traces use."""

from repro.des import Environment, event_kind


def model(env, ticks=5):
    for _ in range(ticks):
        yield env.timeout(10.0)


def trace(env):
    """Attach a local tracer recording ``(now, kind, name)`` per event."""
    seen = []

    def tracer(ev, now):
        seen.append((now, event_kind(ev), getattr(ev, "name", None)))

    env.add_tracer(tracer)
    return seen, tracer


def kinds(seen):
    out = {}
    for _, kind, _ in seen:
        out[kind] = out.get(kind, 0) + 1
    return out


def test_event_kind_classification(env):
    t = env.timeout(1)
    assert event_kind(t) == "timeout"
    p = env.process(model(env, 1))
    assert event_kind(p) == "process"
    assert event_kind(env.event()) == "event"


def test_event_log_records_processed_events(env):
    seen, _ = trace(env)
    env.process(model(env, 5))
    env.run()
    # 5 timeouts + 1 initialize + 1 process completion.
    assert kinds(seen)["timeout"] == 5
    assert kinds(seen)["process"] == 1
    assert len(seen) == 7


def test_event_log_times_monotonic(env):
    seen, _ = trace(env)
    env.process(model(env, 4))
    env.run()
    times = [t for t, _, _ in seen]
    assert times == sorted(times)


def test_event_log_detach_stops_recording(env):
    seen, tracer = trace(env)
    env.process(model(env, 2))
    env.run(until=15.0)
    count_attached = len(seen)
    env.remove_tracer(tracer)
    env.remove_tracer(tracer)  # removing an absent tracer is a no-op
    env.run()
    assert len(seen) == count_attached


def test_event_counter(env):
    seen, _ = trace(env)
    env.process(model(env, 8))
    env.run()
    assert kinds(seen)["timeout"] == 8
    assert len(seen) == env.scheduler.stats()["dequeues"]


def test_tracers_do_not_disturb_simulation():
    results = []

    def run(traced):
        e = Environment()
        if traced:
            trace(e)
        done = []

        def proc(e):
            yield e.timeout(3)
            done.append(e.now)

        e.process(proc(e))
        e.run()
        results.append(done[0])

    run(False)
    run(True)
    assert results[0] == results[1]


def test_process_names_recorded(env):
    seen, _ = trace(env)
    env.process(model(env, 1), name="my-proc")
    env.run()
    names = {name for _, kind, name in seen if kind == "process"}
    assert "my-proc" in names
