"""``repro.des`` — a from-scratch discrete-event simulation kernel.

This package provides the simulation substrate the ROCC model is built
on.  It follows the process-interaction style (generator-based
processes yielding events), with preemptible resources, finite stores
(used to model Unix pipes), containers, and statistics monitors.

Quick example::

    from repro.des import Environment

    def clock(env, period):
        while True:
            yield env.timeout(period)
            print("tick", env.now)

    env = Environment()
    env.process(clock(env, 10.0))
    env.run(until=35.0)
"""

from .containers import Container
from .core import Environment, Infinity
from .events import (
    NORMAL,
    URGENT,
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Hold,
    Process,
    Timeout,
)
from .exceptions import (
    EmptySchedule,
    Interrupt,
    SimulationError,
    SimulationStalled,
    StopSimulation,
)
from .monitor import P2Quantile, ReservoirSample, Tally, TimeWeighted
from .profiling import KernelProfiler, event_kind, format_profile, merge_profiles
from .resources import (
    Preempted,
    PreemptiveResource,
    PriorityRequest,
    PriorityResource,
    Request,
    Resource,
)
from .stores import FilterStore, Store

__all__ = [
    "Environment",
    "Infinity",
    "Event",
    "Timeout",
    "Hold",
    "Process",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "NORMAL",
    "URGENT",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "EmptySchedule",
    "SimulationStalled",
    "Resource",
    "PriorityResource",
    "PreemptiveResource",
    "Request",
    "PriorityRequest",
    "Preempted",
    "Store",
    "FilterStore",
    "Container",
    "P2Quantile",
    "ReservoirSample",
    "Tally",
    "TimeWeighted",
    "event_kind",
    "KernelProfiler",
    "format_profile",
    "merge_profiles",
]
