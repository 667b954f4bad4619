"""Byte-identity of cell fingerprints across encoder implementations.

Cache entries and run-journal records are keyed by
:func:`~repro.experiments.engine.config_fingerprint`, so its output is
an on-disk format: a key that changes silently turns every user's warm
cache cold and makes every journal unresumable.  The reference oracle
below is the original tuple-building ``_canonical`` + ``repr(payload)``
implementation, copied verbatim; the engine's direct text encoder must
produce the same digest for every config, and a handful of digests are
pinned literally so the oracle itself cannot drift.
"""

import hashlib
from collections import namedtuple
from dataclasses import fields, is_dataclass
from enum import Enum, IntEnum

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import repro.experiments.engine as engine_mod
from repro.experiments import mpp_exp, now_exp, smp_exp, validation
from repro.experiments.engine import code_version, config_fingerprint
from repro.faults import FaultPlan, NetworkFault, RecoveryPolicy
from repro.faults.spec import DaemonCrash
from repro.rocc.adaptive import RegulatorConfig
from repro.rocc.config import (
    Architecture,
    DaemonCostModel,
    ForwardingTopology,
    SimulationConfig,
)
from repro.verify.properties import simulation_configs
from repro.workload.generators import TrafficSpec
from repro.variates.distributions import Exponential, Lognormal


# ---------------------------------------------------------------------------
# Reference oracle (the original implementation, verbatim)
# ---------------------------------------------------------------------------


def _canonical(obj) -> object:
    """Recursively reduce *obj* to a deterministic, order-stable form.

    Covers everything a :class:`SimulationConfig` can hold: nested
    dataclasses (cost models, workload, fault plans), enums,
    distributions (plain objects — captured by class name + instance
    dict), numpy arrays, and containers.  ``repr`` of floats keeps full
    precision, so configs differing in the 17th digit fingerprint apart.
    """
    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    if isinstance(obj, float):
        return ("f", repr(obj))
    if isinstance(obj, Enum):
        return ("enum", type(obj).__name__, _canonical(obj.value))
    if is_dataclass(obj) and not isinstance(obj, type):
        return (
            "dc",
            type(obj).__name__,
            tuple((f.name, _canonical(getattr(obj, f.name))) for f in fields(obj)),
        )
    if isinstance(obj, dict):
        items = [(_canonical(k), _canonical(v)) for k, v in obj.items()]
        return ("dict", tuple(sorted(items, key=repr)))
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(_canonical(v) for v in obj))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted((_canonical(v) for v in obj), key=repr)))
    if isinstance(obj, np.ndarray):
        return ("nd", obj.shape, tuple(repr(float(v)) for v in obj.ravel()))
    if isinstance(obj, np.generic):
        return ("f", repr(obj.item()))
    d = getattr(obj, "__dict__", None)
    if d is not None:
        return (
            "obj",
            type(obj).__name__,
            tuple((k, _canonical(v)) for k, v in sorted(d.items())),
        )
    return ("repr", repr(obj))


def oracle_fingerprint(config: SimulationConfig, aggregated: bool = False) -> str:
    """Stable content address of one simulation cell.

    Two configs fingerprint identically iff every field — including the
    replication index and nested models — matches and the simulation
    source is unchanged.
    """
    payload = ("cell-v1", code_version(), bool(aggregated), _canonical(config))
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def assert_same_keys(config: SimulationConfig) -> None:
    for aggregated in (False, True):
        assert config_fingerprint(config, aggregated) == oracle_fingerprint(
            config, aggregated
        )


# ---------------------------------------------------------------------------
# The paper's sweeps and random configs
# ---------------------------------------------------------------------------


def _quick_configs(module):
    spec = module.design_spec(quick=True)
    return [
        base.with_(replication=rep)
        for base in spec.design.configs(spec.make)
        for rep in range(spec.repetitions)
    ]


@pytest.mark.parametrize(
    "module", [now_exp, smp_exp, mpp_exp, validation],
    ids=lambda m: m.__name__.rsplit(".", 1)[-1],
)
def test_quick_design_keys_match_oracle(module):
    configs = _quick_configs(module)
    assert configs
    for config in configs:
        assert_same_keys(config)


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=simulation_configs())
def test_random_config_keys_match_oracle(config):
    assert_same_keys(config)


# ---------------------------------------------------------------------------
# Hand-made edge cases
# ---------------------------------------------------------------------------


class _Colour(Enum):
    RED = 1
    BLUE = (2, "two")


class _Level(IntEnum):
    LOW = 1


class _Slotted:
    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x

    def __repr__(self):
        return f"_Slotted({self.x!r})"


class _TaggedExponential(Exponential):
    """A distribution subclass carrying an extra attribute."""

    def __init__(self, mean, tag):
        super().__init__(mean)
        self.tag = tag


_Pair = namedtuple("_Pair", "a b")

_BASE = SimulationConfig(nodes=2, duration=500_000.0)

EDGE_CONFIGS = {
    "default": SimulationConfig(),
    "warmup_zero": _BASE.with_(warmup=0.0),
    "warmup_negative_zero": _BASE.with_(warmup=-0.0),
    "nan_flush": _BASE.with_(batch_flush_timeout=float("nan")),
    "inf_flush": _BASE.with_(batch_flush_timeout=float("inf")),
    "np_float64": _BASE.with_(sampling_period=np.float64(25_000.0)),
    "np_int64": _BASE.with_(batch_size=np.int64(5)),
    "traffic": _BASE.with_(
        traffic=TrafficSpec("open", (("rpm", 30), ("avg_users", 200.0)))
    ),
    "adaptive": _BASE.with_(adaptive=RegulatorConfig(budget=0.02)),
    "recovery": _BASE.with_(
        faults=FaultPlan((DaemonCrash(node=1, at=100_000.0),
                          NetworkFault(loss_probability=0.1))),
        recovery=RecoveryPolicy(max_retries=2, forward_timeout=5_000.0),
    ),
    "distribution_subclass": _BASE.with_(
        daemon_costs=DaemonCostModel(
            collection_cpu=_TaggedExponential(90.0, tag="extra"),
            merge_cpu=Lognormal(50.0, 20.0),
        )
    ),
    "mpp_tree_64": SimulationConfig(
        architecture=Architecture.MPP, nodes=64,
        forwarding=ForwardingTopology.TREE,
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CONFIGS))
def test_edge_config_keys_match_oracle(name):
    assert_same_keys(EDGE_CONFIGS[name])


def test_signed_zero_and_numpy_scalars_key_apart():
    keys = {name: config_fingerprint(cfg) for name, cfg in EDGE_CONFIGS.items()}
    assert keys["warmup_zero"] != keys["warmup_negative_zero"]
    assert keys["np_float64"] != config_fingerprint(
        _BASE.with_(sampling_period=25_000.0))
    assert keys["np_int64"] != config_fingerprint(_BASE.with_(batch_size=5))


@pytest.mark.parametrize("value", [
    {"b": 2.0, "a": [1, (2,)], 3: None},
    {frozenset({1, 2}), "x", 0.5},
    frozenset(),
    (),
    (1.5,),
    [[], {}],
    _Pair(1, 2.0),
    _Colour.RED,
    _Colour.BLUE,
    _Level.LOW,
    Architecture.SMP,
    True,
    np.bool_(True),
    np.int64(-3),
    np.float32(0.1),
    np.arange(4.0).reshape(2, 2),
    _Slotted(1.0),
    _TaggedExponential(2.0, tag={"k": np.float64(1.0)}),
    "it's",
    b"bytes",
    1e-320,
    -float("inf"),
    object,
], ids=repr)
def test_arbitrary_field_values_match_oracle(value):
    """Any value a loosely typed field can hold (``adaptive`` is
    ``Optional[object]``) keys exactly as the oracle does."""
    config = _BASE.with_()
    config.adaptive = value
    assert_same_keys(config)


# ---------------------------------------------------------------------------
# Pinned digests
# ---------------------------------------------------------------------------


PINNED = {
    "default": (SimulationConfig(), False,
                "6226d778a333185d411dadef5a4a8d49700a6c4676914c4ecdfcac77123b3e7b"),
    "default_aggregated": (SimulationConfig(), True,
                           "6b22d1d68a742a7387293dbcaf3864ec0069266e433d2477ce4b04f189e02116"),
    "table4_run0": (_quick_configs(now_exp)[0], False,
                    "87e6b268cdbe3eac4bd40a473c96a50baa63b016809d8ab052b3bedc713f8d64"),
    "mpp_tree_64": (EDGE_CONFIGS["mpp_tree_64"], False,
                    "a2b02c7d492109fac03e06db34836cf7b2bfcad8fdb0732d58a91dc5eea62259"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_digests(name, monkeypatch):
    monkeypatch.setattr(engine_mod, "_code_version", "pinned-salt")
    config, aggregated, digest = PINNED[name]
    assert config_fingerprint(config, aggregated) == digest
    assert oracle_fingerprint(config, aggregated) == digest
