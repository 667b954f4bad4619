"""Invariant, operational-law, and differential verification.

The harness that keeps the simulator honest — see ``python -m
repro.verify --help`` for the command-line battery, or use the pieces
programmatically:

>>> from repro.verify import audit_results
>>> violations = audit_results(results, config)

Three pillars:

* :mod:`repro.verify.invariants` — structural audits every
  :class:`~repro.rocc.metrics.SimulationResults` must pass;
* :mod:`repro.verify.oplaws` — utilization law / Little's law /
  analytic-model cross-checks with tolerance bands;
* :mod:`repro.verify.differential` — flipped-knob re-execution
  (fast path, watchdog, worker pool, cell cache, flush no-op) with
  field-by-field result diffs.

:mod:`repro.verify.properties` adds Hypothesis-generated random
configurations over all of the above.
"""

from .differential import (
    check_bf_flush_noop,
    check_cache,
    check_fastpath,
    check_open_workload,
    check_parallel_kernel,
    check_resilient_engine,
    check_watchdog,
    check_workers,
    diff_results,
    differential_checks,
)
from .invariants import audit_results
from .oplaws import (
    applicable,
    check_against_analytic,
    check_littles_law,
    check_operational_laws,
    check_utilization_law,
)
from .report import VerificationReport, Violation

__all__ = [
    "Violation",
    "VerificationReport",
    "audit_results",
    "applicable",
    "check_operational_laws",
    "check_utilization_law",
    "check_littles_law",
    "check_against_analytic",
    "diff_results",
    "differential_checks",
    "check_fastpath",
    "check_watchdog",
    "check_workers",
    "check_cache",
    "check_bf_flush_noop",
    "check_open_workload",
    "check_resilient_engine",
    "check_parallel_kernel",
]
