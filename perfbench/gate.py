"""Correctness gate: every delivered cell must be right, not just fast.

A cell fails when it raised, when ``audit_results`` finds a violated
invariant, when a replayed result differs from the one set-up wrote,
or when the workload's digest or exact counters disagree with those
recorded in ``reference.json`` for the seed.  ``now_sweep`` must also
show the paper's Table 4/7 direction: BF's mean Pd CPU time per node
below CF's.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import fields
from statistics import mean
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.engine import results_equal
from repro.rocc.metrics import SimulationResults
from repro.verify.invariants import audit_results

#: Run provenance, not a simulated statistic: left out of the digest.
_NOT_DIGESTED = {"observability"}

#: Counters that must repeat exactly for a seed (ROADMAP aim 1 gates).
EXACT_COUNTERS = (
    "des.events", "des.enqueues", "rocc.samples_received",
    "engine.result_bytes", "engine.cells_run", "planner.cells_pruned",
)


def digest(cells: Sequence[Tuple[object, object]]) -> str:
    """sha256 over every field of every delivered ``SimulationResults``."""
    h = hashlib.sha256()
    for _, out in cells:
        if not isinstance(out, SimulationResults):
            h.update(b"<failed>")
            continue
        for f in fields(out):
            if f.name not in _NOT_DIGESTED:
                h.update(f"{f.name}={getattr(out, f.name)!r};".encode())
    return h.hexdigest()


def audit(cells, expected: Optional[Sequence] = None) -> List[str]:
    """One message per failed cell; an empty list means all passed.

    With *expected* (the results set-up wrote), a cell equal to its
    expected result inherits that result's audit, so replayed cells
    are checked by equality instead of re-auditing identical results.
    """
    problems = []
    for i, (cfg, out) in enumerate(cells):
        if not isinstance(out, SimulationResults):
            problems.append(f"cell {i}: {out}")
        elif expected is not None:
            if i >= len(expected) or not results_equal(out, expected[i][1]):
                problems.append(f"cell {i}: replay differs from set-up")
        else:
            violations = audit_results(out, cfg)
            if violations:
                problems.append(f"cell {i}: {violations[0]}")
    return problems


def bf_below_cf(cells) -> List[str]:
    """Table 4/7 direction: BF (batch > 1) costs less Pd CPU than CF."""
    cf = [o.pd_cpu_time_per_node for c, o in cells
          if isinstance(o, SimulationResults) and c.batch_size == 1]
    bf = [o.pd_cpu_time_per_node for c, o in cells
          if isinstance(o, SimulationResults) and c.batch_size > 1]
    if not cf or not bf or mean(bf) >= mean(cf):
        return ["BF mean Pd CPU time per node is not below CF's"]
    return []


def compare_counters(seen: Dict[str, int], want: Dict[str, int],
                     what: str) -> List[str]:
    """Exact counters present in both *seen* and *want* must match."""
    return [
        f"{key} = {seen[key]} but {what} has {want[key]}"
        for key in EXACT_COUNTERS
        if key in seen and key in want and seen[key] != want[key]
    ]


class Gate:
    """Checks each pass of one run as it completes.

    *reference* is the recorded ``{"digest", "counters"}`` of the seed,
    or ``None`` for an unrecorded seed; *expected* holds the cells
    set-up wrote, which a replay must reproduce exactly.
    """

    def __init__(self, reference: Optional[dict] = None,
                 expected: Optional[Sequence] = None,
                 paper_direction: bool = False):
        self.reference = reference
        self.expected = expected
        self.paper_direction = paper_direction
        self.first: Optional[Tuple[str, Dict[str, int]]] = None
        self.setup_problems = (
            ["set-up " + m for m in audit(expected)] if expected else [])
        self.expected_digest = digest(expected) if expected else None

    def check(self, p) -> List[str]:
        """Gate one pass; sets ``p.digest``, ``p.failed`` (cells) and
        the counters read off the results."""
        p.counters["rocc.samples_received"] = sum(
            out.samples_received for _, out in p.cells
            if isinstance(out, SimulationResults))
        p.counters["engine.result_bytes"] = sum(
            len(pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL))
            for _, out in p.cells if isinstance(out, SimulationResults))
        cell_problems = audit(p.cells, self.expected)
        problems = self.setup_problems + list(p.problems)
        if self.paper_direction:
            problems += bf_below_cf(p.cells)
        if self.expected_digest and not cell_problems and (
                len(p.cells) == len(self.expected)):
            # Every cell equals what set-up wrote, field by field.
            p.digest = self.expected_digest
        else:
            p.digest = digest(p.cells)
        if self.first is None:
            self.first = (p.digest, p.counters)
        if p.digest != self.first[0]:
            problems.append("digest differs from the first pass")
        problems += compare_counters(p.counters, self.first[1],
                                     "the first pass")
        if self.reference is not None:
            if p.digest != self.reference["digest"]:
                problems.append("digest differs from reference.json")
            problems += compare_counters(p.counters,
                                         self.reference["counters"],
                                         "reference.json")
        p.failed = len(p.cells) if problems else len(cell_problems)
        return problems + cell_problems
