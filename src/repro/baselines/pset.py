"""PSet-style static communication invariants.

PSet (Yu & Narayanasamy, ISCA 2009) records, for every load, the exact
set of stores that may legally feed it (with inter/intra-thread
labels), extracted from training executions. At run time any dependence
outside the set is a violation.

This is the class of scheme ACT's adaptivity argument targets: the
invariants are exact, so *any* new code or new interleaving raises
violations until the whole program is re-trained. The adaptivity
experiment (Figure 7(b)) uses this as the rigid-baseline contrast.

:class:`PSetEngine` puts the invariants behind the
:class:`~repro.engines.base.Predictor` protocol: the failure run's
violating dependences, ranked by recurrence, are its report.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Set

from repro.core.offline import collect_runs_for_seeds
from repro.engines.base import (
    EngineCapabilities,
    Predictor,
    candidate,
    candidate_report,
    failure_run,
    no_failure_report,
    program_name,
    truth_of,
)
from repro.trace.raw import extract_raw_deps


@dataclass
class PSetInvariants:
    """Per-load valid-writer sets."""

    psets: Dict[int, Set] = field(default_factory=lambda: defaultdict(set))

    @classmethod
    def train(cls, runs, filter_stack=True):
        inv = cls()
        for run in runs:
            inv.add_run(run, filter_stack=filter_stack)
        return inv

    def add_run(self, run, filter_stack=True):
        for stream in extract_raw_deps(run, filter_stack=filter_stack).values():
            for rec in stream:
                self.psets[rec.dep.load_pc].add(
                    (rec.dep.store_pc, rec.dep.inter_thread))

    def is_valid(self, dep):
        """True when the dependence matches a trained invariant."""
        return (dep.store_pc, dep.inter_thread) in self.psets.get(
            dep.load_pc, set())

    def violations(self, run, filter_stack=True):
        """All dependence records of ``run`` violating the invariants."""
        out = []
        for stream in extract_raw_deps(run, filter_stack=filter_stack).values():
            out.extend(rec for rec in stream if not self.is_valid(rec.dep))
        return out

    def violation_rate(self, run, filter_stack=True):
        """Fraction of dynamic dependences flagged in ``run``."""
        total = 0
        bad = 0
        for stream in extract_raw_deps(run, filter_stack=filter_stack).values():
            for rec in stream:
                total += 1
                bad += not self.is_valid(rec.dep)
        return bad / total if total else 0.0

    def n_invariants(self):
        return sum(len(s) for s in self.psets.values())


class PSetEngine(Predictor):
    """Exact per-load valid-writer invariants; violations are the report."""

    capabilities = EngineCapabilities(
        name="pset",
        description="PSet-style per-load valid-writer invariant sets",
        trains_offline=True, needs_failure_runs=1,
        multithreaded_only=False, adapts_online=False, warmable=True)

    def __init__(self, config=None):
        super().__init__(config)
        self._invariants = None

    @property
    def trained(self):
        return self._invariants is not None

    def train(self, program, n_runs=10, seed0=0, quarantine=None,
              **params):
        runs = collect_runs_for_seeds(
            program, range(seed0, seed0 + n_runs), quarantine=quarantine,
            **params)
        self._invariants = PSetInvariants.train(
            runs, filter_stack=self.config.filter_stack_loads)

    def _state_payload(self):
        return {"psets": [
            [load_pc, sorted([s, int(inter)] for s, inter in writers)]
            for load_pc, writers in sorted(self._invariants.psets.items())]}

    def _load_state_payload(self, state):
        inv = PSetInvariants()
        for load_pc, writers in state["psets"]:
            inv.psets[load_pc] = {(s, bool(inter)) for s, inter in writers}
        self._invariants = inv

    def report_trained(self, program, failure_seed=12345,
                       n_pruning_runs=20, pruning_seed0=100,
                       failure_params=None, correct_params=None,
                       pruning_params=None, root_cause=None,
                       quarantine=None):
        run = failure_run(program, failure_seed, failure_params)
        truth = truth_of(run, root_cause)
        if not run.failed:
            return no_failure_report(program, run, truth, self.name)
        violations = self._invariants.violations(
            run, filter_stack=self.config.filter_stack_loads)
        # Rank violating dependences by dynamic recurrence, ties broken
        # by first occurrence in the global event order.
        stats = {}
        for rec in sorted(violations, key=lambda r: r.index):
            key = (rec.dep.store_pc, rec.dep.load_pc)
            if key not in stats:
                stats[key] = [0, rec.index]
            stats[key][0] += 1
        ordered = sorted(stats.items(),
                         key=lambda t: (-t[1][0], t[1][1], t[0]))
        total = sum(count for count, _first in stats.values()) or 1
        candidates = [
            candidate(f"{store:#x}->{load:#x}", count / total,
                      (store, load) in truth)
            for (store, load), (count, _first) in ordered]
        report = candidate_report(
            program_name(program, run), failed=True,
            failure_description=str(run.failure) if run.failure else "",
            truth=truth, candidates=candidates, engine=self.name)
        report.notes.append(
            f"pset: {len(violations)} violating dependences over "
            f"{self._invariants.n_invariants()} invariants")
        return report
