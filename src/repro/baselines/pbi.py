"""PBI-style sampling-based failure diagnosis.

PBI (Arulraj et al., ASPLOS 2013) samples hardware events during
production runs -- cache-coherence states observed at memory
instructions and branch outcomes -- and ranks predicates (instruction,
event) by a statistical score over successful and failing runs.

As in the paper's comparison we implement an *extreme* PBI: every
instruction is sampled in every run (no 1-in-100 sampling), 15 correct
runs and a single failure run. Scoring follows CBI/PBI:

    Increase(P) = Fail(P true) / (Fail(P true) + Succ(P true))
                - Fail(P obs)  / (Fail(P obs)  + Succ(P obs))

ranked descending, ties broken by more failing observations.

:class:`PBIEngine` runs the protocol behind the
:class:`~repro.engines.base.Predictor` protocol: ``train`` counts the
correct-run predicates, ``report_trained`` scores the failure run's.
"""

from collections import defaultdict
from dataclasses import dataclass

from repro.core.offline import collect_runs_for_seeds
from repro.engines.base import (
    EngineCapabilities,
    Predictor,
    candidate,
    candidate_report,
    failure_run,
    no_failure_report,
    program_name,
    root_pcs,
    truth_of,
)
from repro.sim.machine import annotate_run
from repro.sim.params import MachineParams
from repro.trace.events import EventKind


@dataclass(frozen=True)
class Predicate:
    """(instruction, event) pair."""

    pc: int
    event: str  # MESI letter for memory ops; "T"/"N" for branches

    def __str__(self):
        return f"pc={self.pc:#x}:{self.event}"


def _observe(run, params):
    """Predicates observed (true) in one run, plus observed pcs."""
    ann = annotate_run(run, params)
    true_preds = set()
    observed_pcs = set()
    for event, res in zip(run.events, ann):
        if event.kind.is_memory():
            observed_pcs.add(event.pc)
            true_preds.add(Predicate(event.pc, res.state_before))
        elif event.kind == EventKind.BRANCH:
            observed_pcs.add(event.pc)
            true_preds.add(Predicate(event.pc, "T" if event.taken else "N"))
    return true_preds, observed_pcs


class PBIEngine(Predictor):
    """Sampled-predicate Increase scoring (CBI/PBI statistics)."""

    capabilities = EngineCapabilities(
        name="pbi",
        description="PBI-style predicate Increase scoring (MESI states "
                    "and branches)",
        trains_offline=True, needs_failure_runs=1,
        multithreaded_only=False, adapts_online=False, warmable=True)

    def __init__(self, config=None, params=None):
        super().__init__(config)
        self.params = params or MachineParams()
        self._succ_true = None  # Predicate -> #correct runs true
        self._succ_obs = None   # pc -> #correct runs observed
        self._n_correct = 0

    @property
    def trained(self):
        return self._succ_true is not None

    def train(self, program, n_runs=10, seed0=0, quarantine=None,
              **params):
        runs = collect_runs_for_seeds(
            program, range(seed0, seed0 + n_runs), quarantine=quarantine,
            **params)
        succ_true = defaultdict(int)
        succ_obs = defaultdict(int)
        for run in runs:
            true_preds, obs_pcs = _observe(run, self.params)
            for pred in true_preds:
                succ_true[pred] += 1
            for pc in obs_pcs:
                succ_obs[pc] += 1
        self._succ_true = dict(succ_true)
        self._succ_obs = dict(succ_obs)
        self._n_correct = len(runs)

    def _state_payload(self):
        return {
            "succ_true": [[p.pc, p.event, n] for p, n
                          in sorted(self._succ_true.items(),
                                    key=lambda t: (t[0].pc, t[0].event))],
            "succ_obs": [[pc, n] for pc, n
                         in sorted(self._succ_obs.items())],
            "n_correct": self._n_correct,
        }

    def _load_state_payload(self, state):
        self._succ_true = {Predicate(pc, event): n
                           for pc, event, n in state["succ_true"]}
        self._succ_obs = {pc: n for pc, n in state["succ_obs"]}
        self._n_correct = int(state["n_correct"])

    def report_trained(self, program, failure_seed=12345,
                       n_pruning_runs=20, pruning_seed0=100,
                       failure_params=None, correct_params=None,
                       pruning_params=None, root_cause=None,
                       quarantine=None):
        run = failure_run(program, failure_seed, failure_params)
        truth = truth_of(run, root_cause)
        if not run.failed:
            return no_failure_report(program, run, truth, self.name)
        pcs = root_pcs(truth)
        fail_true, fail_obs = _observe(run, self.params)
        all_preds = set(fail_true) | set(self._succ_true)
        ranking = []
        for pred in all_preds:
            f_true = 1 if pred in fail_true else 0
            s_true = self._succ_true.get(pred, 0)
            f_obs = 1 if pred.pc in fail_obs else 0
            s_obs = self._succ_obs.get(pred.pc, 0)
            if f_true + s_true == 0 or f_obs + s_obs == 0:
                continue
            increase = (f_true / (f_true + s_true)
                        - f_obs / (f_obs + s_obs))
            ranking.append((pred, increase, f_true))
        # Positive-score predicates are the report; rank by score, then
        # by failing observations.
        ranking.sort(key=lambda t: (-t[1], -t[2], t[0].pc))
        candidates = [
            candidate(str(pred), score, pred.pc in pcs)
            for pred, score, _f in ranking if score > 0]
        return candidate_report(
            program_name(program, run), failed=True,
            failure_description=str(run.failure) if run.failure else "",
            truth=truth, candidates=candidates, engine=self.name)
