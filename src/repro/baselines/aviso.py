"""Aviso-style failure-avoidance constraint learning.

Aviso (Lucia & Ceze, ASPLOS 2013) observes *failing* executions and
hypothesises scheduling constraints -- ordered pairs of inter-thread
events that, when the second is delayed, avoid the failure. Candidates
are event pairs observed in a window before the failure point; their
plausibility grows as they recur across failure runs and shrink when
they also occur in successful runs.

For the diagnosis comparison (Table V) we use the constraint ranking as
the root-cause report, exactly as the paper does: "it can be used to
diagnose a failure by inspecting the constraints Aviso finds very
likely to be related to the failure". The two structural limits the
paper exercises carry over:

- at least one failure run is required, and the ranking only becomes
  discriminative with several (the paper feeds up to 10);
- only inter-thread event pairs exist, so sequential bugs are out of
  scope.

:class:`AvisoEngine` runs the protocol behind the
:class:`~repro.engines.base.Predictor` protocol: ``train`` gathers the
correct-run background counts, ``report_trained`` accumulates failure
runs until the constraint ranking exposes the root cause.
"""

from collections import defaultdict

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


def _window_pairs(run, window):
    """Ordered inter-thread memory-event pc pairs near the failure."""
    events = [e for e in run.events if e.kind.is_memory()][-window:]
    pairs = set()
    for i, a in enumerate(events):
        for b in events[i + 1:]:
            if a.tid != b.tid:
                pairs.add((a.pc, b.pc))
    return pairs


def _sampled_pairs(run, window):
    """Pairs from sliding windows of a correct run (background rates)."""
    events = [e for e in run.events if e.kind.is_memory()]
    pairs = set()
    step = max(1, window // 2)
    for start in range(0, max(1, len(events) - window + 1), step):
        chunk = events[start:start + window]
        for i, a in enumerate(chunk):
            for b in chunk[i + 1:]:
                if a.tid != b.tid:
                    pairs.add((a.pc, b.pc))
    return pairs


def _rank(fail_counts, correct_counts, n_failures, min_support):
    """Recur-in-failure, rare-in-success constraint ranking."""
    ranking = []
    for pair, f in fail_counts.items():
        if f < min_support:
            continue
        c = correct_counts.get(pair, 0)
        score = (f / n_failures) / (1.0 + c)
        ranking.append((pair, score))
    ranking.sort(key=lambda t: (-t[1], t[0]))
    return ranking


def _root_rank(ranking, pcs):
    """1-based rank of the first pair whose both pcs are root-cause pcs."""
    for i, (pair, _score) in enumerate(ranking, start=1):
        if pair[0] in pcs and pair[1] in pcs:
            return i
    return None


class AvisoEngine(Predictor):
    """Failure-avoidance constraints as a root-cause ranking."""

    capabilities = EngineCapabilities(
        name="aviso",
        description="Aviso-style event-pair constraints from failure runs",
        trains_offline=True, needs_failure_runs=10,
        multithreaded_only=True, adapts_online=False, warmable=True)

    def __init__(self, config=None, window=12, good_rank=10,
                 min_failure_support=2, max_failures=10):
        super().__init__(config)
        self.window = window
        # A constraint "finds" the bug once it appears at or above this
        # rank; until then Aviso asks for another failure run.
        self.good_rank = good_rank
        # A candidate only becomes a reportable constraint once it has
        # recurred in this many failure runs -- Aviso's event-pair model
        # cannot distinguish signal from coincidence with a single
        # failure, which is why the paper feeds it multiple failures.
        self.min_failure_support = min_failure_support
        self.max_failures = max_failures
        self._counts = None        # (pc, pc) -> correct-run occurrences
        self._multithreaded = None
        #: failure runs the last :meth:`report_trained` consumed (0 when
        #: the program is single-threaded and Aviso is inapplicable)
        self.failures_used = 0

    @property
    def trained(self):
        return self._counts is not None

    def train(self, program, n_runs=10, seed0=0, quarantine=None,
              **params):
        runs = collect_runs_for_seeds(
            program, range(seed0, seed0 + n_runs), quarantine=quarantine,
            **params)
        counts = defaultdict(int)
        multithreaded = False
        for run in runs:
            multithreaded = multithreaded or run.n_threads > 1
            for pair in _sampled_pairs(run, self.window):
                counts[pair] += 1
        self._counts = dict(counts)
        self._multithreaded = multithreaded

    def _state_payload(self):
        return {"counts": [[a, b, n] for (a, b), n
                           in sorted(self._counts.items())],
                "multithreaded": self._multithreaded}

    def _load_state_payload(self, state):
        self._counts = {(a, b): n for a, b, n in state["counts"]}
        self._multithreaded = bool(state["multithreaded"])

    def report_trained(self, program, failure_seed=12345,
                       n_pruning_runs=20, pruning_seed0=100,
                       failure_params=None, correct_params=None,
                       pruning_params=None, root_cause=None,
                       quarantine=None):
        first = failure_run(program, failure_seed, failure_params)
        truth = truth_of(first, root_cause)
        self.failures_used = 0
        if not self._multithreaded:
            report = candidate_report(
                program_name(program, first), failed=first.failed,
                failure_description=(str(first.failure)
                                     if first.failure else ""),
                truth=truth, candidates=[], engine=self.name,
                applicable=False)
            report.notes.append(
                "aviso is inapplicable: single-threaded program has no "
                "inter-thread event pairs")
            return report
        pcs = root_pcs(truth)
        fail_counts = defaultdict(int)
        failed = False
        ranking = []
        for k in range(1, self.max_failures + 1):
            run = (first if k == 1
                   else failure_run(program, failure_seed + k - 1,
                                    failure_params))
            self.failures_used = k
            if not run.failed:
                continue
            failed = True
            for pair in _window_pairs(run, self.window):
                fail_counts[pair] += 1
            ranking = _rank(fail_counts, self._counts, k,
                            self.min_failure_support)
            rank = _root_rank(ranking, pcs)
            if rank is not None and rank <= self.good_rank:
                break
        if not failed:
            return no_failure_report(program, first, truth, self.name)
        candidates = [
            candidate(f"{a:#x}->{b:#x}", score, a in pcs and b in pcs)
            for (a, b), score in ranking]
        report = candidate_report(
            program_name(program, first), failed=True,
            failure_description=(str(first.failure)
                                 if first.failure else ""),
            truth=truth, candidates=candidates, engine=self.name)
        report.notes.append(
            f"aviso: accumulated {self.failures_used} failure runs")
        return report
