"""The benchmark's workloads, passes and output checks.

Every workload is a closed loop from one client: it sends its fixed
request list serially (``jobs=None``) through the same ``service.ops``
functions the CLI and the ``repro serve`` daemon call, one request
after the previous one completed. A *pass* is one trip over the list;
a run repeats passes, so every request is checked against its own
earlier outcome.
"""

import random
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

from repro.faults.checkpoint import canonical_json
from repro.service import ops

#: The 11 Table V bugs, pinned so the workload does not grow with the
#: registry.
TABLE_V_BUGS = ("aget", "apache", "gzip", "memcached", "mysql1", "mysql2",
                "mysql3", "paste", "pbzip2", "ptx", "seq")

#: Failure seeds drawn per bug. The failure seed moves a diagnosis's
#: rank on some bugs (mysql2 misses on about 1 seed in 6), so two seeds
#: per bug halve the step one unlucky seed puts into top1 and recall.
SEEDS_PER_BUG = 2

#: The ROADMAP's reference corpus.
CORPUS_SEED = 7
CORPUS_SIZE = 20


def failure_seeds(seed, bugs=TABLE_V_BUGS, per_bug=SEEDS_PER_BUG):
    """[(bug, failure seed)] drawn deterministically from ``seed``.

    Round-robin over the bugs, so one bug's requests are spread over
    the pass instead of running back to back.
    """
    rng = random.Random(seed)
    return [(bug, rng.randrange(1, 2 ** 31)) for _ in range(per_bug)
            for bug in bugs]


@dataclass
class PassResult:
    """One pass (or one set-up): its clock interval, per-request
    intervals, scores and check failures."""

    traced: bool = False
    start: float = 0.0
    end: float = 0.0
    spans: list = field(default_factory=list)  # (start, end) per request
    diagnoses: int = 0
    top1: int = 0
    recall: int = 0
    attempted: int = 0
    failed: int = 0
    warm_hits: int = 0
    warm_misses: int = 0
    errors: list = field(default_factory=list)

    @property
    def wall_s(self):
        return self.end - self.start


def _diagnose_score(outcome):
    rank = outcome.payload.get("rank")
    return 1, int(rank == 1), int(rank is not None and rank <= 5)


class Workload:
    """A fixed request list, the checks on its outcomes and its scoring.

    A run has ``rounds`` rounds of set-up followed by passes, and each
    round makes at least one pass: every request is checked against a
    repeat of itself, and a run's passes spread over the host's speed
    phases.
    """

    name = ""
    requests = ()
    rounds = 2

    def prepare(self, clock=perf_counter):
        """The set-up before measuring. Returns its checked operations,
        with ``start``/``end`` around the part that counts as set-up."""
        result = PassResult()
        result.start = result.end = clock()
        return result

    def attempted_diagnoses(self, i):
        return 1


class Corpus(Workload):
    """``repro corpus --seed 7 --size 20``: 20 generated programs, all
    five bug archetypes, training-bound. Scored against generated
    ground truth."""

    name = "corpus"

    def __init__(self, size=CORPUS_SIZE):
        self.size = size
        self.requests = [ops.CorpusRequest(seed=CORPUS_SEED, size=size)]
        self._seen = {}

    def execute(self, i):
        return ops.run_corpus(self.requests[i])

    def check(self, i, outcome):
        if outcome.rc != 0:
            return [f"corpus rc {outcome.rc}: {outcome.err}"]
        metrics = outcome.payload["metrics"]
        errors = []
        if metrics["overall"]["n_quarantined"]:
            errors.append("corpus quarantined programs")
        text = canonical_json(metrics) + "\n" + outcome.out
        if self._seen.setdefault(i, text) != text:
            errors.append("corpus metrics differ between passes")
        return errors

    def score(self, outcome):
        overall = outcome.payload["metrics"]["overall"]
        n = overall["n_programs"]
        return (n, round(overall["top1"] * n),
                round(overall["top5"] * n))

    def attempted_diagnoses(self, i):
        return self.size


class DiagnoseCold(Workload):
    """One-shot ``repro diagnose`` with the CLI defaults: every request
    trains its own network from 10 correct runs."""

    name = "diagnose-cold"
    #: Three passes, so each bug has 6 latency samples behind the
    #: percentiles.
    rounds = 3

    def __init__(self, seed, bugs=TABLE_V_BUGS, per_bug=SEEDS_PER_BUG):
        self.requests = [ops.DiagnoseRequest(bug=bug, seed=s)
                         for bug, s in failure_seeds(seed, bugs, per_bug)]
        self._seen = {}

    def execute(self, i):
        return ops.run_diagnose(self.requests[i])

    def check(self, i, outcome):
        # rc 1 is "root cause not found", a diagnosis result.
        if outcome.rc not in (0, 1):
            return [f"{self.requests[i].bug}: rc {outcome.rc}: "
                    f"{outcome.err}"]
        seen = self._seen.setdefault(i, (outcome.rc, outcome.out))
        if seen != (outcome.rc, outcome.out):
            return [f"{self.requests[i].bug}: outcome differs between "
                    "passes"]
        return []

    score = staticmethod(_diagnose_score)


class DiagnoseWarm(DiagnoseCold):
    """The daemon's steady state: the same requests against a warm cache
    that holds every bug's trained state, so no request trains."""

    name = "diagnose-warm"
    rounds = 2

    def __init__(self, seed, bugs=TABLE_V_BUGS, per_bug=SEEDS_PER_BUG):
        super().__init__(seed, bugs, per_bug)
        self.n_bugs = len(bugs)
        self.cache = None
        self.setup_misses = 0
        self.cold = {}

    def prepare(self, clock=perf_counter):
        """Fill the cache; know every request's cold outcome.

        The set-up proper is the first request of each bug: it misses
        the cache, trains cold and fills it. The first round then also
        runs the other requests with no cache at all, outside the
        set-up time, so every reference outcome comes from a cold
        diagnosis. Later rounds must reproduce the references.
        """
        result = PassResult()
        self.cache = ops.WarmStateCache(capacity=self.n_bugs)
        first = {}
        for i, req in enumerate(self.requests):
            first.setdefault(req.bug, i)
        result.start = clock()
        for i in first.values():
            self._reference(i, self.cache, result)
        result.end = clock()
        for i in range(len(self.requests)):
            if i not in self.cold and i not in first.values():
                self._reference(i, None, result)
        self.setup_misses = self.cache.misses
        return result

    def _reference(self, i, cache, result):
        req = self.requests[i]
        result.attempted += 1
        outcome = ops.run_diagnose(req, warm=cache)
        cold = (outcome.rc, outcome.out)
        if outcome.rc not in (0, 1):
            error = f"{req.bug}: set-up rc {outcome.rc}: {outcome.err}"
        elif self.cold.setdefault(i, cold) != cold:
            error = f"{req.bug}: cold outcome differs between set-ups"
        else:
            return
        result.failed += 1
        result.errors.append(error)

    def execute(self, i):
        return ops.run_diagnose(self.requests[i], warm=self.cache)

    def check(self, i, outcome):
        errors = []
        if self.cache.misses != self.setup_misses:
            errors.append(f"{self.requests[i].bug}: warm cache missed")
            self.setup_misses = self.cache.misses
        if (outcome.rc, outcome.out) != self.cold.get(i):
            errors.append(f"{self.requests[i].bug}: warm outcome differs "
                          "from the cold one")
        return errors


def make_workload(name, seed):
    if name == "corpus":
        return Corpus()
    if name == "diagnose-cold":
        return DiagnoseCold(seed)
    if name == "diagnose-warm":
        return DiagnoseWarm(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("corpus", "diagnose-cold", "diagnose-warm")


def run_pass(workload, traced=False, clock=perf_counter):
    """One closed-loop trip over the request list, outputs checked."""
    result = PassResult(traced=traced)
    cache = getattr(workload, "cache", None)
    before = cache.stats() if cache is not None else None
    result.start = clock()
    for i in range(len(workload.requests)):
        result.attempted += 1
        t0 = clock()
        try:
            outcome = workload.execute(i)
        except Exception as e:  # an exception is a failed operation
            result.spans.append((t0, clock()))
            result.failed += 1
            result.diagnoses += workload.attempted_diagnoses(i)
            result.errors.append(f"request {i}: {type(e).__name__}: {e}")
            continue
        result.spans.append((t0, clock()))
        errors = workload.check(i, outcome)
        if errors:
            result.failed += 1
            result.errors.extend(errors)
            result.diagnoses += workload.attempted_diagnoses(i)
            continue
        n, top1, recall = workload.score(outcome)
        result.diagnoses += n
        result.top1 += top1
        result.recall += recall
    result.end = clock()
    if cache is not None:
        after = cache.stats()
        result.warm_hits = after["hits"] - before["hits"]
        result.warm_misses = after["misses"] - before["misses"]
    return result


def measure(workload, seconds, tracer=None, clock=perf_counter):
    """Set up and measure ``workload.rounds`` times.

    Each round makes passes until the next one would end after its
    share of ``seconds``, and at least one. With a ``tracer``, every
    second pass runs traced inside it (the first pass is untraced), so
    both kinds are measured in one run. Returns (set-ups, passes).
    """
    setups, passes = [], []
    for _ in range(workload.rounds):
        setups.append(workload.prepare(clock))
        start = clock()
        n = 0
        while True:
            if tracer is not None and len(passes) % 2 == 1:
                with tracer:
                    passes.append(run_pass(workload, True, clock))
            else:
                passes.append(run_pass(workload, False, clock))
            n += 1
            elapsed = clock() - start
            if elapsed + elapsed / n > seconds / workload.rounds:
                break
    return setups, passes


def tail(latencies):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it. With ten samples or fewer it is the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def raw(seconds, start, end):
    return seconds


def end_to_end(passes, setup_s, peak_rss_mb, scale=raw):
    """The end-to-end metrics of one run's untraced passes.

    ``scale(seconds, start, end)`` converts an interval measured over
    [start, end] (see ``hostspeed.HostSpeed.scale``); by default times
    are raw.
    """
    latencies = [scale(e - s, s, e) for p in passes for s, e in p.spans]
    walls = [scale(p.wall_s, p.start, p.end) for p in passes]
    diagnoses = sum(p.diagnoses for p in passes)
    _, tail_s = tail(latencies)
    return {
        "wall_s": median(walls),
        "diagnoses_per_s": diagnoses / sum(walls),
        "latency_p50_s": median(latencies),
        "latency_tail_s": tail_s,
        "top1": sum(p.top1 for p in passes) / diagnoses,
        "recall": sum(p.recall for p in passes) / diagnoses,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
