"""The ``Predictor`` protocol shared by every diagnosis engine.

The paper's Table I compares ACT's neural predictor against Aviso-,
PBI- and PSet-style schemes; this package gives all of them one
interface so the comparison is a live harness instead of one-off
analysis scripts. A :class:`Predictor`:

- ``train(program, ...)`` builds engine state from correct executions
  (the shared ``train_seed0 .. train_seed0 + n_runs - 1`` seed range);
- ``serialize()`` / ``load_state(payload)`` round-trip the trained
  state as a JSON-safe payload (``create(name).load_state(payload)``
  must give an equal ``report_trained`` report -- pinned by
  ``tests/test_engines.py``);
- ``report_trained(program, ...)`` diagnoses a failure with the trained
  state and maps the outcome onto a
  :class:`~repro.core.diagnosis.DiagnosisReport` whose ``candidates``
  list carries the engine's ranked root-cause report;
- ``capabilities`` is a declarative descriptor driving the Table-I
  columns of ``repro shootout`` and the warm-cache policy.

:meth:`Predictor.diagnose_report` is the one diagnosis template every
engine shares: train if cold, hand the state to the warm-cache sink,
then ``report_trained``. The NN pipeline's own entry point is
:func:`~repro.core.diagnosis.diagnose_failure`; callers that take an
engine name call it for ``nn`` and ``create(name).diagnose_report``
for every other engine.
"""

from dataclasses import asdict, dataclass

from repro import faults as _faults
from repro import telemetry
from repro.common.errors import EngineError
from repro.core.config import ACTConfig
from repro.core.diagnosis import DiagnosisReport
from repro.workloads.framework import run_program


@dataclass(frozen=True)
class EngineCapabilities:
    """What one engine needs and provides (the Table-I axes)."""

    name: str
    description: str
    #: learns a background model from correct executions
    trains_offline: bool = True
    #: failure executions consumed per diagnosis (Aviso needs several)
    needs_failure_runs: int = 1
    #: candidate space is inter-thread only (sequential bugs out of scope)
    multithreaded_only: bool = False
    #: keeps learning during deployment (ACT's adaptivity argument)
    adapts_online: bool = False
    #: serialized state is reusable across diagnoses (warm-cache eligible)
    warmable: bool = True


def candidate(key, score, hit):
    """One ranked root-cause candidate (JSON-safe)."""
    return {"key": key, "score": float(score), "hit": bool(hit)}


def candidate_report(program_name, failed, failure_description, truth,
                     candidates, engine, applicable=True, notes=()):
    """Map an engine's ranked candidates onto a DiagnosisReport.

    ``rank``/``found`` follow the same convention as the NN path: the
    1-based position of the first candidate flagged as exposing the
    ground-truth root cause.
    """
    rank = next((i for i, c in enumerate(candidates, start=1)
                 if c["hit"]), None)
    report = DiagnosisReport(
        program=program_name, failed=failed, found=rank is not None,
        rank=rank, debug_buffer_position=None, filter_pct=0.0,
        n_debug_entries=0, debug_overflowed=False,
        root_cause=set(truth) if truth else None,
        failure_description=failure_description,
        engine=engine, applicable=applicable,
        candidates=list(candidates))
    report.notes.extend(notes)
    return report


def failure_run(program, seed, failure_params):
    """The failure execution a baseline engine diagnoses."""
    return run_program(program, seed=seed, **dict(failure_params
                                                  or {"buggy": True}))


def truth_of(run, root_cause):
    """Ground-truth dependence keys: the override, else the run's own."""
    return root_cause or run.meta.get("root_cause") or set()


def root_pcs(truth):
    """Every pc named by a ground-truth ``(store, load)`` pair."""
    return {pc for pair in truth for pc in pair}


def program_name(program, run):
    return run.meta.get("program", getattr(program, "name", "?"))


def no_failure_report(program, run, truth, engine):
    """Report for a failure run that did not fail."""
    report = candidate_report(
        program_name(program, run), failed=False, failure_description="",
        truth=truth, candidates=[], engine=engine)
    report.notes.append("failure run did not fail; nothing to diagnose")
    return report


class Predictor:
    """Base class every registered engine derives from.

    Subclasses set ``capabilities`` and implement :meth:`train`,
    :meth:`_state_payload`, :meth:`_load_state_payload` and
    :meth:`report_trained`. The template :meth:`diagnose_report` then
    provides warm-state reuse, telemetry spans and the shared
    train-if-cold flow for free.
    """

    capabilities = None  # subclasses assign an EngineCapabilities

    def __init__(self, config=None):
        self.config = config or ACTConfig()

    @property
    def name(self):
        return self.capabilities.name

    def fingerprint(self):
        """JSON-safe identity of the engine *kind* (not its state).

        The serve daemon's warm cache keys on this plus the workload /
        seed / config parts, so two engines on the same workload can
        never share a cache entry.
        """
        return {"engine": self.name}

    # -- protocol: train / serialize / load_state ----------------------

    @property
    def trained(self):
        raise NotImplementedError

    def train(self, program, n_runs=10, seed0=0, quarantine=None,
              **params):
        """Build engine state from ``n_runs`` correct executions."""
        raise NotImplementedError

    def serialize(self):
        """JSON-safe payload of the trained state."""
        if not self.trained:
            raise EngineError(
                f"engine {self.name!r} has no trained state to serialize",
                engine=self.name)
        return {"engine": self.name, "config": asdict(self.config),
                "state": self._state_payload()}

    def load_state(self, payload):
        """Instance-level inverse of :meth:`serialize`."""
        name = payload.get("engine")
        if name != self.name:
            raise EngineError(
                f"engine {self.name!r} cannot load state serialized by "
                f"{name!r}", engine=name)
        self._load_state_payload(payload["state"])

    def _state_payload(self):
        raise NotImplementedError

    def _load_state_payload(self, state):
        raise NotImplementedError

    # -- diagnosis ------------------------------------------------------

    def report_trained(self, program, failure_seed=12345,
                       n_pruning_runs=20, pruning_seed0=100,
                       failure_params=None, correct_params=None,
                       pruning_params=None, root_cause=None,
                       quarantine=None):
        """Diagnose with existing state (requires :attr:`trained`)."""
        raise NotImplementedError

    def diagnose_report(self, program, n_train_runs=10, train_seed0=0,
                        failure_seed=12345, n_pruning_runs=20,
                        pruning_seed0=100, failure_params=None,
                        correct_params=None, pruning_params=None,
                        root_cause=None,
                        faults=None, quarantine=None, checkpoint=None,
                        state=None, state_sink=None):
        """Train if cold, then diagnose; the one engine entry point.

        ``state`` is a payload from a previous :meth:`serialize`
        (training is skipped), and ``state_sink`` receives the
        serialized state once training is in hand -- the serve
        daemon's warm cache hangs off both.
        """
        if checkpoint is not None:
            raise EngineError(
                f"engine {self.name!r} does not support checkpoints "
                "(only the default nn engine is checkpointable)",
                engine=self.name)
        correct_params = dict(correct_params or {"buggy": False})
        plan = faults if faults is not None else _faults.get_plan()
        tele = telemetry.get_registry()
        with _faults.use_plan(plan):
            with tele.span("engine.diagnose", engine=self.name,
                           program=getattr(program, "name", "?")):
                if state is not None:
                    self.load_state(state)
                if not self.trained:
                    with tele.span("engine.train", engine=self.name,
                                   n_runs=n_train_runs):
                        self.train(program, n_runs=n_train_runs,
                                   seed0=train_seed0,
                                   quarantine=quarantine,
                                   **correct_params)
                    if tele.enabled:
                        tele.inc("engine.trainings")
                if state_sink is not None:
                    state_sink(self.serialize())
                report = self.report_trained(
                    program, failure_seed=failure_seed,
                    n_pruning_runs=n_pruning_runs,
                    pruning_seed0=pruning_seed0,
                    failure_params=failure_params,
                    correct_params=correct_params,
                    pruning_params=pruning_params,
                    root_cause=root_cause, quarantine=quarantine)
                if tele.enabled:
                    tele.inc("engine.diagnoses")
                if quarantine is not None and len(quarantine):
                    report.quarantine = quarantine.report_dict()
                return report


def report_candidates(report):
    """A report's ranked candidates, derived from findings for the NN.

    Engine reports carry ``candidates`` directly; NN reports expose
    their ranked findings as ``store->load`` keys (first occurrence
    wins), which gives the ensemble a uniform key space to rank-merge.
    """
    if report.candidates:
        return list(report.candidates)
    truth = report.root_cause or set()
    out = []
    seen = set()
    for f in report.findings:
        dep = f.mismatch_dep or f.seq[-1]
        key = f"{dep.store_pc:#x}->{dep.load_pc:#x}"
        if key in seen:
            continue
        seen.add(key)
        hit = any((d.store_pc, d.load_pc) in truth
                  for d in f.seq[f.matched:])
        out.append(candidate(key, 1.0 - float(f.output), hit))
    return out
