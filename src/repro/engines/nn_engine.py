"""The default engine: ACT's neural predictor behind the registry.

The protocol surface (``train``/``serialize``/``load_state``) wraps
:class:`~repro.core.offline.TrainedACT`, and ``report_trained`` runs
:func:`~repro.core.diagnosis.diagnose_failure` with that state, so the
shared :meth:`~repro.engines.base.Predictor.diagnose_report` template
gives the same report as a direct ``diagnose_failure`` call (pinned by
``tests/test_engines.py``). Production reaches this class only as an
ensemble member: callers handed ``--engine nn`` call
``diagnose_failure`` themselves.
"""

from repro.core.diagnosis import diagnose_failure
from repro.core.offline import OfflineTrainer, TrainedACT
from repro.engines.base import EngineCapabilities, Predictor


class NNEngine(Predictor):
    """ACT's offline-trained, online-adapting neural predictor."""

    capabilities = EngineCapabilities(
        name="nn",
        description="ACT neural predictor (the paper's scheme)",
        trains_offline=True, needs_failure_runs=1,
        multithreaded_only=False, adapts_online=True, warmable=True)

    def __init__(self, config=None):
        super().__init__(config)
        self._trained = None

    @property
    def trained(self):
        return self._trained is not None

    def train(self, program, n_runs=10, seed0=0, quarantine=None,
              **params):
        trainer = OfflineTrainer(config=self.config)
        self._trained = trainer.train(program, n_runs=n_runs, seed0=seed0,
                                      quarantine=quarantine, **params)

    def _state_payload(self):
        return self._trained.to_payload()

    def _load_state_payload(self, state):
        self._trained = TrainedACT.from_payload(state, self.config)

    def report_trained(self, program, failure_seed=12345,
                       n_pruning_runs=20, pruning_seed0=100,
                       failure_params=None, correct_params=None,
                       pruning_params=None, root_cause=None,
                       quarantine=None):
        return diagnose_failure(
            program, config=self.config, trained=self._trained,
            failure_seed=failure_seed, n_pruning_runs=n_pruning_runs,
            pruning_seed0=pruning_seed0, failure_params=failure_params,
            correct_params=correct_params, pruning_params=pruning_params,
            root_cause=root_cause, quarantine=quarantine)
