"""The default engine: ACT's neural predictor behind the registry.

``diagnose_report`` is a pure delegation to
:func:`~repro.core.diagnosis.diagnose_failure` -- no extra spans, no
extra work -- so routing ``--engine nn`` through the registry is
byte-identical to the historical direct call (reports, telemetry and
artifacts; pinned by ``tests/test_engines.py``). The protocol surface
(``train``/``predict_batch``/``serialize``) wraps
:class:`~repro.core.offline.TrainedACT` for the ensemble engine and
the cross-engine property tests.
"""

from dataclasses import asdict

import numpy as np

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

    def predict_batch(self, seqs):
        seqs = list(seqs)
        if not seqs:
            return np.zeros(0, dtype=float)
        xs = self._trained.encoder.encode_many(
            seqs, seq_len=self.config.seq_len)
        outputs, _risky = self._trained.make_network(0).predict_batch_exact(
            np.asarray(xs, dtype=float))
        # The network emits validity; the protocol reports suspicion.
        return 1.0 - outputs

    def _state_payload(self):
        return self._trained.to_payload()

    def _load_state_payload(self, state):
        self._trained = TrainedACT.from_payload(state, self.config)

    def report_trained(self, program, failure_seed=12345,
                       n_pruning_runs=20, pruning_seed0=100,
                       failure_params=None, correct_params=None,
                       pruning_params=None, root_cause=None,
                       quarantine=None):
        from repro.core.diagnosis import diagnose_failure

        return diagnose_failure(
            program, config=self.config, trained=self._trained,
            failure_seed=failure_seed, n_pruning_runs=n_pruning_runs,
            pruning_seed0=pruning_seed0, failure_params=failure_params,
            correct_params=correct_params, pruning_params=pruning_params,
            root_cause=root_cause, quarantine=quarantine)

    def diagnose_report(self, program, trained=None, state=None,
                        state_sink=None, trained_sink=None, **kwargs):
        """Delegate to the direct path, byte-identically.

        ``trained``/``trained_sink`` pass straight through (the serve
        daemon's historical warm hooks); ``state``/``state_sink`` are
        the engine-generic equivalents and are translated to them.
        """
        from repro.core.diagnosis import diagnose_failure

        if trained is None:
            if state is not None:
                self.load_state(state)
            trained = self._trained
        sink = trained_sink
        if state_sink is not None:
            def sink(t, _orig=trained_sink):
                if _orig is not None:
                    _orig(t)
                state_sink({"engine": "nn", "config": asdict(self.config),
                            "state": t.to_payload()})
        return diagnose_failure(program, config=self.config,
                                trained=trained, trained_sink=sink,
                                **kwargs)
