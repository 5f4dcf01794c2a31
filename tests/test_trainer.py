"""Tests for offline training and topology search."""

import numpy as np
import pytest

from repro.nn.network import OneHiddenLayerNet
from repro.nn.trainer import (
    TrainConfig,
    _sgd_examples,
    evaluate_misprediction,
    search_topology,
    train_network,
)
from repro.workloads.registry import all_bug_names, get_bug


def _blobs(n_per=20, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.normal(0.25, 0.05, size=(n_per, dim))
    neg = rng.normal(0.75, 0.05, size=(n_per, dim))
    return pos, neg


class TestTrainNetwork:
    def test_fits_separable_blobs(self):
        pos, neg = _blobs()
        result = train_network(pos, neg, n_hidden=4)
        assert result.train_error == 0.0

    def test_margin_reported(self):
        pos, neg = _blobs()
        result = train_network(pos, neg, n_hidden=4)
        assert result.worst_margin > 0.0

    def test_counts_are_original_not_balanced(self):
        pos, neg = _blobs()
        result = train_network(pos, neg[:5], n_hidden=4)
        assert result.n_positives == len(pos)
        assert result.n_negatives == 5

    def test_deterministic_given_seed(self):
        pos, neg = _blobs()
        cfg = TrainConfig(seed=3)
        r1 = train_network(pos, neg, 4, config=cfg)
        r2 = train_network(pos, neg, 4, config=cfg)
        assert np.allclose(r1.net.read_weights(), r2.net.read_weights())

    def test_no_negatives_trains_positive_only(self):
        pos, _ = _blobs()
        result = train_network(pos, None, n_hidden=3)
        out = result.net.predict_batch(pos)
        assert (out >= 0.5).all()

    def test_balance_replicates_minority(self):
        pos, neg = _blobs()
        cfg = TrainConfig(balance_classes=True)
        result = train_network(pos, neg[:2], n_hidden=4, config=cfg)
        # still separates despite 20:2 imbalance
        assert result.train_error == 0.0

    def test_restart_improves_over_single(self):
        pos, neg = _blobs(n_per=8, seed=5)
        single = train_network(pos, neg, 2, config=TrainConfig(restarts=1,
                                                               max_epochs=50))
        multi = train_network(pos, neg, 2, config=TrainConfig(restarts=5,
                                                              max_epochs=50))
        assert (multi.train_error, -multi.worst_margin) <= \
               (single.train_error, -single.worst_margin)


class TestEvaluate:
    def test_false_positive_only(self):
        pos, neg = _blobs()
        net = train_network(pos, neg, 4).net
        assert evaluate_misprediction(net, pos, None) == 0.0

    def test_false_negative_only(self):
        pos, neg = _blobs()
        net = train_network(pos, neg, 4).net
        assert evaluate_misprediction(net, None, neg) == 0.0

    def test_empty_sets(self):
        pos, neg = _blobs()
        net = train_network(pos, neg, 4).net
        assert evaluate_misprediction(net, None, None) == 0.0

    def test_mixed_rate(self):
        pos, neg = _blobs()
        net = train_network(pos, neg, 4).net
        # flip labels: everything is mispredicted
        rate = evaluate_misprediction(net, neg, pos)
        assert rate == 1.0


class TestSearchTopology:
    def test_selects_lowest_misprediction(self):
        sets = {}
        for n in (1, 2):
            dim = 2 * n
            pos, neg = _blobs(dim=dim, seed=n)
            sets[n] = (pos, neg, pos, neg)
        best, choices = search_topology(sets, hidden_widths=(2, 4))
        assert len(choices) == 4
        assert best.mispred_rate == min(c.mispred_rate for c in choices)

    def test_topology_string(self):
        pos, neg = _blobs(dim=4)
        best, _ = search_topology({2: (pos, neg, pos, neg)},
                                  hidden_widths=(3,))
        assert best.topology == "4-3-1"

    def test_tie_prefers_capacity(self):
        pos, neg = _blobs(dim=2, seed=1)
        best, choices = search_topology({1: (pos, neg, pos, neg)},
                                        hidden_widths=(2, 8))
        tied = [c for c in choices if c.mispred_rate == best.mispred_rate]
        assert best.n_hidden == max(c.n_hidden for c in tied)


class TestFastSgd:
    """The vectorised SGD kernel is bit-compatible with the per-example
    method loop, like the ``core.fastpath`` replay equivalence."""

    def _nets(self, n_inputs=4, n_hidden=3, seed=7):
        return (OneHiddenLayerNet(n_inputs, n_hidden, seed=seed),
                OneHiddenLayerNet(n_inputs, n_hidden, seed=seed))

    def test_kernel_bitwise_equals_method_loop(self):
        pos, neg = _blobs(n_per=12)
        xs = np.vstack([pos, neg])
        targets = np.array([0.9] * len(pos) + [0.1] * len(neg))
        fast, ref = self._nets()
        for _ in range(5):
            _sgd_examples(fast, xs, targets, 0.2)
            for i in range(len(xs)):
                ref.train_example(xs[i], targets[i], 0.2)
        assert np.array_equal(fast.read_weights(), ref.read_weights())

    def test_kernel_bitwise_equals_method_loop_cross_entropy(self):
        pos, neg = _blobs(n_per=12)
        xs = np.vstack([pos, neg])
        targets = np.array([0.9] * len(pos) + [0.1] * len(neg))
        fast, ref = self._nets()
        for _ in range(5):
            _sgd_examples(fast, xs, targets, 0.2, cross_entropy=True)
            for i in range(len(xs)):
                ref.train_example_ce(xs[i], targets[i], 0.2)
        assert np.array_equal(fast.read_weights(), ref.read_weights())

    def test_kernel_honours_visit_order(self):
        pos, neg = _blobs(n_per=8)
        xs = np.vstack([pos, neg])
        targets = np.array([0.9] * len(pos) + [0.1] * len(neg))
        order = list(reversed(range(len(xs))))
        fast, ref = self._nets()
        _sgd_examples(fast, xs, targets, 0.2, order=order)
        for i in order:
            ref.train_example(xs[i], targets[i], 0.2)
        assert np.array_equal(fast.read_weights(), ref.read_weights())


@pytest.mark.slow
class TestFastSgdBugWorkloads:
    """The SGD kernel is pinned to the per-example method loop on every
    registered bug workload's encoded training rows, not just on
    synthetic blobs."""

    def _rows(self, bug):
        from repro.core.config import ACTConfig
        from repro.core.encoding import DepEncoder
        from repro.core.offline import (
            OfflineTrainer,
            collect_correct_runs,
            sequences_from_runs,
        )

        cfg = ACTConfig(seq_len=3)
        runs = collect_correct_runs(get_bug(bug), 2, buggy=False)
        pos, neg = sequences_from_runs(runs, cfg.seq_len,
                                       filter_stack=cfg.filter_stack_loads)
        pos, neg = OfflineTrainer(config=cfg).prepare_examples(pos, neg)
        encoder = DepEncoder(code_map=runs[0].code_map)
        xs = np.vstack([encoder.encode_many(pos, seq_len=cfg.seq_len),
                        encoder.encode_many(neg, seq_len=cfg.seq_len)])
        targets = np.array([0.9] * len(pos) + [0.1] * len(neg))
        return cfg, xs, targets

    @pytest.mark.parametrize("bug", all_bug_names())
    def test_fast_equals_scalar(self, bug):
        cfg, xs, targets = self._rows(bug)
        fast, ref = (OneHiddenLayerNet(cfg.n_inputs, cfg.n_hidden, seed=3,
                                       max_inputs=cfg.max_inputs)
                     for _ in range(2))
        for _ in range(3):
            _sgd_examples(fast, xs, targets, cfg.learning_rate)
            for x, target in zip(xs, targets):
                ref.train_example(x, target, cfg.learning_rate)
        assert np.array_equal(fast.read_weights(), ref.read_weights())
