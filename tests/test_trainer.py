"""Tests for offline training and topology search."""

import numpy as np
import pytest

from repro import telemetry
from repro.nn.network import OneHiddenLayerNet
from repro.nn.trainer import (
    TrainConfig,
    TrainResult,
    _fit_lockstep,
    _sgd_examples,
    _training_set,
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


def _encoded_bug_examples(bug):
    """``(ACTConfig, train config, positives, negatives)``: the encoded
    rows offline training fits for ``bug``, prepared as
    :class:`OfflineTrainer` prepares them."""
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
    trainer = OfflineTrainer(config=cfg)
    pos, neg = trainer.prepare_examples(pos, neg)
    encoder = DepEncoder(code_map=runs[0].code_map)
    return (cfg, trainer.train_config,
            encoder.encode_many(pos, seq_len=cfg.seq_len),
            encoder.encode_many(neg, seq_len=cfg.seq_len))


@pytest.mark.slow
class TestFastSgdBugWorkloads:
    """The SGD kernel is pinned to the per-example method loop on every
    registered bug workload's encoded training rows, not just on
    synthetic blobs."""

    def _rows(self, bug):
        cfg, _, pos, neg = _encoded_bug_examples(bug)
        xs = np.vstack([pos, neg])
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


def _sequential_train(positives, negatives, n_hidden, cfg, max_inputs=10):
    """Reference: the restarts trained one after another, each alone.

    A copy of the sequential restart loop the lockstep kernel replaced,
    telemetry included, kept here as the equivalence oracle.
    """
    best = None
    best_key = None
    tele = telemetry.get_registry()
    for r in range(max(1, cfg.restarts)):
        result = _sequential_once(positives, negatives, n_hidden, cfg,
                                  cfg.seed + 7919 * r, max_inputs)
        key = (result.train_error, -result.worst_margin)
        if best_key is None or key < best_key:
            best, best_key = result, key
        if (result.train_error <= cfg.target_error
                and result.worst_margin > cfg.accept_margin):
            break
        if r and tele.enabled:
            tele.inc("nn.train_restarts")
    if tele.enabled:
        tele.inc("nn.networks_trained")
        tele.inc("nn.train_epochs", best.epochs)
        tele.observe("nn.train_error", best.train_error)
    return best


def _sequential_once(positives, negatives, n_hidden, cfg, seed, max_inputs):
    positives = np.atleast_2d(np.asarray(positives, dtype=float))
    if negatives is None or len(negatives) == 0:
        negatives = np.empty((0, positives.shape[1]))
    negatives = np.atleast_2d(np.asarray(negatives, dtype=float))
    net = OneHiddenLayerNet(positives.shape[1], n_hidden, seed=seed,
                            max_inputs=max_inputs)
    train_pos, train_neg = positives, negatives
    if cfg.balance_classes and len(negatives) and len(positives):
        if len(negatives) < len(positives):
            reps = -(-len(positives) // len(negatives))
            train_neg = np.tile(negatives, (reps, 1))[:len(positives)]
        elif len(positives) < len(negatives):
            reps = -(-len(negatives) // len(positives))
            train_pos = np.tile(positives, (reps, 1))[:len(negatives)]
    xs = np.vstack([train_pos, train_neg])
    targets = np.concatenate([
        np.full(len(train_pos), cfg.positive_target),
        np.full(len(train_neg), cfg.negative_target),
    ])
    labels = targets >= 0.5

    n = len(xs)
    w_h = net.w_hidden
    w_o = net.w_out
    v_h = np.zeros_like(w_h)
    v_o = np.zeros_like(w_o)
    lr = cfg.batch_learning_rate
    history = []
    err_rate = 1.0
    epoch = 0
    fit_epoch = None
    tele = telemetry.get_registry()
    for epoch in range(1, cfg.max_epochs + 1):
        h_in = xs @ w_h[:, :-1].T + w_h[:, -1]
        h = 1.0 / (1.0 + np.exp(-h_in))
        o_in = h @ w_o[:-1] + w_o[-1]
        o = 1.0 / (1.0 + np.exp(-o_in))
        err_rate = float(np.mean((o >= 0.5) != labels))
        history.append(err_rate)
        if tele.enabled:
            tele.observe("nn.epoch_loss", err_rate)
        if err_rate <= cfg.target_error:
            if fit_epoch is None:
                fit_epoch = epoch
            if epoch - fit_epoch >= cfg.patience_after_fit:
                break
        else:
            fit_epoch = None
        d_o = o * (1.0 - o) * (targets - o)
        d_h = h * (1.0 - h) * np.outer(d_o, w_o[:-1])
        g_o = np.concatenate([d_o @ h, [d_o.sum()]]) / n
        g_h = np.hstack([d_h.T @ xs, d_h.sum(axis=0)[:, None]]) / n
        v_o = cfg.momentum * v_o + lr * g_o
        v_h = cfg.momentum * v_h + lr * g_h
        w_o += v_o
        w_h += v_h
    outputs = net.predict_batch(xs)
    margins = np.where(labels, outputs - 0.5, 0.5 - outputs)
    return TrainResult(net=net, epochs=epoch, train_error=err_rate,
                       n_positives=len(positives), n_negatives=len(negatives),
                       history=history, worst_margin=float(margins.min()))


def _xor(n_per=10, seed=1):
    """Noisy 2-D XOR: a tiny net fits it from some inits and not others,
    so restarts stop at different epochs or run out of epochs."""
    rng = np.random.default_rng(seed)
    corners = rng.integers(0, 2, size=(2 * n_per, 2))
    xs = corners + rng.normal(0.0, 0.1, size=corners.shape)
    odd = (corners[:, 0] ^ corners[:, 1]).astype(bool)
    return xs[~odd], xs[odd]


def _assert_same_result(got, want):
    assert np.array_equal(got.net.read_weights(), want.net.read_weights())
    assert got.epochs == want.epochs
    assert got.history == want.history
    assert got.train_error == want.train_error
    assert got.worst_margin == want.worst_margin
    assert (got.n_positives, got.n_negatives) == \
           (want.n_positives, want.n_negatives)


class TestLockstepRestarts:
    """Training the restarts in lockstep is bit-identical to training
    each alone, one after another, as the parent kernel did."""

    DATA = {"blobs": lambda: _blobs(n_per=10), "xor": _xor}

    @pytest.mark.parametrize("data", sorted(DATA))
    @pytest.mark.parametrize("n_hidden", [1, 2, 10])
    @pytest.mark.parametrize("restarts", [1, 5])
    def test_matches_sequential(self, data, n_hidden, restarts):
        pos, neg = self.DATA[data]()
        cfg = TrainConfig(restarts=restarts, max_epochs=400, seed=3)
        _assert_same_result(train_network(pos, neg, n_hidden, config=cfg),
                            _sequential_train(pos, neg, n_hidden, cfg))

    @pytest.mark.parametrize("n_hidden", [1, 2, 10])
    def test_every_restart_matches_alone(self, n_hidden):
        # Not only the kept restart: each stacked slice, whether it
        # stopped early or ran out of epochs, equals its lone run.
        pos, neg = _xor()
        cfg = TrainConfig(max_epochs=400, seed=1)
        _, _, xs, targets, labels = _training_set(pos, neg, cfg)
        seeds = [cfg.seed + 7919 * r for r in range(cfg.restarts)]
        nets = [OneHiddenLayerNet(xs.shape[1], n_hidden, seed=s)
                for s in seeds]
        epochs, errors, history = _fit_lockstep(nets, xs, targets, labels,
                                                cfg)
        assert history.shape == (cfg.max_epochs, cfg.restarts)
        for r, seed in enumerate(seeds):
            alone = _sequential_once(pos, neg, n_hidden, cfg, seed, 10)
            assert np.array_equal(nets[r].read_weights(),
                                  alone.net.read_weights())
            assert epochs[r] == alone.epochs
            assert errors[r] == alone.train_error
            assert history[:epochs[r], r].tolist() == alone.history

    def test_restarts_stop_at_different_epochs(self):
        # The fixture the pins rely on: with h=2 some restarts fit and
        # stop while others run out of epochs.
        pos, neg = _xor()
        cfg = TrainConfig(max_epochs=400, seed=1)
        epochs = {_sequential_once(pos, neg, 2, cfg, cfg.seed + 7919 * r,
                                   10).epochs
                  for r in range(cfg.restarts)}
        assert cfg.max_epochs in epochs and len(epochs) >= 3

    @pytest.mark.parametrize("negatives", [None, np.empty((0, 4))])
    def test_positives_only(self, negatives):
        pos, _ = _blobs()
        cfg = TrainConfig(max_epochs=400)
        got = train_network(pos, negatives, 3, config=cfg)
        assert got.n_negatives == 0
        _assert_same_result(got, _sequential_train(pos, negatives, 3, cfg))

    def test_max_epochs_runs_out(self):
        pos, neg = _xor()
        cfg = TrainConfig(max_epochs=60, seed=1)
        got = train_network(pos, neg, 1, config=cfg)
        assert got.epochs == cfg.max_epochs and got.train_error > 0
        _assert_same_result(got, _sequential_train(pos, neg, 1, cfg))

    def test_zero_epochs(self):
        pos, neg = _blobs(n_per=5)
        cfg = TrainConfig(max_epochs=0)
        got = train_network(pos, neg, 2, config=cfg)
        assert (got.epochs, got.history, got.train_error) == (0, [], 1.0)
        _assert_same_result(got, _sequential_train(pos, neg, 2, cfg))

    # Restart 2 is the first whose worst margin clears 0.365; restarts
    # 3 and 4 train too and are discarded.
    ACCEPT = dict(max_epochs=400, seed=0, accept_margin=0.365)

    def _accept_case(self):
        pos, neg = _blobs(n_per=10, dim=2, seed=0)
        return pos, neg, TrainConfig(**self.ACCEPT)

    def test_early_accept(self):
        pos, neg, cfg = self._accept_case()
        got = train_network(pos, neg, 1, config=cfg)
        want = _sequential_train(pos, neg, 1, cfg)
        _assert_same_result(got, want)
        alone = [_sequential_once(pos, neg, 1, cfg, cfg.seed + 7919 * r, 10)
                 for r in range(3)]
        assert [a.worst_margin > cfg.accept_margin for a in alone] == \
               [False, False, True]
        _assert_same_result(got, alone[2])

    def test_early_accept_telemetry_matches_sequential(self):
        pos, neg, cfg = self._accept_case()
        snaps = []
        for train in (train_network, _sequential_train):
            reg = telemetry.Registry()
            with telemetry.use_registry(reg):
                train(pos, neg, 1, cfg)
            snap = reg.snapshot()
            snaps.append(({k: v for k, v in snap["counters"].items()
                           if k.startswith("nn.")},
                          {k: v for k, v in snap["histograms"].items()
                           if k.startswith("nn.")},
                          reg.op_counts()))
        (counters, hists, ops), want = snaps[0], snaps[1]
        assert (counters, hists, ops) == want
        # Only restarts 0..2 are observed; restart 1 is the one extra
        # restart counted (the accepted restart 2 is not).
        assert counters["nn.train_restarts"] == 1
        assert counters["nn.networks_trained"] == 1
        assert hists["nn.epoch_loss"]["count"] == ops["observe"] - 1


@pytest.mark.slow
class TestLockstepBugWorkloads:
    """The lockstep kernel is pinned to the sequential restarts on every
    Table V bug's encoded training rows, with the offline trainer's own
    configuration."""

    @pytest.mark.parametrize("bug", all_bug_names())
    def test_lockstep_equals_sequential(self, bug):
        cfg, train_cfg, pos, neg = _encoded_bug_examples(bug)
        _assert_same_result(
            train_network(pos, neg, cfg.n_hidden, config=train_cfg,
                          max_inputs=cfg.max_inputs),
            _sequential_train(pos, neg, cfg.n_hidden, train_cfg,
                              max_inputs=cfg.max_inputs))
