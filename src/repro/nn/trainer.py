"""Offline network training and topology search.

Mirrors Section VI.B: sweeps the number of RAW dependences per input
(``N`` from 1 to 5, i.e. input width 2N) and the hidden width (1 to
10), selecting the topology with the lowest misprediction rate on
held-out test data. Offline training is software, so it uses full-batch
gradient descent with momentum; the hardware's per-example rule
(learning rate 0.2) lives in :func:`_sgd_examples`, which online
negative feedback uses.

A network's independent restarts train in lockstep
(:func:`_fit_lockstep`): their weights are stacked into one tensor and
every epoch is one batched pass over all of them. Each stacked slice is
the same computation a lone restart would make, so the weights, epoch
counts and error histories do not depend on how many restarts share
the stack.
"""

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.nn.network import OneHiddenLayerNet


@dataclass
class TrainConfig:
    """Hyper-parameters for offline back-propagation."""

    max_epochs: int = 3000
    # Stop this many epochs after the training error first reaches
    # target_error (lets the margins harden without running the full
    # epoch budget).
    patience_after_fit: int = 50
    # Stop early once the training misclassification rate reaches this.
    target_error: float = 0.0
    # Margin targets: train valid examples toward 0.9 and invalid toward
    # 0.1 (saturating sigmoids toward exactly 0/1 slows convergence).
    positive_target: float = 0.9
    negative_target: float = 0.1
    seed: int = 0
    # Replicate the minority class so positives and negatives carry
    # similar total weight during back-propagation. Without this the
    # (few) synthesized negatives are drowned out and the network
    # defaults to "valid" on unseen sequences.
    balance_classes: bool = True
    # Independent training restarts; the first whose fit clears
    # accept_margin wins, otherwise the one with the lowest training
    # error (ties: largest worst-case margin). Memorising a small
    # pattern set with a tiny MLP is sensitive to the weight init, and
    # restarts are the standard cure. All restarts train in lockstep, so
    # those after the accepted one also run and are discarded.
    restarts: int = 5
    # Offline training is full-batch gradient descent with momentum:
    # deterministic and orders of magnitude faster in numpy than the
    # per-example rule, which only the hardware's online-training mode
    # (and negative feedback, via _sgd_examples) uses.
    momentum: float = 0.9
    batch_learning_rate: float = 2.0
    # Margin the restart loop considers "good enough" to stop early.
    accept_margin: float = 0.25


@dataclass
class TrainResult:
    """Outcome of training one network."""

    net: OneHiddenLayerNet
    epochs: int
    train_error: float
    n_positives: int
    n_negatives: int
    history: list = field(default_factory=list)
    # Smallest signed distance from 0.5 over the training set, with the
    # sign flipped for negatives (so positive = correctly classified).
    worst_margin: float = 0.0


def train_network(positives, negatives, n_hidden, config=None, seed=None,
                  max_inputs=10):
    """Train an ``i-h-1`` network on encoded example vectors.

    Trains ``config.restarts`` independently initialised restarts in
    lockstep and keeps the first whose fit is accepted (zero training
    error and worst margin above ``config.accept_margin``), otherwise
    the best (lowest training error, then largest worst-case margin).

    Args:
        positives: 2-D array of valid-sequence encodings.
        negatives: 2-D array of invalid-sequence encodings (may be empty).
        n_hidden: hidden-layer width.
        config: :class:`TrainConfig`; defaults apply when omitted.
        seed: overrides ``config.seed`` when given.

    Returns:
        :class:`TrainResult` with the trained network.
    """
    cfg = config or TrainConfig()
    if seed is None:
        seed = cfg.seed
    positives, negatives, xs, targets, labels = _training_set(
        positives, negatives, cfg)
    nets = [OneHiddenLayerNet(positives.shape[1], n_hidden,
                              seed=seed + 7919 * r, max_inputs=max_inputs)
            for r in range(max(1, cfg.restarts))]
    epochs, errors, history = _fit_lockstep(nets, xs, targets, labels, cfg)

    # Select, and replay the per-restart telemetry, in restart order:
    # exactly what training the restarts one after another recorded.
    best = None
    best_key = None
    tele = telemetry.get_registry()
    for r, net in enumerate(nets):
        outputs = net.predict_batch(xs)
        margins = np.where(labels, outputs - 0.5, 0.5 - outputs)
        result = TrainResult(net=net, epochs=epochs[r],
                             train_error=errors[r],
                             n_positives=len(positives),
                             n_negatives=len(negatives),
                             history=history[:epochs[r], r].tolist(),
                             worst_margin=float(margins.min()))
        if tele.enabled:
            for err_rate in result.history:
                tele.observe("nn.epoch_loss", err_rate)
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


def _training_set(positives, negatives, cfg):
    """Arrays one training run fits: ``(positives, negatives, xs,
    targets, labels)``, with the minority class replicated into ``xs``
    when ``cfg.balance_classes`` asks for it."""
    positives = np.atleast_2d(np.asarray(positives, dtype=float))
    if negatives is None or len(negatives) == 0:
        negatives = np.empty((0, positives.shape[1]))
    negatives = np.atleast_2d(np.asarray(negatives, dtype=float))

    train_pos, train_neg = positives, negatives
    if cfg.balance_classes and len(negatives) and len(positives):
        if len(negatives) < len(positives):
            reps = -(-len(positives) // len(negatives))  # ceil
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
    return positives, negatives, xs, targets, labels


def _sgd_examples(net, xs, targets, lr, order=None, cross_entropy=False):
    """Inlined per-example SGD sweep, bit-identical to the method calls.

    Runs the exact computation of ``net.train_example`` (or
    ``train_example_ce``) for each row of ``xs`` in ``order``, with the
    per-call overhead stripped: weight views, the sigmoid table and its
    scale factors are hoisted out of the loop, and the table lookup is
    applied inline. Every floating-point expression keeps the reference
    kernel's operation order -- in particular the table index
    ``(x + clip) * (resolution - 1) / (2 * clip)`` is *not* rewritten
    with a precomputed scale, which would perturb the last ulp and
    occasionally round to a different table entry.
    """
    sig = net.sigmoid
    table = sig._table
    clip = sig.clip
    res1 = sig.resolution - 1
    two_clip = 2 * sig.clip
    w_out = net.w_out
    wh = net.w_hidden[:, :-1]
    whb = net.w_hidden[:, -1]
    wo = w_out[:-1]
    if order is None:
        order = range(len(xs))
    for idx in order:
        x = xs[idx]
        target = targets[idx]
        h_in = wh @ x + whb
        fi = (h_in + clip) * res1 / two_clip
        h = table[np.clip(np.rint(fi).astype(int), 0, res1)]
        o_in = wo @ h + w_out[-1]
        fo = (o_in + clip) * res1 / two_clip
        o = float(table[np.clip(np.rint(fo).astype(int), 0, res1)])
        if cross_entropy:
            err_o = target - o
        else:
            err_o = o * (1.0 - o) * (target - o)
        err_h = h * (1.0 - h) * (wo * err_o)
        wo += lr * err_o * h
        w_out[-1] += lr * err_o
        wh += lr * np.outer(err_h, x)
        whb += lr * err_h


def _fit_lockstep(nets, xs, targets, labels, cfg):
    """Full-batch gradient descent with momentum for all restarts at once.

    The restarts' weights and momenta are stacked into ``(R, h, i+1)``
    and ``(R, h+1)`` tensors, and each epoch is one batched ``@`` pass
    over the stack. Every stacked slice makes the same BLAS call a lone
    restart would (``matmul`` loops over the leading axis) and every
    reduction runs along the same axis, so each restart's weights and
    errors are bit-identical to training it alone. A restart stops on
    its own: ``patience_after_fit`` epochs after its training error
    first reaches ``target_error``, it keeps that epoch's weights and
    leaves the stack, so it gets no further update.

    Uses true sigmoids (not the quantised table) for the forward pass
    during training; the resulting weights are loaded into the
    table-based networks, whose predictions the selection margin is
    computed against -- so any quantisation mismatch shows up in the
    restart criterion, not silently at deployment.

    Returns:
        ``(epochs, errors, history)``: per restart the epochs run and
        the last epoch's training error, plus a ``(max_epochs, R)``
        array whose column ``r`` holds restart ``r``'s per-epoch error
        in its first ``epochs[r]`` rows. The final weights are written
        into ``nets``.
    """
    n = len(xs)
    n_restarts = len(nets)
    w_h = np.stack([net.w_hidden for net in nets])
    w_o = np.stack([net.w_out for net in nets])
    v_h = np.zeros_like(w_h)
    v_o = np.zeros_like(w_o)
    lr = cfg.batch_learning_rate
    history = np.empty((cfg.max_epochs, n_restarts))
    epochs = [0] * n_restarts
    errors = [1.0] * n_restarts
    live = list(range(n_restarts))  # restart index of each stack row
    fit_epoch = [None] * n_restarts
    for epoch in range(1, cfg.max_epochs + 1):
        h_in = xs @ w_h[:, :, :-1].transpose(0, 2, 1) + w_h[:, None, :, -1]
        h = 1.0 / (1.0 + np.exp(-h_in))
        o_in = (h @ w_o[:, :-1, None])[:, :, 0] + w_o[:, -1:]
        o = 1.0 / (1.0 + np.exp(-o_in))

        err = np.mean((o >= 0.5) != labels, axis=1)
        history[epoch - 1, live] = err
        keep = []
        for row, (r, err_rate) in enumerate(zip(live, err.tolist())):
            epochs[r], errors[r] = epoch, err_rate
            if err_rate <= cfg.target_error:
                if fit_epoch[r] is None:
                    fit_epoch[r] = epoch
                if epoch - fit_epoch[r] >= cfg.patience_after_fit:
                    nets[r].w_hidden = w_h[row].copy()
                    nets[r].w_out = w_o[row].copy()
                    continue
            else:
                fit_epoch[r] = None
            keep.append(row)
        if len(keep) < len(live):
            live = [live[row] for row in keep]
            if not live:
                break
            w_h, w_o, v_h, v_o, h, o = (
                a[keep] for a in (w_h, w_o, v_h, v_o, h, o))

        d_o = o * (1.0 - o) * (targets - o)  # (R, n)
        d_h = h * (1.0 - h) * (d_o[:, :, None] * w_o[:, None, :-1])
        g_o = np.concatenate([(d_o[:, None, :] @ h)[:, 0, :],
                              d_o.sum(axis=1, keepdims=True)], axis=1) / n
        g_h = np.concatenate([d_h.transpose(0, 2, 1) @ xs,
                              d_h.sum(axis=1)[:, :, None]], axis=2) / n
        v_o = cfg.momentum * v_o + lr * g_o
        v_h = cfg.momentum * v_h + lr * g_h
        w_o += v_o
        w_h += v_h
    for row, r in enumerate(live):
        nets[r].w_hidden = w_h[row].copy()
        nets[r].w_out = w_o[row].copy()
    return epochs, errors, history


@dataclass
class TopologyChoice:
    """One evaluated point of the topology search."""

    seq_len: int
    n_hidden: int
    mispred_rate: float
    result: TrainResult

    @property
    def topology(self):
        """Topology string ``i-h-1`` as the paper's Table IV prints it."""
        return f"{self.result.net.n_inputs}-{self.n_hidden}-1"


def evaluate_misprediction(net, test_positives, test_negatives=None):
    """Fraction of test examples the network misclassifies.

    With only positives this is the paper's Table IV false-positive
    metric; with only synthesized negatives it is Figure 7(a)'s
    false-negative metric.
    """
    total = 0
    wrong = 0
    if test_positives is not None and len(test_positives) > 0:
        out = net.predict_batch(np.atleast_2d(test_positives))
        wrong += int(np.sum(out < 0.5))
        total += len(out)
    if test_negatives is not None and len(test_negatives) > 0:
        out = net.predict_batch(np.atleast_2d(test_negatives))
        wrong += int(np.sum(out >= 0.5))
        total += len(out)
    if total == 0:
        return 0.0
    return wrong / total


def _search_point(payload):
    """Picklable work item: train and score one grid point."""
    train_pos, train_neg, test_pos, test_neg, h, config, max_inputs = payload
    result = train_network(train_pos, train_neg, h, config=config,
                           max_inputs=max_inputs)
    rate = evaluate_misprediction(result.net, test_pos, test_neg)
    return result, rate


def _point_to_payload(result, rate):
    """Checkpoint snapshot of one evaluated grid point (JSON-safe)."""
    return {
        "rate": float(rate),
        "weights": [float(w) for w in result.net.read_weights()],
        "n_inputs": result.net.n_inputs,
        "n_hidden": result.net.n_hidden,
        "epochs": result.epochs,
        "train_error": float(result.train_error),
        "worst_margin": float(result.worst_margin),
        "n_positives": result.n_positives,
        "n_negatives": result.n_negatives,
    }


def _point_from_payload(payload, max_inputs):
    """Rebuild a grid point from its checkpoint snapshot.

    The network is reconstructed exactly (float lists survive the JSON
    round trip bit-for-bit); only the per-epoch error history is not
    persisted.
    """
    net = OneHiddenLayerNet(payload["n_inputs"], payload["n_hidden"],
                            max_inputs=max_inputs)
    net.write_weights(np.asarray(payload["weights"], dtype=float))
    result = TrainResult(net=net, epochs=payload["epochs"],
                         train_error=payload["train_error"],
                         n_positives=payload["n_positives"],
                         n_negatives=payload["n_negatives"],
                         history=[],
                         worst_margin=payload["worst_margin"])
    return result, payload["rate"]


def search_topology(example_sets, hidden_widths=None, config=None,
                    max_inputs=10, jobs=None, checkpoint=None):
    """Grid-search (sequence length x hidden width) topologies.

    Args:
        example_sets: mapping ``seq_len -> (train_pos, train_neg,
            test_pos, test_neg)`` of encoded arrays, one entry per
            candidate sequence length.
        hidden_widths: candidate hidden widths (default 1..max_inputs).
        jobs: evaluate grid points across this many worker processes
            (every point is seeded by ``config``, so serial and
            parallel searches pick the identical winner).
        checkpoint: optional open :class:`~repro.faults.Checkpoint`;
            every evaluated point is snapshotted under
            ``point:<seq_len>-<h>`` and reused on resume, so a killed
            search re-trains only the missing grid points and still
            picks the identical winner.

    Returns:
        (best, all_choices): the lowest-misprediction
        :class:`TopologyChoice` and the full list, ordered as evaluated.
        Ties break toward the *larger* network (longer sequences, then
        more hidden units): with equal measured rates the extra capacity
        is free robustness headroom for deployment-time online learning,
        which is why the paper's Table IV settles on 10-10-1 for almost
        every program.
    """
    from repro.parallel import run_tasks

    hidden_widths = list(hidden_widths or range(1, max_inputs + 1))
    grid = [(seq_len, h) for seq_len in sorted(example_sets)
            for h in hidden_widths]
    cached = {}
    if checkpoint is not None:
        for seq_len, h in grid:
            payload = checkpoint.get(f"point:{seq_len}-{h}")
            if payload is not None:
                cached[(seq_len, h)] = _point_from_payload(payload,
                                                           max_inputs)
    pending = [point for point in grid if point not in cached]
    outs = run_tasks(
        _search_point,
        [example_sets[seq_len] + (h, config, max_inputs)
         for seq_len, h in pending],
        jobs=jobs)
    tele = telemetry.get_registry()
    fresh = {}
    for (seq_len, h), (result, rate) in zip(pending, outs):
        fresh[(seq_len, h)] = (result, rate)
        if checkpoint is not None:
            checkpoint.put(f"point:{seq_len}-{h}",
                           _point_to_payload(result, rate), save=False)
        if tele.enabled:
            tele.inc("nn.topologies_evaluated")
            tele.observe("nn.topology_mispred_rate", rate)
    if checkpoint is not None and fresh:
        checkpoint.save()
    choices = []
    for seq_len, h in grid:
        result, rate = cached.get((seq_len, h)) or fresh[(seq_len, h)]
        choices.append(TopologyChoice(seq_len, h, rate, result))
    best = min(choices,
               key=lambda c: (c.mispred_rate, -c.seq_len, -c.n_hidden))
    return best, choices
