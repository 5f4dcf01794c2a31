"""Batched replay fast path for production-run deployment.

:func:`repro.core.deploy.replay_scalar` replays a trace one dependence
at a time through :meth:`ACTModule.process_dep` -- faithful to the
hardware, but Python-loop bound. This module replays the same trace in
chunks: while an AM sits in TESTING mode its weights cannot change, so a
whole chunk of that thread's dependence stream can be encoded with
:meth:`DepEncoder.encode_windows` and scored with
:meth:`OneHiddenLayerNet.predict_batch_exact` in a handful of numpy
calls, then committed dependence-by-dependence against the cheap
bookkeeping (debug buffer, invalid counter, check windows).

The result is **bit-identical** to the scalar replay -- same debug
entries, same counters, same mode switches, same window rates -- because

- ``predict_batch_exact`` recomputes any row whose pre-activation lands
  near a sigmoid-table rounding boundary with the exact scalar kernel,
  so batched outputs equal per-dependence outputs everywhere;
- the commit loop mirrors ``process_dep``'s bookkeeping order exactly,
  and stops at the first mode switch out of TESTING;
- anything that is not steady-state TESTING (warm-up, online TRAINING
  stretches) falls back to the scalar ``process_dep`` until the module
  returns to TESTING.

Per-thread streams are replayed independently (an AM only ever sees its
own thread's dependences), and prediction records are re-sorted by their
global dependence ordinal when callers ask for them.
"""

from repro import telemetry
from repro.core.act_module import Mode, PredictionRecord
from repro.core.buffers import DebugEntry
from repro.core.deploy import DeploymentResult
from repro.trace.raw import RawDepExtractor

DEFAULT_CHUNK_SIZE = 1024


def replay_run(trained, run, keep_records=False,
               chunk_size=DEFAULT_CHUNK_SIZE):
    """Replay ``run`` through per-thread AMs using chunked batch scoring.

    Drop-in equivalent of :func:`repro.core.deploy.replay_scalar`: the
    returned :class:`DeploymentResult` carries AMs in bit-identical
    end-of-run state (weights, buffers, stats, mode).
    """
    cfg = trained.config
    modules = {tid: trained.make_module(tid) for tid in range(run.n_threads)}
    extractor = RawDepExtractor(filter_stack=cfg.filter_stack_loads)
    result = DeploymentResult(modules=modules)

    # Phase 1: one pass over the event stream, demultiplexing RAW
    # dependences into per-thread streams (the per-core AM feed).
    streams = {}
    ordinals = {} if keep_records else None
    for index, event in enumerate(run.events):
        rec = extractor.feed(event, index=index)
        if rec is None:
            continue
        if rec.tid not in modules:  # thread spawned beyond the trained set
            modules[rec.tid] = trained.make_module(rec.tid)
        streams.setdefault(rec.tid, []).append(rec.dep)
        if keep_records:
            ordinals.setdefault(rec.tid, []).append(result.n_deps)
        result.n_deps += 1

    # Phase 2: chunked replay, one thread at a time.
    collected = [] if keep_records else None
    for tid in sorted(streams):
        if keep_records:
            ords = ordinals[tid]

            def collect(j, rec, _ords=ords):
                collected.append((_ords[j], rec))
        else:
            collect = None
        replay_stream(modules[tid], streams[tid], chunk_size=chunk_size,
                      collect=collect)
    if keep_records:
        collected.sort(key=lambda item: item[0])
        result.records = [rec for _, rec in collected]

    tele = telemetry.get_registry()
    if tele.enabled:
        tele.inc("deploy.runs")
        tele.inc("deploy.fast_runs")
        tele.inc("deploy.deps", result.n_deps)
    return result


def replay_stream(module, deps, chunk_size=DEFAULT_CHUNK_SIZE, collect=None):
    """Replay one thread's dependence stream through its AM.

    TESTING stretches are scored in batched chunks; everything else
    (TRAINING stretches, where each prediction may update the weights)
    runs through the scalar :meth:`ACTModule.process_dep`. ``collect``,
    when given, receives ``(stream_index, PredictionRecord)`` for every
    dependence that formed a prediction.
    """
    if chunk_size < 1:
        chunk_size = DEFAULT_CHUNK_SIZE
    n = len(deps)
    tele = telemetry.get_registry()
    i = 0
    while i < n:
        if module.mode is Mode.TESTING:
            i += _replay_chunk_testing(
                module, deps, i, min(i + chunk_size, n), tele, collect)
        else:
            n_scalar = 0
            while i < n and module.mode is not Mode.TESTING:
                pred = module.process_dep(deps[i])
                if collect is not None and pred is not None:
                    collect(i, pred)
                i += 1
                n_scalar += 1
            if tele.enabled and n_scalar:
                tele.inc("fastpath.scalar_deps", n_scalar)


def _replay_chunk_testing(module, deps, start, end, tele, collect):
    """Score ``deps[start:end]`` in one batch while the AM is TESTING.

    Returns how many dependences were committed -- the full chunk, or
    fewer when a check window flipped the AM out of TESTING mid-chunk
    (the remainder is replayed by the caller under the new mode).
    """
    cfg = module.config
    seq_len = cfg.seq_len
    stats = module.stats
    chunk = deps[start:end]

    # Prefix the chunk with the newest buffered dependences so the first
    # windows straddling the chunk boundary (or the warm-up edge) come
    # out exactly as the scalar path would form them.
    pre = module.input_buffer.tail(seq_len - 1)
    n_pre = len(pre)
    combined = pre + list(chunk)
    first = max(0, seq_len - 1 - n_pre)  # first chunk pos that predicts

    n_exact = 0
    if len(combined) >= seq_len:
        xs = module.encoder.encode_windows(combined, seq_len)
        outputs, n_exact = module.net.predict_batch_exact(xs)
    else:
        outputs = None  # whole chunk is warm-up: no prediction forms

    committed = 0
    n_pred = 0
    n_inv = 0
    mode_exit = False
    for p in range(len(chunk)):
        committed = p + 1
        stats.deps_processed += 1
        if p < first:
            continue  # warm-up: scalar path returns before windowing
        row = n_pre + p - (seq_len - 1)
        output = float(outputs[row])
        invalid = output < 0.5
        stats.predictions += 1
        n_pred += 1
        seq = None
        if invalid or collect is not None:
            seq = tuple(combined[row:row + seq_len])
        if invalid:
            module.debug_buffer.log(DebugEntry(
                seq=seq, output=output, index=stats.predictions,
                tid=module.tid))
            module.invalid_counter += 1
            stats.invalid_predictions += 1
            n_inv += 1
        module._window_count += 1
        if module._window_count >= cfg.check_window:
            module._check_misprediction_rate()
            mode_exit = module.mode is not Mode.TESTING
        if collect is not None:
            # Record mode *after* the window check, as process_dep does
            # (a mode-flipping dependence reports the new mode).
            collect(start + p, PredictionRecord(
                seq=seq, output=output, predicted_invalid=invalid,
                mode=module.mode, index=stats.predictions))
        if mode_exit:
            break

    module.input_buffer.extend(chunk[:committed])

    if tele.enabled:
        tele.inc("act.deps_processed", committed)
        tele.inc("fastpath.chunks")
        tele.observe("fastpath.chunk_size", committed)
        if n_pred:
            tele.inc("act.predictions", n_pred)
            tele.inc("fastpath.batched_predictions", n_pred)
        if n_inv:
            tele.inc("act.invalid_predictions", n_inv)
        if n_exact:
            tele.inc("fastpath.exact_recomputes", n_exact)
        if mode_exit:
            tele.inc("fastpath.chunk_mode_exits")
    return committed
