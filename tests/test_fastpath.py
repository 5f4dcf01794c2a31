"""Scalar <-> batched replay equivalence (repro.core.fastpath).

The fast path's contract is *bit identity*: for every workload, the
chunked batched replay must leave the AMs in exactly the state the
scalar per-dependence replay produces -- same debug-buffer entries,
same prediction counts and outputs, same mode switches and window
rates, same weights, same prediction records.
"""

import functools

import numpy as np
import pytest

from repro import telemetry
from repro.core import fastpath
from repro.core.config import ACTConfig
from repro.core.deploy import deploy_on_run, replay_scalar
from repro.core.offline import OfflineTrainer
from repro.workloads.framework import run_program
from repro.workloads.registry import all_bug_names, get_bug, get_kernel

_CONFIG = ACTConfig()


@functools.lru_cache(maxsize=None)
def _trained_bug(name):
    return OfflineTrainer(config=_CONFIG).train(
        get_bug(name), n_runs=4, seed0=0, buggy=False)


def assert_deployments_equal(ref, fast):
    __tracebackhide__ = True
    assert fast.n_deps == ref.n_deps
    assert set(fast.modules) == set(ref.modules)
    for tid, mr in ref.modules.items():
        mf = fast.modules[tid]
        assert mf.stats == mr.stats, f"tid {tid}: stats differ"
        assert mf.mode is mr.mode
        assert mf.invalid_counter == mr.invalid_counter
        assert mf._window_count == mr._window_count
        assert mf.debug_buffer.entries == mr.debug_buffer.entries
        assert mf.debug_buffer.total_logged == mr.debug_buffer.total_logged
        assert np.array_equal(mf.save_weights(), mr.save_weights())
        assert (mf.input_buffer.tail(mf.input_buffer.capacity)
                == mr.input_buffer.tail(mr.input_buffer.capacity))
    assert fast.records == ref.records
    assert fast.debug_entries() == ref.debug_entries()


@pytest.mark.parametrize("name", all_bug_names())
def test_bit_identical_on_bug_failure_run(name):
    trained = _trained_bug(name)
    run = run_program(get_bug(name), seed=12345, buggy=True)
    ref = replay_scalar(trained, run, keep_records=True)
    fast = deploy_on_run(trained, run, keep_records=True)
    assert_deployments_equal(ref, fast)


def test_bit_identical_with_tiny_chunks():
    """chunk_size smaller than seq_len/check_window stresses every
    chunk-boundary window and partial-commit path."""
    trained = _trained_bug("gzip")
    run = run_program(get_bug("gzip"), seed=7, buggy=True)
    ref = replay_scalar(trained, run, keep_records=True)
    for chunk in (1, 3, 7, 64):
        fast = fastpath.replay_run(trained, run, keep_records=True,
                                   chunk_size=chunk)
        assert_deployments_equal(ref, fast)


def test_bit_identical_across_training_stretches():
    """Replaying a foreign program drives the AMs into TRAINING (the
    scalar fallback), exercising the TESTING<->TRAINING seams."""
    churn_cfg = ACTConfig(check_window=10)
    trained = OfflineTrainer(config=churn_cfg).train(
        get_kernel("lu"), n_runs=4, seed0=0)
    run = run_program(get_kernel("fft"), seed=3)
    ref = replay_scalar(trained, run, keep_records=True)
    assert ref.n_mode_switches > 0  # the fallback is actually exercised
    fast = deploy_on_run(trained, run, keep_records=True)
    assert_deployments_equal(ref, fast)


def test_bit_identical_during_warmup_only_run():
    """A run shorter than seq_len never predicts; both paths agree."""
    trained = _trained_bug("gzip")
    run = run_program(get_bug("gzip"), seed=2, buggy=False)
    short = type(run)(events=run.events[:6], code_map=run.code_map,
                      n_threads=run.n_threads, seed=run.seed)
    ref = replay_scalar(trained, short, keep_records=True)
    fast = deploy_on_run(trained, short, keep_records=True)
    assert_deployments_equal(ref, fast)


def test_act_telemetry_counters_match_scalar():
    trained = _trained_bug("gzip")
    run = run_program(get_bug("gzip"), seed=12345, buggy=True)
    with telemetry.use_registry(telemetry.Registry()) as ref_reg:
        replay_scalar(trained, run)
    with telemetry.use_registry(telemetry.Registry()) as fast_reg:
        deploy_on_run(trained, run)
    ref = ref_reg.snapshot()["counters"]
    fast = fast_reg.snapshot()["counters"]
    for key in ("act.deps_processed", "act.predictions",
                "act.invalid_predictions", "act.windows_checked",
                "act.mode_switches", "debug_buffer.logged",
                "debug_buffer.overflows", "deploy.runs", "deploy.deps"):
        assert fast[key] == ref[key], key
    assert fast["deploy.fast_runs"] == 1
    assert ref["deploy.fast_runs"] == 0
    assert fast["fastpath.chunks"] >= 1
    # Window-rate histograms drive Fig 7b; they must agree too.
    assert (fast_reg.snapshot()["histograms"]["act.window_mispred_rate"]
            == ref_reg.snapshot()["histograms"]["act.window_mispred_rate"])


def test_diagnose_fast_flag_identical_report(monkeypatch):
    """Diagnosis reports the same whichever replay path deploy takes."""
    program = get_bug("gzip")
    from repro.core import diagnosis

    kwargs = dict(config=_CONFIG, n_train_runs=4, n_pruning_runs=6)
    fast = diagnosis.diagnose_failure(program, **kwargs)
    monkeypatch.setattr(diagnosis, "deploy_on_run", replay_scalar)
    ref = diagnosis.diagnose_failure(program, **kwargs)
    assert ref == fast
