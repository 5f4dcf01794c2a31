"""Self-tests of the benchmark harness on small instances.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from repro.faults.checkpoint import canonical_json  # noqa: E402
from repro.service import ops  # noqa: E402

SMALL_BUGS = ("gzip", "paste")


def small_corpus():
    return harness.Corpus(size=3)


def traced_pass(workload):
    tracer = layers.LayerTracer()
    with tracer:
        result = harness.run_pass(workload, traced=True)
    return tracer, result


def test_tracing_leaves_corpus_metrics_unchanged():
    req = ops.CorpusRequest(seed=7, size=3)
    plain = ops.run_corpus(req)
    with layers.LayerTracer():
        traced = ops.run_corpus(req)
    assert plain.rc == traced.rc == 0
    assert (canonical_json(plain.payload["metrics"])
            == canonical_json(traced.payload["metrics"]))
    assert plain.out == traced.out


@pytest.mark.parametrize("bug", SMALL_BUGS)
def test_tracing_leaves_diagnose_outcome_unchanged(bug):
    req = ops.DiagnoseRequest(bug=bug, seed=4242)
    plain = ops.run_diagnose(req)
    with layers.LayerTracer():
        traced = ops.run_diagnose(req)
    assert (plain.rc, plain.out) == (traced.rc, traced.out)


def test_every_wrapper_is_restored():
    originals = [(target, getattr(*layers.resolve(target)))
                 for target in (p.target for p in layers.PATCHES)]
    tracer = layers.LayerTracer()
    with tracer:
        for target, original in originals:
            assert getattr(*layers.resolve(target)) is not original
    with pytest.raises(RuntimeError):
        with layers.LayerTracer():
            raise RuntimeError("pass failed")
    for target, original in originals:
        assert getattr(*layers.resolve(target)) is original, target


def nn_share(tracer, result):
    return tracer.self_s["nn"] / result.wall_s


def test_nn_dominates_corpus():
    tracer, result = traced_pass(small_corpus())
    assert result.failed == 0
    assert nn_share(tracer, result) >= 0.8
    assert tracer.counts["nn.networks"] == 3


def test_nn_dominates_cold_diagnosis():
    workload = harness.DiagnoseCold(seed=1, bugs=SMALL_BUGS, per_bug=1)
    tracer, result = traced_pass(workload)
    assert result.failed == 0
    assert nn_share(tracer, result) >= 0.8
    assert tracer.counts["nn.networks"] == len(SMALL_BUGS)


def test_warm_diagnosis_trains_nothing_and_matches_cold():
    workload = harness.DiagnoseWarm(seed=1, bugs=SMALL_BUGS, per_bug=2)
    workload.prepare()
    tracer, result = traced_pass(workload)
    assert result.failed == 0, result.errors
    assert result.warm_hits == len(workload.requests)
    assert result.warm_misses == 0
    assert tracer.self_s["nn"] == 0
    assert tracer.counts["nn.networks"] == 0
    metrics = layers.layer_metrics(tracer, [result.wall_s], [result.wall_s],
                                   warm_hits=result.warm_hits)
    assert metrics["service.warm_hit_ratio"] == 1.0
    pipeline = sum(metrics[name] for name in (
        "workloads.pruning_runs.self_s", "workloads.failure_run.self_s",
        "postprocess.correct_set.self_s", "postprocess.rank.self_s",
        "deploy.self_s"))
    assert pipeline > 0.5 * result.wall_s


def test_warm_check_catches_a_differing_outcome():
    workload = harness.DiagnoseWarm(seed=1, bugs=("gzip",), per_bug=1)
    workload.prepare()
    rc, out = workload.cold[0]
    workload.cold[0] = (rc, out + "\nextra line")
    result = harness.run_pass(workload)
    assert result.failed == 1
    assert "differs from the cold one" in result.errors[0]


def test_warm_check_catches_a_cache_miss():
    workload = harness.DiagnoseWarm(seed=1, bugs=("gzip",), per_bug=1)
    workload.prepare()
    workload.cache = ops.WarmStateCache(capacity=1)
    workload.setup_misses = 0
    result = harness.run_pass(workload)
    assert result.failed == 1
    assert "warm cache missed" in result.errors[0]


def test_cold_check_catches_nondeterminism():
    workload = harness.DiagnoseCold(seed=1, bugs=("gzip",), per_bug=1)
    assert harness.run_pass(workload).failed == 0
    workload._seen[0] = (0, "another outcome")
    result = harness.run_pass(workload)
    assert result.failed == 1


def test_corpus_check_rejects_quarantine_and_changed_metrics():
    workload = small_corpus()
    metrics = {"overall": {"n_quarantined": 0, "n_programs": 3}}
    good = ops.Outcome(rc=0, out="table", payload={"metrics": metrics})
    assert workload.check(0, good) == []
    changed = ops.Outcome(rc=0, out="other table",
                          payload={"metrics": metrics})
    assert workload.check(0, changed) == [
        "corpus metrics differ between passes"]
    quarantined = {"overall": {"n_quarantined": 1, "n_programs": 3}}
    workload = small_corpus()
    errors = workload.check(0, ops.Outcome(
        rc=0, out="table", payload={"metrics": quarantined}))
    assert errors == ["corpus quarantined programs"]
    assert workload.check(0, ops.Outcome(rc=2, err="boom")) == [
        "corpus rc 2: boom"]


def test_an_exception_is_a_failed_operation():
    workload = harness.DiagnoseCold(seed=1, bugs=("no-such-bug",),
                                    per_bug=1)
    workload.execute = lambda i: 1 / 0
    result = harness.run_pass(workload)
    assert (result.attempted, result.failed) == (1, 1)


def test_failure_seeds_follow_the_seed():
    assert harness.failure_seeds(5) == harness.failure_seeds(5)
    assert harness.failure_seeds(5) != harness.failure_seeds(6)
    assert len(harness.failure_seeds(5)) == (len(harness.TABLE_V_BUGS)
                                             * harness.SEEDS_PER_BUG)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    assert harness.tail(samples) == (90.0, 89.0)
    assert harness.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_warm_setup_must_reproduce_the_cold_outcomes():
    workload = harness.DiagnoseWarm(seed=1, bugs=("gzip",), per_bug=1)
    assert workload.prepare().failed == 0
    rc, out = workload.cold[0]
    workload.cold[0] = (rc, out + "\nextra line")
    result = workload.prepare()
    assert (result.attempted, result.failed) == (1, 1)
    assert "differs between set-ups" in result.errors[0]


def test_host_speed_clock_excludes_sampling():
    speed = hostspeed.HostSpeed(interval=0.02)
    with speed:
        while len(speed.kernel_s) < 3:
            hostspeed.kernel()
        while True:  # read both clocks with no sample in between
            busy = speed.busy_s
            clock, real = speed.clock(), hostspeed.perf_counter()
            if speed.busy_s == busy:
                break
    assert speed.busy_s >= sum(speed.kernel_s) > 0
    assert speed.times == sorted(speed.times)
    assert real - clock == pytest.approx(busy, abs=1e-3)


def test_host_speed_scales_by_the_nearby_kernel_time(monkeypatch):
    monkeypatch.setattr(hostspeed, "WINDOW_S", 0.6)
    monkeypatch.setattr(hostspeed, "MIN_SAMPLES", 3)
    speed = hostspeed.HostSpeed()
    speed.times = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    speed.kernel_s = [0.009, 0.009, 0.009, 0.018, 0.018, 0.018]
    ref = hostspeed.REFERENCE_S
    assert speed.scale(1.0, 0.5, 1.5) == pytest.approx(ref / 0.009)
    assert speed.scale(1.0, 10.5, 11.0) == pytest.approx(ref / 0.018)
    # no sample within the window: the nearest ones count
    assert speed.scale(1.0, 30.0, 31.0) == pytest.approx(ref / 0.018)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_every_metric_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert ({(m["name"], m["unit"]) for m in spec["end_to_end"]}
            == set(run.END_TO_END_UNITS.items()))
    assert ({(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
            == set(layers.PER_LAYER))
