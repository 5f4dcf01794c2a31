"""The adaptive-overhead frontier sweep and its seed-pinned golden.

Mirrors the shootout conventions: a small seed-pinned sweep shared by
the golden test and CI's frontier-smoke job, canonical-JSON byte
identity, serial == ``--jobs 4``, and the timestamp-free accuracy
trajectory with last-entry dedupe.
"""

import json
import pathlib

import pytest

from repro.common.errors import ConfigError
from repro.core.policy import NULL_POLICY
from repro.analysis.frontier import (
    FrontierSpec,
    bench_entry,
    format_frontier,
    frontier_json,
    run_frontier,
)
from repro.analysis.shootout import append_bench

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# The seed-pinned sweep shared by the golden test and CI's
# frontier-smoke job (.github/workflows/ci.yml): small enough for
# tier-1, wide enough for a real baseline-vs-sampled comparison.
FRONT = FrontierSpec(seed=7, size=5, rates=(1.0, 0.5), fifo_sizes=(4, 16),
                     n_train_runs=4, n_pruning_runs=6)


@pytest.fixture(scope="session")
def small_frontier():
    return run_frontier(FRONT)


class TestFrontierSpec:
    def test_rates_normalized_and_baseline_always_present(self):
        spec = FrontierSpec(rates=(0.5, 0.25, 0.5))
        assert spec.rates == (1.0, 0.5, 0.25)
        assert FrontierSpec(rates=()).rates == (1.0,)

    def test_fifo_sizes_sorted_deduped(self):
        assert FrontierSpec(fifo_sizes=(16, 4, 16)).fifo_sizes == (4, 16)

    @pytest.mark.parametrize("kwargs", [
        dict(rates=(0.0,)), dict(rates=(1.5,)),
        dict(fifo_sizes=()), dict(fifo_sizes=(0,)),
    ])
    def test_bad_spec_raises_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            FrontierSpec(**kwargs)

    def test_policy_for_full_rate_is_null(self):
        spec = FrontierSpec(rates=(1.0, 0.5), backoff=True)
        assert spec.policy_for(1.0) is NULL_POLICY
        policy = spec.policy_for(0.5)
        assert policy.enabled and policy.rate == 0.5 and policy.backoff

    def test_fingerprint_is_json_safe(self):
        json.dumps(FRONT.fingerprint())


@pytest.mark.slow
class TestFrontierGolden:
    def _check(self, path, text, update):
        if update:
            path.write_text(text, encoding="utf-8")
            pytest.skip(f"updated {path.name}")
        assert path.exists(), (
            f"golden file {path} missing; run pytest --update-golden")
        assert text == path.read_text(encoding="utf-8")

    def test_metrics_json_matches_golden(self, small_frontier,
                                         update_golden):
        self._check(GOLDEN_DIR / "frontier_s7.json",
                    frontier_json(small_frontier), update_golden)

    def test_metrics_json_is_canonical(self, small_frontier):
        text = frontier_json(small_frontier)
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_serial_vs_jobs_4_byte_identical(self, small_frontier):
        parallel = run_frontier(FRONT, jobs=4)
        assert frontier_json(parallel) == frontier_json(small_frontier)


@pytest.mark.slow
class TestFrontierMetrics:
    def test_every_sweep_point_present(self, small_frontier):
        points = small_frontier.metrics["points"]
        assert {(p["rate"], p["fifo"]) for p in points} == {
            (r, f) for r in FRONT.rates for f in FRONT.fifo_sizes}

    def test_full_rate_baseline_ratios_are_one(self, small_frontier):
        for p in small_frontier.metrics["points"]:
            if p["rate"] >= 1.0:
                assert p["overhead_vs_full"] == 1.0
                assert p["deps_shed"] == 0

    def test_sampling_reduces_the_overhead_proxy(self, small_frontier):
        points = small_frontier.metrics["points"]
        by_key = {(p["rate"], p["fifo"]): p for p in points}
        for fifo in FRONT.fifo_sizes:
            sampled = by_key[(0.5, fifo)]
            assert sampled["deps_shed"] > 0
            assert (sampled["overhead_proxy"]
                    < by_key[(1.0, fifo)]["overhead_proxy"])

    def test_pareto_front_is_non_dominated(self, small_frontier):
        points = small_frontier.metrics["points"]
        front = [p for p in points if p["pareto"]]
        assert front
        for p in front:
            for q in points:
                if q is p:
                    continue
                assert not (
                    q["overhead_proxy"] <= p["overhead_proxy"]
                    and (q["top1"] or 0.0) >= (p["top1"] or 0.0)
                    and (q["overhead_proxy"] < p["overhead_proxy"]
                         or (q["top1"] or 0.0) > (p["top1"] or 0.0)))
        listed = {tuple(rf) for rf in small_frontier.metrics["pareto"]}
        assert listed == {(p["rate"], p["fifo"]) for p in front}

    def test_summary_pick_is_a_swept_point(self, small_frontier):
        s = small_frontier.metrics["frontier"]
        assert (s["rate"], s["fifo"]) in {
            (p["rate"], p["fifo"])
            for p in small_frontier.metrics["points"]}
        # Ratios against the full-rate baseline, so gateable anywhere.
        assert s["overhead_proxy"] is None or 0 < s["overhead_proxy"] <= 1.0

    def test_table_renders_every_point_and_the_pick(self, small_frontier):
        text = format_frontier(small_frontier)
        assert text.splitlines()[0] == (
            "Adaptive-overhead frontier (seed 7, 5 programs)")
        assert text.count("\n") >= len(small_frontier.metrics["points"])
        assert "frontier pick: rate" in text

    def test_bench_append_and_dedupe(self, small_frontier, tmp_path):
        path = tmp_path / "BENCH_accuracy.json"
        doc = append_bench(bench_entry(small_frontier), str(path))
        assert doc["schema"] == 1
        assert doc["entries"] == [bench_entry(small_frontier)]
        again = append_bench(bench_entry(small_frontier), str(path))
        assert again["entries"] == doc["entries"]
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk == doc
        entry = doc["entries"][0]
        assert entry["experiment"] == "frontier"
        assert "timestamp" not in entry
        assert "frontier" in entry and "pareto" in entry
