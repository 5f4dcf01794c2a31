"""Tracing v2: clocks, flight recorder, analysis surfaces, overhead.

Covers the deterministic TickClock, the bounded flight recorder and its
profile reconstruction, flame/critical-path/OpenMetrics rendering, the
self-overhead model, the zero-cost audit of the disabled path, and the
golden-file byte-stability of seed-pinned exports.
"""

import json
import pathlib
import time
import tracemalloc

import pytest

from repro import telemetry
from repro.telemetry import (
    FlightRecorder,
    TickClock,
    clock_from_spec,
    clock_spec,
    critical_path,
    events_to_profile,
    folded_stacks,
    format_critical_path,
    is_event_stream,
    read_events,
    read_events_profile,
    render_openmetrics,
)
from repro.telemetry import selfcost
from repro.telemetry.spans import STATUS_ORPHANED, STATUS_UNCLOSED

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


class TestTickClock:
    def test_advances_by_step(self):
        clock = TickClock(step=0.5)
        assert [clock() for _ in range(4)] == [0.0, 0.5, 1.0, 1.5]

    def test_two_clocks_agree(self):
        a, b = TickClock(), TickClock()
        assert [a() for _ in range(10)] == [b() for _ in range(10)]

    def test_spec_roundtrip(self):
        clock = TickClock(step=0.25)
        clock()
        spec = clock_spec(clock)
        assert spec == ("tick", 0.25, 0.0, 1)
        rebuilt = clock_from_spec(spec)
        assert isinstance(rebuilt, TickClock)
        # A worker clock resumes at the tick it was dispatched at.
        assert rebuilt() == 0.25 and rebuilt() == 0.5
        assert clock() == 0.25

    def test_advance_past(self):
        clock = TickClock(step=0.5)
        clock.advance_past(2.0)
        assert clock() == 2.5
        clock.advance_past(1.0)  # never moves backwards
        assert clock() == 3.0

    def test_wall_spec(self):
        assert clock_spec(time.perf_counter) == ("wall",)
        assert clock_from_spec(("wall",)) is telemetry.WALL


class TestFlightRecorder:
    def test_records_in_order(self):
        rec = FlightRecorder(capacity=8)
        rec.record("counter", 0.0, name="a", delta=1)
        rec.record("span_open", 0.1, name="s", id="s1", parent=None)
        rec.record("counter", 0.2, name="b", delta=2)
        types = [e["type"] for e in rec.events()]
        assert types == ["counter", "span_open", "counter"]
        assert rec.n_recorded == 3 and rec.n_dropped == 0

    def test_ring_drops_oldest(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("counter", float(i), name="c", delta=1)
        events = rec.events()
        assert len(events) == 4
        assert [e["t"] for e in events] == [6.0, 7.0, 8.0, 9.0]
        assert rec.n_recorded == 10 and rec.n_dropped == 6

    def test_span_events_survive_counter_flood(self):
        # The trace skeleton has its own reservation: no volume of
        # counter deltas may evict a span_open/span_close pair.
        rec = FlightRecorder(capacity=16, span_capacity=8)
        rec.record("span_open", 0.0, name="root", id="s1", parent=None)
        for i in range(1000):
            rec.record("counter", float(i), name="c", delta=1)
        rec.record("span_close", 2.0, name="root", id="s1",
                   duration_s=2.0, status="ok")
        kinds = [e["type"] for e in rec.events()]
        assert kinds[0] == "span_open" and kinds[-1] == "span_close"
        assert kinds.count("counter") == 16

    def test_flush_roundtrip(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        rec.record("counter", 0.5, name="x", delta=3)
        path = rec.flush(tmp_path / "ev.jsonl", meta={"run": "r1"})
        assert is_event_stream(path)
        meta, events, footer = read_events(path)
        assert meta["format"] == "flight-recorder-v1"
        assert meta["run"] == "r1"
        assert events == [{"t": 0.5, "type": "counter", "name": "x",
                           "delta": 3}]
        assert footer["n_recorded"] == 1 and footer["n_dropped"] == 0

    def test_flush_is_atomic(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        FlightRecorder().flush(path)
        assert not (tmp_path / "ev.jsonl.tmp").exists()
        assert is_event_stream(path)

    def test_profile_json_is_not_an_event_stream(self, tmp_path):
        reg = telemetry.Registry(preregister_catalog=False)
        reg.inc("c")
        telemetry.write_profile(reg, tmp_path / "p.json")
        assert not is_event_stream(tmp_path / "p.json")
        assert not is_event_stream(tmp_path / "missing.json")

    def test_extend_preserves_categories(self):
        parent = FlightRecorder(capacity=4, span_capacity=4)
        child = [{"t": 0.0, "type": "span_open", "name": "w", "id": "w1.s1",
                  "parent": "s1"},
                 {"t": 1.0, "type": "counter", "name": "c", "delta": 1}]
        for i in range(10):
            parent.record("counter", float(i), name="noise", delta=1)
        parent.extend(child)
        kinds = [e["type"] for e in parent.events()]
        # The adopted span event landed in the span reservation, not the
        # (already full) main ring.
        assert "span_open" in kinds


class TestEventsToProfile:
    def _stream(self):
        return [
            {"t": 0.0, "type": "span_open", "name": "root", "id": "s1"},
            {"t": 0.1, "type": "span_open", "name": "leaf", "id": "s2",
             "parent": "s1"},
            {"t": 0.2, "type": "counter", "name": "c", "delta": 2},
            {"t": 0.3, "type": "counter", "name": "c", "delta": 3},
            {"t": 0.4, "type": "gauge", "name": "g", "value": 1.5},
            {"t": 0.5, "type": "gauge", "name": "g", "value": 2.5},
            {"t": 0.6, "type": "span_close", "name": "leaf", "id": "s2",
             "duration_s": 0.5, "status": "ok"},
            {"t": 0.7, "type": "span_close", "name": "root", "id": "s1",
             "duration_s": 0.7, "status": "ok"},
        ]

    def test_reconstructs_tree_and_totals(self):
        profile = events_to_profile({"k": "v"}, self._stream())
        assert profile["meta"] == {"k": "v"}
        assert profile["counters"] == {"c": 5}
        assert profile["gauges"] == {"g": 2.5}
        (root,) = profile["spans"]
        assert root["name"] == "root" and root["duration_s"] == 0.7
        (leaf,) = root["children"]
        assert leaf["name"] == "leaf" and leaf["duration_s"] == 0.5

    def test_unclosed_span_is_flagged(self):
        events = self._stream()[:2]  # two opens, no closes
        (root,) = events_to_profile({}, events)["spans"]
        assert root["status"] == STATUS_UNCLOSED
        assert root["children"][0]["status"] == STATUS_UNCLOSED

    def test_dropped_open_gets_a_stub(self):
        events = [{"t": 5.0, "type": "span_close", "name": "lost",
                   "id": "s9", "duration_s": 2.0, "status": "ok"}]
        (root,) = events_to_profile({}, events)["spans"]
        assert root["name"] == "lost"
        assert root["start_s"] == pytest.approx(3.0)
        assert root["duration_s"] == 2.0

    def test_read_events_profile(self, tmp_path):
        rec = FlightRecorder()
        for event in self._stream():
            rec._append(dict(event))
        path = rec.flush(tmp_path / "ev.jsonl", meta={"command": "x"})
        profile = read_events_profile(path)
        assert profile["counters"] == {"c": 5}
        assert profile["meta"]["command"] == "x"


class TestFlameAndCriticalPath:
    SPANS = [{"name": "root", "id": "s1", "duration_s": 1.0, "children": [
        {"name": "a", "id": "s2", "duration_s": 0.6, "children": [
            {"name": "deep", "id": "s4", "duration_s": 0.5}]},
        {"name": "b", "id": "s3", "duration_s": 0.3},
    ]}]

    def test_folded_stacks_self_time(self):
        lines = folded_stacks(self.SPANS)
        assert lines == ["root 100000", "root;a 100000",
                         "root;a;deep 500000", "root;b 300000"]

    def test_stack_values_sum_to_root(self):
        total = sum(int(line.rsplit(" ", 1)[1])
                    for line in folded_stacks(self.SPANS))
        assert total == 1_000_000

    def test_critical_path_follows_heaviest_child(self):
        names = [s["name"] for s in critical_path(self.SPANS)]
        assert names == ["root", "a", "deep"]

    def test_format_critical_path_renders(self):
        text = format_critical_path(self.SPANS)
        assert "critical path (1.0000s root-to-leaf)" in text
        assert "deep" in text and "% of root" in text
        assert format_critical_path([]) == "no spans recorded"


class TestOpenMetrics:
    def test_renders_profile(self):
        reg = telemetry.Registry(preregister_catalog=False)
        reg.inc("act.deps_processed", 7)
        reg.set_gauge("sched.events_per_sec", 123.5)
        reg.observe("sim.fifo_occupancy", 1)
        reg.observe("sim.fifo_occupancy", 3)
        text = render_openmetrics(telemetry.profile_dict(reg))
        assert "# TYPE repro_act_deps_processed counter" in text
        assert "repro_act_deps_processed_total 7" in text
        assert "repro_sched_events_per_sec 123.5" in text
        # Cumulative le buckets: the le="3" bucket includes the 1.
        assert 'repro_sim_fifo_occupancy_bucket{le="1"} 1' in text
        assert 'repro_sim_fifo_occupancy_bucket{le="3"} 2' in text
        assert 'le="+Inf"' in text
        assert "repro_sim_fifo_occupancy_count 2" in text
        assert text.rstrip().endswith("# EOF")


class TestSelfOverhead:
    def test_op_counts(self):
        reg = telemetry.Registry(preregister_catalog=False)
        reg.attach_recorder(FlightRecorder())
        reg.inc("c")
        reg.inc("c", 2)
        reg.set_gauge("g", 1.0)
        reg.observe("h", 1)
        with reg.span("s"):
            pass
        counts = reg.op_counts()
        assert counts["inc"] == 2 and counts["gauge"] == 1
        assert counts["observe"] == 1 and counts["span"] == 1
        # events: 2 counter deltas + 1 gauge + span open/close
        assert counts["event"] == 5

    def test_overhead_seconds_is_counts_times_costs(self):
        reg = telemetry.Registry(preregister_catalog=False,
                                 clock=TickClock())
        for _ in range(1000):
            reg.inc("c")
        cal = selfcost.Calibration(inc_ns=100.0, gauge_ns=0, observe_ns=0,
                                   span_ns=0, event_ns=0)
        assert selfcost.overhead_seconds(reg, cal) == pytest.approx(1e-4)

    def test_overhead_pct_needs_a_root_span(self):
        reg = telemetry.Registry(preregister_catalog=False)
        assert selfcost.overhead_pct(
            reg, selfcost.PINNED_CALIBRATION) is None

    def test_profile_meta_reports_overhead(self):
        reg = telemetry.Registry(preregister_catalog=False,
                                 clock=TickClock())
        with reg.span("root"):
            for _ in range(100):
                reg.inc("c")
        profile = telemetry.profile_dict(
            reg, meta={"command": "x"}, self_overhead=True,
            calibration=selfcost.PINNED_CALIBRATION)
        pct = profile["meta"]["telemetry_self_overhead_pct"]
        assert pct > 0
        # Deterministic under the pinned calibration + tick clock.
        again = telemetry.profile_dict(
            reg, meta={"command": "x"}, self_overhead=True,
            calibration=selfcost.PINNED_CALIBRATION)
        assert again["meta"]["telemetry_self_overhead_pct"] == pct

    def test_merge_ops_excludes_spans_and_events(self):
        reg = telemetry.Registry(preregister_catalog=False)
        reg.merge_ops({"inc": 5, "gauge": 2, "observe": 1, "span": 9,
                       "event": 9})
        counts = reg.op_counts()
        assert counts["inc"] == 5 and counts["observe"] == 1
        assert counts["span"] == 0 and counts["event"] == 0


class TestOrphanSpans:
    def test_orphan_is_closed_and_parented(self):
        reg = telemetry.Registry(preregister_catalog=False,
                                 clock=TickClock())
        rec = reg.attach_recorder(FlightRecorder())
        with reg.span("dispatch"):
            span = reg.tracer.orphan("parallel.task", key=4)
        assert span.status == STATUS_ORPHANED
        assert span.duration == 0.0
        (root,) = reg.spans
        assert [c.status for c in root.children] == [STATUS_ORPHANED]
        assert span.parent_id == root.span_id
        kinds = [e["type"] for e in rec.events()]
        assert kinds.count("span_open") == 2  # dispatch + orphan
        assert kinds.count("span_close") == 2


class TestZeroCostAudit:
    """S2: the disabled path must stay free on the hot replay path."""

    N = 5000

    def _hot_loop(self, tele):
        # The per-dependence instrumentation shape of the simulator and
        # deploy loops: one enabled check, an observe, a couple of incs.
        for i in range(self.N):
            if tele.enabled:
                tele.observe("sim.fifo_occupancy", i % 8)
                tele.inc("act.deps_processed")
                tele.inc("sim.fifo_stalls")

    def test_null_registry_allocates_nothing(self):
        tele = telemetry.NullRegistry()
        self._hot_loop(tele)  # warm: bytecode caches, method binds
        tracemalloc.start()
        try:
            tracemalloc.clear_traces()
            before, _ = tracemalloc.get_traced_memory()
            self._hot_loop(tele)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # No retained allocations at all from 15k no-op mutator calls.
        assert after - before < 512, (
            f"NullRegistry retained {after - before} bytes on the hot path")

    def test_instrumented_replay_within_10pct_of_null(self, tinybug,
                                                      trained_tinybug):
        from dataclasses import replace

        from repro.core.deploy import deploy_on_run
        from repro.workloads.framework import run_program

        base = run_program(tinybug, seed=5, buggy=False)
        long_run = replace(base, events=base.events * 30)

        def timed(registry):
            best = None
            for _ in range(5):
                with telemetry.use_registry(registry):
                    t0 = time.perf_counter()
                    deploy_on_run(trained_tinybug, long_run)
                    dt = time.perf_counter() - t0
                if best is None or dt < best:
                    best = dt
            return best

        t_null = timed(telemetry.NullRegistry())
        t_live = timed(telemetry.Registry())
        # Aggregate-only instrumentation is amortised per chunk, not per
        # dependence; 10% is the audit budget (plus a 2ms floor so a
        # sub-ms run cannot flake the ratio).
        assert t_live <= 1.10 * t_null + 0.002, (
            f"instrumented replay {t_live:.4f}s vs null {t_null:.4f}s")


class TestGoldenExports:
    """S6: seed-pinned exports are byte-identical under the TickClock."""

    def _check(self, path, text, update):
        if update:
            path.write_text(text, encoding="utf-8")
            pytest.skip(f"updated {path.name}")
        assert path.exists(), (
            f"golden file {path} missing; run pytest --update-golden")
        assert text == path.read_text(encoding="utf-8")

    def _diagnose(self, tinybug, tmp_path):
        from repro.core.config import ACTConfig
        from repro.core.diagnosis import diagnose_failure

        tmp_path.mkdir(parents=True, exist_ok=True)

        reg = telemetry.Registry(clock=TickClock())
        reg.attach_recorder(FlightRecorder())
        with telemetry.use_registry(reg):
            diagnose_failure(tinybug, config=ACTConfig(seq_len=3,
                                                       check_window=20),
                             n_train_runs=4, n_pruning_runs=4)
        meta = {"command": "diagnose", "clock": "tick"}
        profile_path = tmp_path / "profile.json"
        telemetry.write_profile(
            reg, profile_path, meta=meta, self_overhead=True,
            calibration=selfcost.PINNED_CALIBRATION)
        events_path = tmp_path / "events.jsonl"
        reg.recorder.flush(events_path, meta=meta)
        return (profile_path.read_text(encoding="utf-8"),
                events_path.read_text(encoding="utf-8"))

    def test_profile_matches_golden(self, tinybug, tmp_path, update_golden):
        profile_text, _ = self._diagnose(tinybug, tmp_path)
        self._check(GOLDEN_DIR / "tracing_profile.json", profile_text,
                    update_golden)

    def test_events_match_golden(self, tinybug, tmp_path, update_golden):
        _, events_text = self._diagnose(tinybug, tmp_path)
        self._check(GOLDEN_DIR / "tracing_events.jsonl", events_text,
                    update_golden)

    def test_rerun_is_byte_identical(self, tinybug, tmp_path):
        first = self._diagnose(tinybug, tmp_path / "a")
        second = self._diagnose(tinybug, tmp_path / "b")
        assert first == second

    def test_golden_events_reconstruct_one_tree(self, update_golden):
        if update_golden:
            pytest.skip("golden files being rewritten")
        path = GOLDEN_DIR / "tracing_events.jsonl"
        assert path.exists(), "run pytest --update-golden first"
        profile = read_events_profile(path)
        (root,) = profile["spans"]
        assert root["name"] == "diagnose"
        assert profile["counters"]["diagnose.found"] == 1
