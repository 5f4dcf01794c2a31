"""Columnar trace format: round trips, damage handling, CLI convert.

The contract under test: a columnar file and a JSON-lines file written
from the same run decode to identical :class:`TraceRun` events; the
same :class:`FaultPlan` damages the same records in both; header-level
damage (magic, version, truncation, checksum) is never recoverable
while record-level damage follows the jsonl recover semantics.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cli import main as cli_main
from repro.common.errors import TraceError
from repro.faults import FaultPlan, Quarantine
from repro.trace import columnar, read_trace, write_trace
from repro.trace.events import EventKind, TraceEvent, TraceRun
from repro.workloads.framework import run_program


def _make_event(tid, pc, kind, addr, is_stack, taken):
    if kind.is_memory():
        return TraceEvent(tid, pc, kind, addr=addr, is_stack=is_stack)
    if kind is EventKind.BRANCH:
        return TraceEvent(tid, pc, kind, taken=taken)
    return TraceEvent(tid, pc, kind)


# Events as the workload framework emits them: memory events always carry
# an address, branches always a concrete bool outcome.
_events = st.lists(
    st.builds(_make_event,
              tid=st.integers(0, 63),
              pc=st.integers(0, 2 ** 40),
              kind=st.sampled_from(list(EventKind)),
              addr=st.integers(0, 2 ** 40),
              is_stack=st.booleans(),
              taken=st.booleans()),
    max_size=60)


def _run_of(events, failed=False, n_threads=2, seed=3):
    return TraceRun(events=list(events), failed=failed,
                    n_threads=n_threads, seed=seed)


class TestRoundTrip:
    def test_both_formats_decode_identically(self, pingpong, tmp_path):
        run = run_program(pingpong, seed=1)
        jsonl_path = tmp_path / "t.jsonl"
        col_path = tmp_path / "t.columnar"
        write_trace(run, jsonl_path)
        write_trace(run, col_path, trace_format="columnar")
        a = read_trace(jsonl_path)
        b = read_trace(col_path)
        assert a.events == b.events == run.events
        assert (a.failed, a.n_threads, a.seed) == (
            b.failed, b.n_threads, b.seed)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(events=_events, failed=st.booleans(),
           n_threads=st.integers(1, 8), seed=st.integers(0, 2 ** 31))
    def test_columnar_round_trip_exact(self, events, failed, n_threads,
                                       seed, tmp_path):
        run = _run_of(events, failed=failed, n_threads=n_threads, seed=seed)
        path = tmp_path / "t.columnar"
        write_trace(run, path, trace_format="columnar")
        back = read_trace(path)
        assert back.events == run.events
        assert back.failed == run.failed
        assert back.n_threads == run.n_threads
        assert back.seed == run.seed

    def test_unset_branch_taken_reads_back_false_in_both(self, tmp_path):
        # The jsonl quirk the columnar format must reproduce.
        run = _run_of([TraceEvent(0, 1, EventKind.BRANCH, taken=None)])
        expected = [TraceEvent(0, 1, EventKind.BRANCH, taken=False)]
        for fmt in ("jsonl", "columnar"):
            path = tmp_path / f"t.{fmt}"
            write_trace(run, path, trace_format=fmt)
            assert read_trace(path).events == expected

    def test_zero_plan_write_is_byte_deterministic(self, pingpong, tmp_path):
        run = run_program(pingpong, seed=1)
        a, b = tmp_path / "a.columnar", tmp_path / "b.columnar"
        write_trace(run, a, trace_format="columnar")
        write_trace(run, b, trace_format="columnar")
        assert a.read_bytes() == b.read_bytes()

    def test_read_trace_autodetects_regardless_of_extension(
            self, pingpong, tmp_path):
        run = run_program(pingpong, seed=1)
        path = tmp_path / "misleading.jsonl"
        write_trace(run, path, trace_format="columnar")
        assert columnar.is_columnar(path)
        assert read_trace(path).events == run.events

    def test_unknown_format_rejected(self, pingpong, tmp_path):
        run = run_program(pingpong, seed=1)
        with pytest.raises(TraceError):
            write_trace(run, tmp_path / "t.x", trace_format="parquet")


class TestLayout:
    def test_columns_are_zero_copy_mmap_views(self, pingpong, tmp_path):
        run = run_program(pingpong, seed=1)
        path = tmp_path / "t.columnar"
        write_trace(run, path, trace_format="columnar")
        header, cols = columnar.read_columns(path)
        assert header["n_events"] == len(run.events)
        for name, dtype in columnar.COLUMNS:
            arr = cols[name]
            assert arr.dtype == np.dtype(dtype)
            assert not arr.flags.owndata
            assert not arr.flags.writeable

    def test_columns_start_on_alignment_boundaries(self, pingpong, tmp_path):
        run = run_program(pingpong, seed=1)
        path = tmp_path / "t.columnar"
        write_trace(run, path, trace_format="columnar")
        header, _cols = columnar.read_columns(path)
        for _name, _dtype, offset in header["columns"]:
            assert offset % columnar.ALIGNMENT == 0

    def test_is_columnar_false_for_jsonl_and_missing(self, pingpong,
                                                     tmp_path):
        run = run_program(pingpong, seed=1)
        jsonl_path = tmp_path / "t.jsonl"
        write_trace(run, jsonl_path)
        assert not columnar.is_columnar(jsonl_path)
        assert not columnar.is_columnar(tmp_path / "nope")


class TestHeaderDamage:
    """File-level damage is never recoverable, matching jsonl headers."""

    def _written(self, pingpong, tmp_path):
        run = run_program(pingpong, seed=1)
        path = tmp_path / "t.columnar"
        write_trace(run, path, trace_format="columnar")
        return path

    def test_checksum_tamper_raises_even_with_recover(self, pingpong,
                                                      tmp_path):
        path = self._written(pingpong, tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte without touching records'
        path.write_bytes(bytes(data))  # header bookkeeping
        with pytest.raises(TraceError, match="checksum"):
            read_trace(path, recover=True)

    def test_bad_magic_rejected(self, pingpong, tmp_path):
        path = self._written(pingpong, tmp_path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        assert not columnar.is_columnar(path)
        with pytest.raises(TraceError):
            columnar.read_columns(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "t.columnar"
        head = json.dumps({"version": 99}).encode()
        path.write_bytes(columnar.MAGIC
                         + len(head).to_bytes(4, "little") + head)
        with pytest.raises(TraceError, match="version"):
            read_trace(path, recover=True)

    def test_truncated_payload_rejected(self, pingpong, tmp_path):
        path = self._written(pingpong, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 16])
        with pytest.raises(TraceError, match="truncated"):
            read_trace(path, recover=True)


class TestFaultParity:
    def test_poisoned_record_skip_counts_match_jsonl(self, pingpong,
                                                     tmp_path):
        run = run_program(pingpong, seed=1)
        plan = FaultPlan(seed=2, trace_corrupt=0.3)
        jsonl_path = tmp_path / "t.jsonl"
        col_path = tmp_path / "t.columnar"
        with telemetry.use_registry(telemetry.Registry()):
            write_trace(run, jsonl_path, faults=plan)
            write_trace(run, col_path, faults=plan, trace_format="columnar")
        qa, qb = Quarantine(), Quarantine()
        a = read_trace(jsonl_path, quarantine=qa)
        b = read_trace(col_path, quarantine=qb)
        assert a.events == b.events
        assert (a.meta["skipped_records"] == b.meta["skipped_records"] > 0)
        assert len(qa) == len(qb) == 1


class TestCliConvert:
    def _trace(self, pingpong, tmp_path, fmt):
        run = run_program(pingpong, seed=1)
        path = tmp_path / f"src.{fmt}"
        write_trace(run, path, trace_format=fmt)
        return run, path

    def test_jsonl_to_columnar_and_back_verified(self, pingpong, tmp_path,
                                                 capsys):
        run, src = self._trace(pingpong, tmp_path, "jsonl")
        col = tmp_path / "out.columnar"
        back = tmp_path / "back.jsonl"
        assert cli_main(["trace", "convert", str(src), str(col),
                         "--verify"]) == 0
        assert columnar.is_columnar(col)
        assert cli_main(["trace", "convert", str(col), str(back),
                         "--verify"]) == 0
        assert not columnar.is_columnar(back)
        assert back.read_bytes() == src.read_bytes()
        assert "verified" in capsys.readouterr().out

    def test_forced_format_overrides_default(self, pingpong, tmp_path):
        _run, src = self._trace(pingpong, tmp_path, "jsonl")
        dst = tmp_path / "still.jsonl"
        assert cli_main(["trace", "convert", str(src), str(dst),
                         "--trace-format", "jsonl"]) == 0
        assert not columnar.is_columnar(dst)

    def test_missing_input_is_an_error(self, tmp_path, capsys):
        rc = cli_main(["trace", "convert", str(tmp_path / "nope"),
                       str(tmp_path / "out")])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_wrong_arity_is_an_error(self, pingpong, tmp_path, capsys):
        _run, src = self._trace(pingpong, tmp_path, "jsonl")
        assert cli_main(["trace", "convert", str(src)]) == 2
        assert "exactly" in capsys.readouterr().err
