"""Tests for the Aviso / PBI / PSet baselines."""

import pytest

from repro.baselines.aviso import AvisoEngine
from repro.baselines.pbi import PBIEngine, Predicate
from repro.baselines.pset import PSetInvariants
from repro.core.offline import collect_correct_runs
from repro.trace.raw import RawDep
from repro.workloads.framework import run_program
from repro.workloads.registry import get_bug, get_kernel


class TestPSet:
    def test_trained_invariants_accept_training_deps(self, tinybug):
        runs = collect_correct_runs(tinybug, 3, buggy=False)
        inv = PSetInvariants.train(runs)
        for run in runs:
            assert inv.violations(run) == []

    def test_flags_buggy_dependence(self, tinybug):
        runs = collect_correct_runs(tinybug, 3, buggy=False)
        inv = PSetInvariants.train(runs)
        buggy = run_program(tinybug, seed=9, buggy=True)
        viols = inv.violations(buggy)
        truth = buggy.meta["root_cause"]
        assert any((v.dep.store_pc, v.dep.load_pc) in truth for v in viols)

    def test_violation_rate_bounds(self, tinybug):
        runs = collect_correct_runs(tinybug, 2, buggy=False)
        inv = PSetInvariants.train(runs)
        buggy = run_program(tinybug, seed=9, buggy=True)
        rate = inv.violation_rate(buggy)
        assert 0.0 < rate <= 1.0

    def test_label_is_part_of_invariant(self):
        inv = PSetInvariants()
        inv.psets[0x20].add((0x10, False))
        assert inv.is_valid(RawDep(0x10, 0x20, inter_thread=False))
        assert not inv.is_valid(RawDep(0x10, 0x20, inter_thread=True))

    def test_n_invariants(self, tinybug):
        runs = collect_correct_runs(tinybug, 2, buggy=False)
        inv = PSetInvariants.train(runs)
        assert inv.n_invariants() > 0

    def test_new_code_always_violates(self, tinybug):
        """The rigidity ACT's adaptivity argument targets."""
        inv = PSetInvariants()  # trained on nothing
        run = run_program(tinybug, seed=0, buggy=False)
        assert inv.violation_rate(run) == 1.0


def _pbi(bug, n_correct):
    """The PBI protocol: ``n_correct`` correct runs, one failure run."""
    return PBIEngine().diagnose_report(get_bug(bug), n_train_runs=n_correct,
                                       train_seed0=500, failure_seed=12345)


def _aviso(bug, n_correct, max_failures):
    """(engine, report) of the Aviso protocol on ``bug``."""
    engine = AvisoEngine(max_failures=max_failures)
    report = engine.diagnose_report(get_bug(bug), n_train_runs=n_correct,
                                    train_seed0=300, failure_seed=901)
    return engine, report


class TestPBI:
    def test_finds_concurrency_bug(self):
        result = _pbi("mysql2", 8)
        assert result.found
        assert result.rank <= len(result.candidates)

    def test_ranking_scores_descending(self):
        result = _pbi("apache", 8)
        scores = [c["score"] for c in result.candidates]
        assert scores == sorted(scores, reverse=True)

    def test_misses_branch_invariant_sequential_bug(self):
        """seq's branch outcomes and cache states barely change between
        correct and failing runs -- the class of bug PBI misses."""
        result = _pbi("seq", 8)
        assert result.rank is None or result.rank > 1

    def test_predicates_have_valid_events(self):
        result = _pbi("memcached", 6)
        for c in result.candidates:
            assert c["key"].rpartition(":")[2] in ("M", "E", "S", "I",
                                                   "T", "N")

    def test_predicate_str(self):
        assert "0x10" in str(Predicate(0x10, "M"))


class TestAviso:
    def test_inapplicable_to_sequential_bugs(self):
        _engine, result = _aviso("gzip", 4, max_failures=2)
        assert not result.applicable
        assert result.rank is None

    def test_needs_multiple_failures(self):
        engine, result = _aviso("pbzip2", 6, max_failures=6)
        assert result.applicable
        if result.found:
            assert engine.failures_used >= 2

    def test_finds_order_violation_eventually(self):
        _engine, result = _aviso("pbzip2", 8, max_failures=10)
        assert result.found
        assert result.rank is not None

    def test_ranking_pairs_are_inter_thread_pcs(self):
        _engine, result = _aviso("mysql2", 6, max_failures=6)
        for c in result.candidates:
            a, b = (int(pc, 16) for pc in c["key"].split("->"))
            assert isinstance(a, int) and isinstance(b, int)
