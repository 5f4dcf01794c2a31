"""Corpus-scale engine shootout: Table I as a live harness.

``repro shootout`` runs the seeded ground-truth corpus
(:mod:`repro.analysis.accuracy`) once per registered engine and reduces
the outcomes to one Table-I-style comparison: a capabilities block per
engine (offline training, failure runs needed, thread-scope limits,
online adaptivity) next to its measured recall / top-1 / top-k.

Determinism carries over from the corpus harness: the same
``(seed, size)`` yields a byte-identical metrics JSON
(:func:`shootout_json`) whether the per-program fan-out ran serial or
across ``--jobs`` workers. :func:`append_bench` appends each engine's
recall/top-1 to ``BENCH_accuracy.json`` so CI tracks an accuracy
trajectory the way ``benchmarks/trend.py`` tracks throughput.
"""

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Tuple

from repro import telemetry
from repro.common.texttable import render_table
from repro.core.config import ACTConfig
from repro.engines import registry
from repro.analysis.accuracy import CorpusSpec, run_corpus

#: Default trajectory file (repo root, next to BENCH_throughput.json).
DEFAULT_BENCH_PATH = "BENCH_accuracy.json"


@dataclass(frozen=True)
class ShootoutSpec:
    """Everything that shapes one shootout (JSON-safe via fingerprint)."""

    seed: int = 7
    size: int = 20
    #: engine names to race; empty = every registered engine.
    engines: Tuple[str, ...] = ()
    top_k: int = 5
    n_train_runs: int = 6
    n_pruning_runs: int = 8
    failure_seed: int = 12345
    config: ACTConfig = field(
        default_factory=lambda: ACTConfig(seq_len=3))

    def engine_names(self):
        return tuple(self.engines) or registry.names()

    def corpus_spec(self, engine):
        return CorpusSpec(
            seed=self.seed, size=self.size, top_k=self.top_k,
            n_train_runs=self.n_train_runs,
            n_pruning_runs=self.n_pruning_runs,
            failure_seed=self.failure_seed, engine=engine,
            config=self.config)

    def fingerprint(self):
        doc = asdict(self)
        doc["engines"] = list(self.engine_names())
        return doc


@dataclass
class ShootoutResult:
    """Per-engine corpus results plus the reduced comparison."""

    spec: ShootoutSpec
    corpus_results: dict  # engine name -> CorpusResult
    metrics: dict


def _capabilities_doc(engine_name):
    caps = registry.create(engine_name).capabilities
    return {
        "description": caps.description,
        "trains_offline": caps.trains_offline,
        "needs_failure_runs": caps.needs_failure_runs,
        "multithreaded_only": caps.multithreaded_only,
        "adapts_online": caps.adapts_online,
        "warmable": caps.warmable,
    }


def run_shootout(spec, jobs=None):
    """Race every engine over the same corpus; deterministic.

    Engines run sequentially (each reuses the corpus harness, which
    fans its per-program diagnoses across ``jobs`` workers), so the
    result is independent of ``jobs`` by construction.
    """
    names = spec.engine_names()
    tele = telemetry.get_registry()
    corpus_results = {}
    with tele.span("shootout", seed=spec.seed, size=spec.size,
                   n_engines=len(names)):
        for name in names:
            with tele.span("shootout.engine", engine=name):
                corpus_results[name] = run_corpus(
                    spec.corpus_spec(name), jobs=jobs)
            if tele.enabled:
                tele.inc("shootout.engines")
    engines_doc = {}
    for name in names:
        engines_doc[name] = {
            "capabilities": _capabilities_doc(name),
            "overall": corpus_results[name].metrics["overall"],
            "by_archetype": corpus_results[name].metrics["by_archetype"],
        }
    metrics = {"spec": spec.fingerprint(), "engines": engines_doc}
    return ShootoutResult(spec=spec, corpus_results=corpus_results,
                          metrics=metrics)


# -- rendering ---------------------------------------------------------

def shootout_json(result):
    """Canonical metrics JSON text: the byte-identity artifact."""
    return json.dumps(result.metrics, sort_keys=True, indent=2) + "\n"


def _pct(value):
    return "-" if value is None else f"{100 * value:.1f}"


def _num(value):
    return "-" if value is None else f"{value:.2f}"


def format_shootout(result):
    """Render the Table-I-style engine comparison."""
    spec = result.spec
    k = spec.top_k
    rows = []
    for name in spec.engine_names():
        doc = result.metrics["engines"][name]
        caps = doc["capabilities"]
        overall = doc["overall"]
        rows.append((
            name,
            "yes" if caps["trains_offline"] else "no",
            str(caps["needs_failure_runs"]),
            "yes" if caps["multithreaded_only"] else "no",
            "yes" if caps["adapts_online"] else "no",
            _pct(overall["recall"]), _pct(overall["top1"]),
            _pct(overall[f"top{k}"]), _num(overall["mean_rank"]),
        ))
    table = render_table(
        ("Engine", "Offline Train", "# Fail Runs", "MT-only",
         "Adaptive", "Recall (%)", "Top-1 (%)", f"Top-{k} (%)",
         "Mean Rank"),
        rows,
        title=(f"Engine shootout (seed {spec.seed}, "
               f"{spec.size} programs)"))
    return table


# -- accuracy trajectory (BENCH_accuracy.json) -------------------------

def bench_entry(result):
    """One deterministic trajectory entry (no timestamps: CI diffs it)."""
    spec = result.spec
    engines = {}
    for name in spec.engine_names():
        overall = result.metrics["engines"][name]["overall"]
        engines[name] = {
            "recall": overall["recall"],
            "top1": overall["top1"],
            f"top{spec.top_k}": overall[f"top{spec.top_k}"],
        }
    return {
        "seed": spec.seed, "size": spec.size,
        "n_train_runs": spec.n_train_runs,
        "n_pruning_runs": spec.n_pruning_runs,
        "engines": engines,
    }


def append_bench(entry, path=DEFAULT_BENCH_PATH):
    """Append one ``bench_entry`` (shootout or frontier) to the
    accuracy trajectory file.

    The file is ``{"schema": 1, "entries": [...]}``; an entry equal to
    the last one is skipped (re-running the same experiment on the same
    tree must not grow the file). Returns the trajectory document.
    """
    doc = {"schema": 1, "entries": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    if not doc["entries"] or doc["entries"][-1] != entry:
        doc["entries"].append(entry)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return doc


def run_shootout_for_preset(preset):
    """Experiment-registry entry point: shootout at preset scale."""
    spec = ShootoutSpec(seed=preset.corpus_seed, size=preset.corpus_size,
                        n_train_runs=preset.corpus_train_runs,
                        n_pruning_runs=preset.corpus_pruning_runs,
                        engines=preset.shootout_engines)
    return run_shootout(spec, jobs=preset.jobs)
