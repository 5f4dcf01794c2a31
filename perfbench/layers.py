"""Traced-run harness: per-layer self time and work counts.

A traced pass wraps the public entry point of every pipeline layer for
its duration and restores the originals afterwards. Each wrapper is
patched on the attribute its caller actually looks up: modules bind
the names they import (``from repro.core.deploy import deploy_on_run``
copies the function into ``repro.core.diagnosis``), so the patch
targets are those caller-side names, not the defining module's.

A layer's *self time* is the inclusive time of its wrapped calls minus
the time of wrapped calls nested inside them. ``run_program`` inside
correct-run collection is charged to the enclosing ``workloads.*``
phase (training or pruning runs), so the serial ``run_tasks`` loop that
sits between them keeps only its own overhead.
"""

import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


def _items_count(args, kwargs, result):
    return {"parallel.tasks": len(args[1])}


def _sequence_count(args, kwargs, result):
    positives, negatives = result
    return {"offline.sequences": len(positives) + len(negatives)}


def _network_counts(args, kwargs, result):
    return {"nn.networks": 1,
            "nn.rows": result.n_positives + result.n_negatives,
            "nn.best_epochs": result.epochs,
            "nn.converged": 1 if result.train_error == 0 else 0}


def _network_min(args, kwargs, result):
    return {"nn.min_worst_margin": float(result.worst_margin)}


def _run_counts(args, kwargs, result):
    return {"workloads.runs": 1, "workloads.events": len(result.events)}


def _deploy_counts(args, kwargs, result):
    return {"deploy.deps": result.n_deps,
            "deploy.invalid": result.n_invalid,
            "deploy.mode_switches": result.n_mode_switches,
            "deploy.online_trained": sum(
                m.stats.online_trained for m in result.modules.values())}


def _rank_counts(args, kwargs, result):
    return {"postprocess.debug_entries": result.n_input,
            "postprocess.pruned": result.n_pruned,
            "postprocess.correct_set.sequences": len(args[1])}


@dataclass(frozen=True)
class Patch:
    """One wrapped entry point.

    ``target`` is ``"<module>:<name>"`` or ``"<module>:<Class>.<name>"``.
    ``layer`` names the self-time bucket; ``charge`` instead sends the
    self time to the nearest enclosing frame whose layer starts with
    that prefix. ``count`` and ``minimum`` map ``(args, kwargs,
    result)`` to counters summed resp. minimised over the pass.
    """

    target: str
    layer: str
    charge: Optional[str] = None
    count: Optional[Callable] = None
    minimum: Optional[Callable] = None


PATCHES = (
    Patch("repro.service.ops:run_diagnose", "service"),
    Patch("repro.service.ops:run_corpus", "service"),
    Patch("repro.service.ops:diagnose_failure", "diagnosis"),
    Patch("repro.analysis.accuracy:diagnose_failure", "diagnosis"),
    Patch("repro.analysis.accuracy:run_corpus", "accuracy"),
    Patch("repro.analysis.accuracy:run_tasks", "parallel",
          count=_items_count),
    # collect_runs_for_seeds imports run_tasks at call time.
    Patch("repro.parallel:run_tasks", "parallel", count=_items_count),
    Patch("repro.core.offline:OfflineTrainer.train", "offline"),
    Patch("repro.core.offline:OfflineTrainer.prepare_examples", "offline"),
    Patch("repro.core.offline:sequences_from_runs", "offline",
          count=_sequence_count),
    # OfflineTrainer imports line_level_pairs at call time.
    Patch("repro.trace.raw:line_level_pairs", "offline"),
    Patch("repro.core.offline:train_network", "nn",
          count=_network_counts, minimum=_network_min),
    Patch("repro.core.offline:collect_correct_runs",
          "workloads.train_runs"),
    Patch("repro.core.diagnosis:collect_runs_for_seeds",
          "workloads.pruning_runs"),
    Patch("repro.core.offline:run_program", "workloads.collect",
          charge="workloads.", count=_run_counts),
    Patch("repro.core.diagnosis:run_program", "workloads.failure_run",
          count=_run_counts),
    Patch("repro.core.diagnosis:deploy_on_run", "deploy",
          count=_deploy_counts),
    # repro.core re-exports a *function* named postprocess, which
    # shadows the submodule on attribute access; import_module goes
    # through sys.modules and returns the module itself.
    Patch("repro.core.postprocess:CorrectSet.add_run",
          "postprocess.correct_set"),
    Patch("repro.core.diagnosis:postprocess", "postprocess.rank",
          count=_rank_counts),
)


def resolve(target):
    """(owner object, attribute name) for a patch target string."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class LayerTracer:
    """Collects self time and counts while its patches are installed.

    Use as a context manager around one traced pass; every original
    attribute is restored on exit, also when the pass raises.
    """

    def __init__(self, patches=PATCHES):
        self.patches = patches
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.minimums = {}
        self._stack = []
        self._saved = []

    def __enter__(self):
        try:
            for patch in self.patches:
                owner, name = resolve(patch.target)
                original = getattr(owner, name)
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(patch, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, patch, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [patch.layer, 0.0]  # layer, time of nested frames
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.self_s[self._bucket(patch)] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if patch.count is not None:
                for key, n in patch.count(args, kwargs, result).items():
                    self.counts[key] += n
            if patch.minimum is not None:
                for key, v in patch.minimum(args, kwargs, result).items():
                    self.minimums[key] = min(v, self.minimums.get(key, v))
            return result

        traced.__wrapped__ = fn
        return traced

    def _bucket(self, patch):
        if patch.charge is not None:
            for layer, _ in reversed(self._stack):
                if layer.startswith(patch.charge):
                    return layer
        return patch.layer

    def total_self_s(self):
        return sum(self.self_s.values())


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("nn.self_s", "s", "lower"),
    ("nn.networks", "count", "lower"),
    ("nn.rows", "count", "lower"),
    ("nn.best_epochs", "count", "lower"),
    ("nn.converged_ratio", "ratio", "higher"),
    ("nn.min_worst_margin", "margin", "higher"),
    ("offline.self_s", "s", "lower"),
    ("offline.sequences", "count", "lower"),
    ("workloads.train_runs.self_s", "s", "lower"),
    ("workloads.pruning_runs.self_s", "s", "lower"),
    ("workloads.failure_run.self_s", "s", "lower"),
    ("workloads.runs", "count", "lower"),
    ("workloads.events", "count", "lower"),
    ("workloads.events_per_s", "1/s", "higher"),
    ("postprocess.correct_set.self_s", "s", "lower"),
    ("postprocess.correct_set.sequences", "count", "lower"),
    ("postprocess.rank.self_s", "s", "lower"),
    ("postprocess.debug_entries", "count", "lower"),
    ("postprocess.filter_ratio", "ratio", "higher"),
    ("deploy.self_s", "s", "lower"),
    ("deploy.deps", "count", "lower"),
    ("deploy.deps_per_s", "1/s", "higher"),
    ("deploy.invalid", "count", "lower"),
    ("deploy.mode_switches", "count", "lower"),
    ("deploy.online_trained", "count", "lower"),
    ("diagnosis.self_s", "s", "lower"),
    ("service.self_s", "s", "lower"),
    ("service.warm_hits", "count", "higher"),
    ("service.warm_misses", "count", "lower"),
    ("service.warm_hit_ratio", "ratio", "higher"),
    ("accuracy.self_s", "s", "lower"),
    ("parallel.self_s", "s", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("unattributed_s", "s", "lower"),
    ("tracing_overhead_s", "s", "lower"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, traced_walls, untraced_walls, warm_hits=0,
                  warm_misses=0):
    """Per-pass layer metrics from one tracer that saw every traced pass.

    Times and counts are averaged per traced pass; ratios are taken over
    the totals. ``tracing_overhead_s`` is the median traced pass wall
    minus the median untraced one.
    """
    from statistics import median

    n = len(traced_walls)
    s = tracer.self_s
    c = tracer.counts
    run_s = (s["workloads.train_runs"] + s["workloads.pruning_runs"]
             + s["workloads.failure_run"])
    totals = {
        "nn.self_s": s["nn"],
        "nn.networks": c["nn.networks"],
        "nn.rows": c["nn.rows"],
        "nn.best_epochs": c["nn.best_epochs"],
        "offline.self_s": s["offline"],
        "offline.sequences": c["offline.sequences"],
        "workloads.train_runs.self_s": s["workloads.train_runs"],
        "workloads.pruning_runs.self_s": s["workloads.pruning_runs"],
        "workloads.failure_run.self_s": s["workloads.failure_run"],
        "workloads.runs": c["workloads.runs"],
        "workloads.events": c["workloads.events"],
        "postprocess.correct_set.self_s": s["postprocess.correct_set"],
        "postprocess.correct_set.sequences":
            c["postprocess.correct_set.sequences"],
        "postprocess.rank.self_s": s["postprocess.rank"],
        "postprocess.debug_entries": c["postprocess.debug_entries"],
        "deploy.self_s": s["deploy"],
        "deploy.deps": c["deploy.deps"],
        "deploy.invalid": c["deploy.invalid"],
        "deploy.mode_switches": c["deploy.mode_switches"],
        "deploy.online_trained": c["deploy.online_trained"],
        "diagnosis.self_s": s["diagnosis"],
        "service.self_s": s["service"],
        "service.warm_hits": warm_hits,
        "service.warm_misses": warm_misses,
        "accuracy.self_s": s["accuracy"],
        "parallel.self_s": s["parallel"],
        "parallel.tasks": c["parallel.tasks"],
        "unattributed_s": sum(traced_walls) - tracer.total_self_s(),
    }
    metrics = {name: value / n for name, value in totals.items()}
    metrics.update({
        "nn.converged_ratio": _ratio(c["nn.converged"], c["nn.networks"]),
        # 0 when no network was trained (a warm pass).
        "nn.min_worst_margin": tracer.minimums.get("nn.min_worst_margin",
                                                   0.0),
        "workloads.events_per_s": _ratio(c["workloads.events"], run_s),
        "postprocess.filter_ratio": _ratio(c["postprocess.pruned"],
                                           c["postprocess.debug_entries"]),
        "deploy.deps_per_s": _ratio(c["deploy.deps"], s["deploy"]),
        "service.warm_hit_ratio": _ratio(warm_hits, warm_hits + warm_misses),
        "tracing_overhead_s": median(traced_walls) - median(untraced_walls),
    })
    return {name: metrics[name] for name, _, _ in PER_LAYER}
