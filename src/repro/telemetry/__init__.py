"""Telemetry: counters, spans and exportable run profiles for ACT.

ACT's pitch is visibility into production runs; this package gives the
reproduction the same property. Every layer (ACT module, buffers,
offline training, diagnosis, timing simulator, workload scheduler)
reports into a process-wide *active registry*:

- **counters/gauges/histograms** (:mod:`repro.telemetry.registry`) --
  cheap always-on aggregates: invalid predictions, mode switches, FIFO
  stalls, debug-buffer overflows, cache hits/misses, ...
- **spans** (:mod:`repro.telemetry.spans`) -- nested wall-time phases:
  one ``diagnose`` root decomposes into offline training, the failure
  run, deployment, pruning runs and post-processing.
- **run profiles** (:mod:`repro.telemetry.export`) -- JSON/JSONL export
  of a registry snapshot, and table rendering for humans.

The default active registry is a :class:`NullRegistry`: every mutator
is a no-op and ``enabled`` is False, so instrumentation is zero-cost
and results are byte-identical to an uninstrumented build. Enable it
per run::

    from repro import telemetry

    with telemetry.use_registry(telemetry.Registry()) as reg:
        diagnose_failure(program)
    telemetry.write_profile(reg, "profile.json")

or process-wide with :func:`install` (what ``--telemetry`` does).
Instrumented code fetches the registry at call time
(``telemetry.get_registry()``), so installation order never matters;
hot paths guard multi-metric blocks with ``if tele.enabled``.
"""

from contextlib import contextmanager

from repro.telemetry.catalog import CATALOG, MetricSpec, format_catalog
from repro.telemetry.clock import WALL, TickClock, clock_from_spec, clock_spec
from repro.telemetry.events import (
    FlightRecorder,
    events_to_profile,
    is_event_stream,
    read_events,
    read_events_profile,
)
from repro.telemetry.export import (
    format_profile,
    profile_dict,
    read_profile,
    write_profile,
)
from repro.telemetry.flame import (
    critical_path,
    folded_stacks,
    format_critical_path,
    format_flame,
)
from repro.telemetry.openmetrics import render_openmetrics
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    NullRegistry,
    Registry,
)
from repro.telemetry.spans import Span, SpanTracer

__all__ = [
    "CATALOG", "MetricSpec", "format_catalog",
    "WALL", "TickClock", "clock_from_spec", "clock_spec",
    "FlightRecorder", "events_to_profile", "is_event_stream",
    "read_events", "read_events_profile",
    "Counter", "Gauge", "Histogram", "NullRegistry", "Registry",
    "Span", "SpanTracer",
    "critical_path", "folded_stacks", "format_critical_path",
    "format_flame", "render_openmetrics",
    "format_profile", "profile_dict", "read_profile", "write_profile",
    "enabled", "get_registry", "install", "set_registry", "use_registry",
]

_NULL = NullRegistry()
_active = _NULL


def get_registry():
    """The process-wide active registry (a NullRegistry when disabled)."""
    return _active


def set_registry(registry):
    """Install ``registry`` (None disables); returns the previous one."""
    global _active
    previous = _active
    _active = _NULL if registry is None else registry
    return previous


def enabled():
    """True when the active registry records anything."""
    return _active.enabled


def install():
    """Create, install and return a fresh recording :class:`Registry`."""
    registry = Registry()
    set_registry(registry)
    return registry


@contextmanager
def use_registry(registry):
    """Scoped installation: restore the previous registry on exit."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
