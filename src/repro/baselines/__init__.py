"""Comparison schemes from the paper's evaluation.

- :mod:`repro.baselines.pbi` -- PBI-style sampling diagnosis: per
  instruction, sample hardware events (MESI state at memory accesses,
  branch outcomes) across correct and failing runs and rank predicates
  by a CBI/PBI statistical score. We implement the paper's "extreme"
  variant that samples *every* instruction.
- :mod:`repro.baselines.aviso` -- Aviso-style constraint learning from
  failure runs: candidate event-pair constraints harvested near the
  failure point, refined as more failures are observed. Needs at least
  one (usually several) failure reproductions and only works for
  multi-threaded programs.
- :mod:`repro.baselines.pset` -- PSet-style static communication
  invariants (exact valid-writer sets per load), the class of scheme
  ACT's adaptivity argument is made against.

Each module holds its scheme's statistics and the engine that puts them
behind the :class:`~repro.engines.base.Predictor` protocol (registered
as ``aviso``, ``pbi`` and ``pset``).
"""

from repro.baselines.aviso import AvisoEngine
from repro.baselines.pbi import PBIEngine
from repro.baselines.pset import PSetEngine, PSetInvariants

__all__ = [
    "AvisoEngine",
    "PBIEngine",
    "PSetEngine",
    "PSetInvariants",
]
