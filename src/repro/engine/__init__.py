"""Plan-cached SpGEMM engine: symbolic-phase amortization.

The paper's two-phase flow pays the symbolic phase on every call; the
engine subsystem amortizes it across calls that share a sparsity pattern
(AMG Galerkin products, Markov-clustering iterations, repeated graph
powers).  See :mod:`repro.engine.engine` for the front,
:mod:`repro.engine.plan` for the cached artifact and
:mod:`repro.engine.cache` for the budgeted LRU store.
"""

from repro.engine.cache import DEFAULT_BUDGET_BYTES, CacheStats, PlanCache
from repro.engine.engine import SpGEMMEngine
from repro.engine.plan import (
    PlanCapture,
    PlanKey,
    SpGEMMPlan,
    make_key,
    pattern_digest,
)

__all__ = [
    "CacheStats",
    "DEFAULT_BUDGET_BYTES",
    "PlanCache",
    "PlanCapture",
    "PlanKey",
    "SpGEMMEngine",
    "SpGEMMPlan",
    "make_key",
    "pattern_digest",
]
