"""LRU plan cache under a device-memory budget.

A production SpGEMM service keeps captured plans (the leaf's artifacts
and the output-CSR structure) resident on the device so a hit
replays without any host round trip.  Device memory is the scarce
resource, so the cache is budgeted in *bytes*, not entries: storing a
plan evicts least-recently-used plans until the new total fits.  Plans
larger than the whole budget are never stored (the multiply still runs,
it just stays cold).

The cache is thread-safe: :meth:`PlanCache.lookup` and
:meth:`PlanCache.store` take an internal lock so threads sharing one
engine can share one cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.engine.plan import PlanKey, SpGEMMPlan

#: Default budget: 256 MiB of simulated device memory, a small slice of
#: the P100's 16 GiB -- enough for the benchmark suite's working set.
DEFAULT_BUDGET_BYTES = 256 << 20


@dataclass
class CacheStats:
    """Monotone counters of one cache's traffic."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    uncacheable: int = 0         #: plans larger than the whole budget
    saved_seconds: float = 0.0   #: symbolic+setup time amortized by hits

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 before any traffic)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class Eviction:
    """One plan pushed out by the budget (reported back to the caller so
    the engine can mirror it onto the run's event stream)."""

    key: PlanKey
    plan: SpGEMMPlan
    reason: str = "budget"


class PlanCache:
    """Pattern-keyed LRU store of :class:`SpGEMMPlan` under a byte budget."""

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES) -> None:
        if budget_bytes <= 0:
            raise ValueError(f"cache budget must be positive, "
                             f"got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        self._plans: OrderedDict[PlanKey, SpGEMMPlan] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.stats = CacheStats()

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: PlanKey) -> bool:
        with self._lock:
            return key in self._plans

    @property
    def bytes_in_use(self) -> int:
        """Device bytes held by the cached plans."""
        return self._bytes

    def keys(self) -> list[PlanKey]:
        """Cached keys, least-recently-used first."""
        with self._lock:
            return list(self._plans)

    # -- traffic -----------------------------------------------------------

    def lookup(self, key: PlanKey) -> SpGEMMPlan | None:
        """Return the plan for ``key`` (refreshing its LRU slot) or None."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.stats.misses += 1
                return None
            self._plans.move_to_end(key)
            self.stats.hits += 1
            self.stats.saved_seconds += plan.symbolic_seconds
            return plan

    def store(self, key: PlanKey, plan: SpGEMMPlan) -> list[Eviction]:
        """Insert ``plan``, evicting LRU entries until the budget holds.

        Returns the evictions performed (possibly empty).  A plan larger
        than the entire budget is not stored at all.
        """
        nbytes = plan.device_bytes()
        evicted: list[Eviction] = []
        with self._lock:
            if nbytes > self.budget_bytes:
                self.stats.uncacheable += 1
                return evicted
            old = self._plans.pop(key, None)
            if old is not None:
                self._bytes -= old.device_bytes()
            while self._plans and self._bytes + nbytes > self.budget_bytes:
                k, p = self._plans.popitem(last=False)
                self._bytes -= p.device_bytes()
                self.stats.evictions += 1
                evicted.append(Eviction(key=k, plan=p))
            self._plans[key] = plan
            self._bytes += nbytes
        return evicted

    def retract_hit(self, key: PlanKey, plan: SpGEMMPlan) -> None:
        """Reclassify a served hit as a miss (stale-plan fallback): the
        engine discards the entry and corrects the traffic counters so
        the hit rate reflects multiplies actually amortized."""
        with self._lock:
            self.stats.hits -= 1
            self.stats.misses += 1
            self.stats.saved_seconds -= plan.symbolic_seconds
            stored = self._plans.pop(key, None)
            if stored is not None:
                self._bytes -= stored.device_bytes()

    def discard(self, key: PlanKey) -> None:
        """Drop one entry if present (stale-plan recovery path)."""
        with self._lock:
            plan = self._plans.pop(key, None)
            if plan is not None:
                self._bytes -= plan.device_bytes()

    def clear(self) -> None:
        """Drop every cached plan (budget reconfiguration, tests)."""
        with self._lock:
            self._plans.clear()
            self._bytes = 0
