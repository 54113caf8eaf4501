"""The SpGEMM engine: the plan-cached front of the algorithms.

:class:`SpGEMMEngine` is itself an :class:`~repro.base.SpGEMMAlgorithm`,
so it drops in anywhere an algorithm does: ``repro.multiply(A, B,
engine=True)`` builds one through :func:`~repro.options.runner_for`, and
the bench runner, the apps and each device of a
:class:`~repro.dist.DistSpGEMM` pool hold one.  It fronts an inner
algorithm (default: the paper's proposal) with a pattern-keyed
:class:`~repro.engine.cache.PlanCache`:

* **miss** -- run the inner algorithm cold, capture its symbolic outcome
  as an :class:`~repro.engine.plan.SpGEMMPlan`, store it under the
  device-memory budget (evicting LRU plans), and -- on observed runs --
  mark the run's event stream with ``cache_miss`` (plus any
  ``cache_evict``\\ s);
* **hit** -- replay only the numeric phase through the inner algorithm's
  ``multiply_planned`` path, which runs the plan's one replay body
  (:meth:`~repro.engine.plan.SpGEMMPlan.replay`) on a ``numeric_only``
  run context: zero setup/count kernels, no symbolic allocations, the
  output malloc reduced to the fresh value array, the cold run's calc
  kernels re-run, and the values computed straight from the pattern's
  retained sort recipe (:func:`~repro.engine.plan.replay_values`).  The
  run's report carries a ``cache_hit`` event with the amortized
  ``saved_seconds``.

The plan cache is thread-safe, and threads that each hold their own
runner (the serving layer's workers) share the product cache, the recipe
store and the scheduler's phase memo underneath.
"""

from __future__ import annotations

from repro.base import SpGEMMAlgorithm, SpGEMMResult
from repro.engine.cache import DEFAULT_BUDGET_BYTES, PlanCache
from repro.engine.plan import PlanCapture, make_key
from repro.errors import PlanMismatchError
from repro.gpu.device import P100, DeviceSpec
from repro.gpu.faults import FaultPlan
from repro.obs import events as OBS
from repro.obs.events import Event
from repro.obs.metrics import MetricsRegistry
from repro.sparse.csr import CSRMatrix
from repro.types import Precision

class SpGEMMEngine(SpGEMMAlgorithm):
    """Plan-cached SpGEMM service fronting a registry algorithm.

    Parameters
    ----------
    algorithm:
        Inner algorithm: a registry name or a ready instance.  Only
        algorithms that define ``multiply_planned`` (the proposal and
        ``tile``) are cached; others pass through so the engine stays a
        universal front.
    cache_budget_bytes:
        Device-memory budget of the plan cache (LRU eviction).
    **algo_options:
        Forwarded to the inner algorithm's constructor when ``algorithm``
        is a name (e.g. ``use_streams=False``).
    """

    name = "engine"

    def __init__(self, algorithm: "str | SpGEMMAlgorithm" = "proposal", *,
                 cache_budget_bytes: int = DEFAULT_BUDGET_BYTES,
                 **algo_options) -> None:
        if isinstance(algorithm, SpGEMMAlgorithm):
            self.inner = algorithm
        else:
            from repro.baselines.registry import create

            self.inner = create(algorithm, **algo_options)
        self.cache = PlanCache(cache_budget_bytes)
        self.passthrough_runs = 0

    # -- the cached multiply -------------------------------------------------

    @property
    def cacheable(self) -> bool:
        """True when the inner runner can replay a captured plan (it
        defines ``multiply_planned``); the engine caches nothing else."""
        return hasattr(self.inner, "multiply_planned")

    def multiply(self, A: CSRMatrix, B: CSRMatrix, *,
                 precision: Precision | str = Precision.DOUBLE,
                 device: DeviceSpec = P100,
                 matrix_name: str = "",
                 faults: FaultPlan | None = None) -> SpGEMMResult:
        """``C = A @ B`` through the plan cache.

        Fault-injected runs bypass the cache entirely: a plan captured
        under injected faults is not trustworthy, and a replay would
        dodge the very failure the caller asked for.
        """
        A, B, p = self._prepare(A, B, precision)
        cacheable = faults is None and self.cacheable
        if not cacheable:
            self.passthrough_runs += 1
            return self.inner.multiply(A, B, precision=p, device=device,
                                       matrix_name=matrix_name, faults=faults)

        key = make_key(A, B, self.inner, device, p)
        plan = self.cache.lookup(key)
        if plan is not None:
            try:
                return self.inner.multiply_planned(
                    A, B, plan, precision=p, device=device,
                    matrix_name=matrix_name)
            except PlanMismatchError:
                # the plan no longer fits (safety net: structure arrays
                # are read-only, so only a broken ownership contract gets
                # here); drop the stale plan and recover with a cold run
                self.cache.retract_hit(key, plan)

        capture = PlanCapture(key)
        result = self.inner.multiply(A, B, precision=p, device=device,
                                     matrix_name=matrix_name,
                                     capture=capture)
        evictions = ([] if capture.plan is None
                     else self.cache.store(key, capture.plan))
        if OBS.observed_default():
            report = result.report
            end_ts = report.events[-1].ts if report.events else 0.0
            # the miss happened at lookup time, before the run's clock started
            report.events.insert(0, Event(
                ts=0.0, kind=OBS.CACHE_MISS, name=key.label(),
                attrs={"algorithm": self.inner.name,
                       "captured": capture.plan is not None}))
            for ev in evictions:
                report.events.append(Event(
                    ts=end_ts, kind=OBS.CACHE_EVICT, name=ev.key.label(),
                    attrs={"plan_bytes": ev.plan.device_bytes(),
                           "reason": ev.reason}))
        return result

    # -- observability -------------------------------------------------------

    def stats(self):
        """The cache's traffic counters (:class:`~repro.engine.cache.
        CacheStats`)."""
        return self.cache.stats

    def metrics(self) -> MetricsRegistry:
        """Engine-level metrics registry: hit rate, footprint, savings."""
        s = self.cache.stats
        reg = MetricsRegistry()
        traffic = reg.counter("plan_cache_events_total",
                              "plan-cache traffic by event kind")
        traffic.inc(s.hits, event="hit")
        traffic.inc(s.misses, event="miss")
        traffic.inc(s.evictions, event="evict")
        traffic.inc(s.uncacheable, event="uncacheable")
        reg.gauge("plan_cache_hit_ratio",
                  "hits per lookup").set(s.hit_rate)
        reg.gauge("plan_cache_plans", "plans resident").set(len(self.cache))
        reg.gauge("plan_cache_bytes",
                  "device bytes held by plans").set(self.cache.bytes_in_use)
        reg.gauge("plan_cache_budget_bytes",
                  "configured device-memory budget").set(self.cache.budget_bytes)
        reg.counter("plan_cache_saved_seconds_total",
                    "symbolic+setup time amortized by hits").inc(
            max(s.saved_seconds, 0.0))
        reg.counter("engine_passthrough_runs_total",
                    "uncached multiplies (faults/unsupported)").inc(
            self.passthrough_runs)
        return reg

    def stats_summary(self) -> str:
        """One-paragraph engine-stats block (the CLI's ``engine-stats``).

        The header says whether the inner runner can be plan-cached at
        all; one that cannot passes every multiply through.
        """
        s = self.cache.stats
        cache = ("plan cache on" if self.cacheable else
                 "no plan cache: every run passes through")
        lines = [
            f"engine: {self.inner.name} ({cache})",
            f"  lookups {s.lookups}  hits {s.hits}  misses {s.misses}  "
            f"hit-rate {100.0 * s.hit_rate:.1f}%",
            f"  plans {len(self.cache)}  "
            f"bytes {self.cache.bytes_in_use:,}/{self.cache.budget_bytes:,}  "
            f"evictions {s.evictions}  uncacheable {s.uncacheable}",
            f"  amortized symbolic+setup time "
            f"{s.saved_seconds * 1e3:.3f} ms  "
            f"passthrough {self.passthrough_runs}",
        ]
        return "\n".join(lines)
