"""The SpGEMM engine: plan-cached, batch-capable front of the algorithms.

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
  ``multiply_planned`` path on a ``numeric_only`` run context: zero
  setup/count kernels, no symbolic allocations, the output malloc
  reduced to the fresh value array, and the values computed straight
  from the pattern's retained sort recipe
  (:func:`~repro.engine.plan.replay_values`).  The run's report carries
  a ``cache_hit`` event with the amortized ``saved_seconds``.

:meth:`SpGEMMEngine.batch` submits independent multiplies through a
thread pool -- the suite/corpus path, where wall-clock parallelism and
cross-call pattern reuse compound.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from repro.base import SpGEMMAlgorithm, SpGEMMResult
from repro.engine.cache import DEFAULT_BUDGET_BYTES, PlanCache
from repro.engine.plan import PlanCapture, make_key
from repro.errors import PlanMismatchError, ReproError
from repro.gpu.device import P100, DeviceSpec
from repro.gpu.faults import FaultPlan
from repro.obs import events as OBS
from repro.obs.events import Event
from repro.obs.metrics import MetricsRegistry
from repro.sparse.csr import CSRMatrix
from repro.types import Precision

#: Default worker-pool width for :meth:`SpGEMMEngine.batch`.
DEFAULT_WORKERS = 4


@dataclass
class BatchJob:
    """One multiply in a batched submission."""

    A: CSRMatrix
    B: CSRMatrix
    precision: Precision | str = Precision.DOUBLE
    matrix_name: str = ""


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
    max_workers:
        Worker-pool width of :meth:`batch`.
    **algo_options:
        Forwarded to the inner algorithm's constructor when ``algorithm``
        is a name (e.g. ``use_streams=False``).
    """

    name = "engine"

    def __init__(self, algorithm: "str | SpGEMMAlgorithm" = "proposal", *,
                 cache_budget_bytes: int = DEFAULT_BUDGET_BYTES,
                 max_workers: int = DEFAULT_WORKERS,
                 **algo_options) -> None:
        if isinstance(algorithm, SpGEMMAlgorithm):
            self.inner = algorithm
        else:
            from repro.baselines.registry import create

            self.inner = create(algorithm, **algo_options)
        self.cache = PlanCache(cache_budget_bytes)
        self.max_workers = max(1, int(max_workers))
        self.passthrough_runs = 0
        self.batch_jobs = 0

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

    # -- batched submission --------------------------------------------------

    def batch(self, jobs: Sequence["BatchJob | tuple"], *,
              device: DeviceSpec = P100, max_workers: int | None = None,
              return_errors: bool = False) -> list:
        """Run independent multiplies through a worker pool.

        ``jobs`` are :class:`BatchJob` instances or tuples in field
        order: ``(A, B)``, ``(A, B, precision)`` or ``(A, B, precision,
        name)``.  Results come back in submission order.
        With ``return_errors=True`` a failing job yields its
        :class:`~repro.errors.ReproError` in place of a result (the
        suite path renders those as the paper's "-" entries); otherwise
        the first failure propagates after the pool drains.

        Jobs sharing a pattern still race on a cold cache -- concurrent
        misses are computed independently and the last capture wins --
        but every later lookup hits; the cache itself is thread-safe.
        """
        jobs = [j if isinstance(j, BatchJob) else BatchJob(*j) for j in jobs]
        self.batch_jobs += len(jobs)

        def run(job: BatchJob):
            try:
                return self.multiply(job.A, job.B, precision=job.precision,
                                     device=device,
                                     matrix_name=job.matrix_name)
            except ReproError as e:
                if return_errors:
                    return e
                raise

        if not jobs:
            return []
        workers = min(max_workers or self.max_workers, len(jobs))
        if workers == 1:
            return [run(j) for j in jobs]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, jobs))

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
        reg.counter("engine_batch_jobs_total",
                    "multiplies submitted through batch()").inc(
            self.batch_jobs)
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
            f"passthrough {self.passthrough_runs}  "
            f"batch jobs {self.batch_jobs}",
        ]
        return "\n".join(lines)
