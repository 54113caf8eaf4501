"""The multi-tenant SpGEMM server: futures in, typed outcomes out.

:class:`SpGEMMServer` fronts the whole stack (the runner chain
:func:`~repro.options.runner_for` compiles from the job's options) with
a thread pool and a robustness core:

* **admission control** -- each job's device working set is estimated
  from the Alg. 2 intermediate-product counts and the
  :mod:`repro.core.work` byte costs; jobs dispatch only while the
  in-flight estimates fit the :class:`~repro.dist.DevicePool`-derived
  memory budget, and the bounded weighted-fair queue sheds excess load
  with :class:`~repro.errors.ServerOverloadedError`;
* **deadlines and retry** -- expired jobs fail fast with
  :class:`~repro.errors.JobTimeoutError`; ``RECOVERABLE`` failures are
  retried under capped exponential backoff with deterministic jitter,
  then handed to the :class:`~repro.core.resilient.ResilientSpGEMM`
  ladder as the last rung;
* **per-tenant isolation** -- a :class:`~repro.serve.breaker.
  CircuitBreaker` trips on consecutive failures
  (:class:`~repro.errors.CircuitOpenError`, half-open probes to
  recover) and the :class:`~repro.serve.queue.WeightedFairQueue` keeps
  one tenant from starving the rest;
* **graceful degradation** -- under sustained memory or queue pressure
  new admissions run chunked/fallback (the resilience ladder) instead
  of being rejected, and identical (operand digest, options token) jobs
  coalesce onto one plan-cached run.

Every transition lands as a typed ``serve_*`` event on the server's own
:class:`~repro.obs.events.EventBus` (host-clock timestamps); the
``serve_*`` metric families derive from it and satisfy the conservation
law ``submitted == completed + rejected + timed_out + failed``
(:func:`~repro.obs.metrics.check_serve_conservation`).  Results are
bit-identical to a direct ``repro.multiply`` of the same options -- the
server only decides *when* and *through which degradation rung* a job
runs, never *what* it computes.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future

import numpy as np

from repro.core.count_products import count_products
from repro.core.resilient import RECOVERABLE
from repro.core.work import stream_bytes_numeric
from repro.errors import (CircuitOpenError, JobTimeoutError, ReproError,
                          ServerOverloadedError)
from repro.gpu.faults import FaultPlan
from repro.obs import events as OBS
from repro.obs.events import EventBus, observe_runs
from repro.obs.metrics import MetricsRegistry, metrics_from_events
from repro.options import SpGEMMOptions, runner_for
from repro.serve.breaker import STATE_VALUES, CircuitBreaker
from repro.serve.policy import ServePolicy
from repro.serve.queue import WeightedFairQueue
from repro.sparse.csr import CSRMatrix
from repro.sparse.product import pattern_fingerprint, value_tags
from repro.types import Precision

#: How often a blocked worker re-checks deadlines with no queue activity.
_WAIT_POLL_S = 0.02

# job lifecycle states (``ServedJob.status``)
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
TIMED_OUT = "timed_out"


def estimate_job_bytes(A: CSRMatrix, B: CSRMatrix,
                       precision: "Precision | str") -> int:
    """Estimated device working set of ``A @ B`` (admission currency).

    Operand residency plus the intermediate-product upper bound on the
    output (``nnz(C) <= products`` per row) and the per-row streaming
    byte costs of :func:`repro.core.work.stream_bytes_numeric` as a
    conservative proxy for the numeric phase's working arrays.  An
    *estimate* by design: admission plans optimistically and the
    resilience ladder recovers the overflows (the OCEAN stance), so a
    cheap monotone upper-ish bound beats an exact symbolic pass.
    """
    p = Precision.parse(precision)
    nprod = count_products(A, B).astype(np.float64)
    nnz_a = np.diff(A.rpt).astype(np.float64)
    c_bytes = 8.0 * (A.n_rows + 1) + (4.0 + p.value_bytes) * float(nprod.sum())
    work_bytes = float(stream_bytes_numeric(nnz_a, nprod, nprod, p).sum())
    return int(A.device_bytes(p) + B.device_bytes(p) + c_bytes + work_bytes)


def _digest_job(A: CSRMatrix, B: CSRMatrix, options: SpGEMMOptions) -> tuple:
    """Coalescing key: the operands' pattern fingerprint (memoized, so a
    seen structure is not rehashed), their value tags and the options'
    execution token."""
    return (pattern_fingerprint(A, B), *value_tags(A, B),
            options.coalesce_token())


class ServedJob:
    """Handle of one submitted multiply: a future plus its audit trail."""

    def __init__(self, job_id: int, tenant: str, *, matrix_name: str = "",
                 deadline_s: float | None = None) -> None:
        self.job_id = job_id
        self.tenant = tenant
        self.matrix_name = matrix_name
        self.deadline_s = deadline_s
        self.status = QUEUED
        self.estimate_bytes = 0        #: cost-model working-set estimate
        self.admit_estimate = 0        #: bytes charged against the budget
        self.degraded = False
        self.degrade_reason = ""
        self.attempts = 0              #: execution attempts (1 = no retry)
        self.coalesced_with: int | None = None   #: leader job id
        self.followers: list[ServedJob] = []
        self.submitted_at = 0.0
        self.dispatched_at = 0.0
        self.finished_at = 0.0
        self.outcome = ""              #: terminal: completed/failed/timed_out
        self._future: Future = Future()
        # internal bookkeeping (server-owned)
        self._digest: tuple = ()       #: coalescing key (empty: none)
        self._payload = None           #: (A, B, options, faults)

    # -- future surface ----------------------------------------------------

    def result(self, timeout: float | None = None):
        """The :class:`~repro.base.SpGEMMResult`, or raises the job's
        typed error (:class:`~repro.errors.JobTimeoutError` etc.)."""
        return self._future.result(timeout)

    def exception(self, timeout: float | None = None):
        return self._future.exception(timeout)

    def done(self) -> bool:
        return self._future.done()

    @property
    def queue_wait_s(self) -> float:
        return max(0.0, self.dispatched_at - self.submitted_at)

    @property
    def latency_s(self) -> float:
        return max(0.0, self.finished_at - self.submitted_at)


class SpGEMMServer:
    """Fault-tolerant multi-tenant serving front of ``repro.multiply``.

    Parameters
    ----------
    options:
        Base :class:`~repro.options.SpGEMMOptions` every job runs under
        (per-submit ``options`` override it).  ``devices`` here sizes
        the admission budget from the pool's combined capacity.
    n_workers:
        Concurrent executor threads (each keeps its own runner chain,
        so per-worker plan caches stay warm across jobs).
    policy:
        The :class:`~repro.serve.policy.ServePolicy` robustness knobs.
    tenant_weights:
        Mapping tenant -> fair-queue weight (default 1.0 each).
    faults:
        A server-level :class:`~repro.gpu.faults.FaultPlan` applied to
        every job (the chaos harness's storm); per-submit ``faults``
        take precedence for that job.
    clock / sleep:
        Injectable host clock and sleep (deterministic tests drive a
        manual clock; production uses ``time.monotonic`` / ``time.sleep``).
    observe_runs:
        Per-run trace events.  ``False`` executes every job unobserved
        (no per-kernel/per-charge event construction -- the throughput
        mode); ``True`` forces full traces; ``None`` (default) follows
        each job's ``options.observe``.  Server-level ``serve_*`` events
        and :meth:`metrics` are unaffected either way.
    """

    def __init__(self, *, options: SpGEMMOptions | None = None,
                 n_workers: int = 2, policy: ServePolicy | None = None,
                 tenant_weights: dict[str, float] | None = None,
                 faults: FaultPlan | None = None,
                 clock=time.monotonic, sleep=time.sleep,
                 observe_runs: bool | None = None) -> None:
        self.options = options or SpGEMMOptions()
        self.observe = observe_runs
        self.policy = policy or ServePolicy()
        self.faults = faults
        self._clock = clock
        self._sleep = sleep
        self._t0 = clock()
        self.events = EventBus()
        self.memory_budget_bytes = self._derive_budget()
        self.usable_budget_bytes = max(
            1, int(self.memory_budget_bytes * self.policy.admission_headroom))

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue = WeightedFairQueue(capacity=self.policy.max_queue_depth)
        for tenant, w in (tenant_weights or {}).items():
            self._queue.set_weight(tenant, w)
        self._breakers: dict[str, CircuitBreaker] = {}
        self._inflight_by_digest: dict[tuple, ServedJob] = {}
        self._in_flight_bytes = 0
        self._running = 0
        self._stopping = False
        self._job_ids = itertools.count(1)
        self.jobs: list[ServedJob] = []   #: every accepted job, in order

        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"serve-w{i}",
                             daemon=True)
            for i in range(max(1, int(n_workers)))]
        for t in self._workers:
            t.start()

    # -- construction helpers ----------------------------------------------

    def _derive_budget(self) -> int:
        """Admission budget: policy override, else the device pool's
        combined capacity (:meth:`~repro.dist.pool.DevicePool.
        memory_bytes`), else the single device's."""
        if self.policy.memory_budget_bytes is not None:
            return int(self.policy.memory_budget_bytes)
        o = self.options
        if o.devices is None:
            return int(o.device.global_mem_bytes)
        from repro.dist.pool import DevicePool

        if isinstance(o.devices, tuple):
            pool = DevicePool.from_names(list(o.devices), engine=False)
        else:
            pool = DevicePool.uniform(int(o.devices), o.device, engine=False)
        return pool.memory_bytes()

    def _now(self) -> float:
        return self._clock()

    def _emit(self, kind: str, tenant: str, **attrs) -> None:
        """Publish one serve event at the current host time (lock held)."""
        self.events.emit(kind, tenant, self._now() - self._t0, **attrs)

    def _breaker(self, tenant: str) -> CircuitBreaker:
        b = self._breakers.get(tenant)
        if b is None:
            b = self._breakers[tenant] = CircuitBreaker(self.policy.breaker,
                                                        tenant=tenant)
        return b

    # -- submission ----------------------------------------------------------

    def submit(self, A: CSRMatrix, B: CSRMatrix, *, tenant: str = "default",
               deadline_s: float | None = None,
               options: SpGEMMOptions | None = None,
               matrix_name: str = "",
               faults: FaultPlan | None = None) -> ServedJob:
        """Enqueue ``C = A @ B`` for ``tenant``; returns a :class:`ServedJob`.

        Raises immediately (shedding load fast) with
        :class:`~repro.errors.CircuitOpenError` when the tenant's breaker
        is open or :class:`~repro.errors.ServerOverloadedError` when the
        bounded queue is full or the server is shut down; both rejections
        are still counted against the conservation law.
        """
        opts = options or self.options
        if deadline_s is None:
            deadline_s = self.policy.default_deadline_s
        job_faults = faults if faults is not None else self.faults
        with self._lock:
            job = ServedJob(next(self._job_ids), tenant,
                            matrix_name=matrix_name, deadline_s=deadline_s)
            job.submitted_at = self._now()
            job.estimate_bytes = estimate_job_bytes(A, B, opts.precision)
            self._emit(OBS.SERVE_SUBMIT, tenant, job=job.job_id,
                       estimate_bytes=job.estimate_bytes,
                       deadline_s=-1.0 if deadline_s is None else deadline_s)
            if self._stopping:
                self._reject(job, "closed",
                             ServerOverloadedError(
                                 "server is shut down", tenant=tenant,
                                 queue_depth=len(self._queue),
                                 max_queue_depth=self.policy.max_queue_depth))
            breaker = self._breaker(tenant)
            if not breaker.allow(self._now()):
                retry_after = breaker.retry_after(self._now())
                self._reject(job, "circuit_open", CircuitOpenError(
                    f"circuit open for tenant {tenant!r} "
                    f"(retry in {retry_after:.3f}s)", tenant=tenant,
                    retry_after_s=retry_after))
            # coalesce onto an identical queued/running job (skip jobs
            # carrying a per-submit fault plan: their failures are theirs)
            if self.policy.coalesce and faults is None:
                job._digest = _digest_job(A, B, opts)
                leader = self._inflight_by_digest.get(job._digest)
                if leader is not None and not leader.done():
                    job.coalesced_with = leader.job_id
                    leader.followers.append(job)
                    self.jobs.append(job)
                    self._emit(OBS.SERVE_COALESCE, tenant, job=job.job_id,
                               leader=leader.job_id)
                    return job
            if self._queue.full:
                self._reject(job, "overloaded", ServerOverloadedError(
                    f"queue full ({len(self._queue)}"
                    f"/{self.policy.max_queue_depth})", tenant=tenant,
                    queue_depth=len(self._queue),
                    max_queue_depth=self.policy.max_queue_depth))
            self._maybe_degrade(job)
            job._payload = (A, B, opts, job_faults)
            self._queue.push(job, tenant=tenant,
                             cost=float(job.estimate_bytes))
            if job._digest:
                self._inflight_by_digest[job._digest] = job
            self.jobs.append(job)
            self._cond.notify_all()
            return job

    def _reject(self, job: ServedJob, reason: str, error: Exception):
        """Record the shed load and raise (lock held)."""
        self._emit(OBS.SERVE_REJECT, job.tenant, job=job.job_id,
                   reason=reason)
        job.status = FAILED
        job.outcome = "rejected"
        job.finished_at = self._now()
        job._future.set_exception(error)
        self.jobs.append(job)
        raise error

    def _maybe_degrade(self, job: ServedJob) -> None:
        """Downgrade the admission to chunked/fallback execution when the
        job cannot fit, or the server is under sustained pressure."""
        reason = ""
        if job.estimate_bytes > self.usable_budget_bytes:
            reason = "over_budget"
        elif self._in_flight_bytes > (self.policy.degrade_memory_fraction
                                      * self.memory_budget_bytes):
            reason = "memory_pressure"
        elif len(self._queue) >= self.policy.degrade_queue_depth:
            reason = "queue_pressure"
        if reason:
            job.degraded = True
            job.degrade_reason = reason
            self._emit(OBS.SERVE_DEGRADE, job.tenant, job=job.job_id,
                       reason=reason)
        # the budget is charged with the *capped* estimate so a single
        # over-budget job cannot wedge admission forever
        job.admit_estimate = min(job.estimate_bytes, self.usable_budget_bytes)

    # -- worker side ---------------------------------------------------------

    def _worker_loop(self) -> None:
        runners: dict[str, object] = {}   # per-worker, keyed by options token
        while True:
            job = self._next_job()
            if job is None:
                return
            self._execute(job, runners)

    def _next_job(self) -> ServedJob | None:
        """Block until a job is admissible (or shutdown); admits it."""
        with self._cond:
            while True:
                self._expire_queued()
                if self._stopping and len(self._queue) == 0:
                    return None
                job = self._queue.peek()
                if job is not None:
                    fits = (self._in_flight_bytes + job.admit_estimate
                            <= self.usable_budget_bytes)
                    if fits or self._running == 0:
                        self._queue.pop()
                        job.status = RUNNING
                        job.dispatched_at = self._now()
                        self._in_flight_bytes += job.admit_estimate
                        self._running += 1
                        self._emit(OBS.SERVE_ADMIT, job.tenant,
                                   job=job.job_id,
                                   queue_wait_s=job.queue_wait_s,
                                   queue_depth=len(self._queue),
                                   in_flight_bytes=self._in_flight_bytes)
                        return job
                self._cond.wait(timeout=_WAIT_POLL_S)

    def _expire_queued(self) -> None:
        """Fail queued jobs whose deadline passed (lock held)."""
        now = self._now()
        expired = [j for j in self._queue
                   if j.deadline_s is not None
                   and (j.deadline_s <= 0
                        or now - j.submitted_at > j.deadline_s)]
        for job in expired:
            self._queue.remove(job)
            self._finish_locked(job, TIMED_OUT, error=JobTimeoutError(
                f"job {job.job_id} missed its {job.deadline_s:.3f}s deadline "
                f"after waiting {now - job.submitted_at:.3f}s in queue",
                tenant=job.tenant, deadline_s=job.deadline_s or 0.0,
                waited_s=now - job.submitted_at), admitted=False)

    def _deadline_expired(self, job: ServedJob) -> JobTimeoutError | None:
        if job.deadline_s is None:
            return None
        waited = self._now() - job.submitted_at
        if job.deadline_s <= 0 or waited > job.deadline_s:
            return JobTimeoutError(
                f"job {job.job_id} missed its {job.deadline_s:.3f}s deadline "
                f"({waited:.3f}s elapsed)", tenant=job.tenant,
                deadline_s=job.deadline_s, waited_s=waited)
        return None

    def _execute(self, job: ServedJob, runners: dict) -> None:
        A, B, opts, faults = job._payload
        try:
            result = self._run_with_retries(job, A, B, opts, faults, runners)
        except JobTimeoutError as e:
            with self._lock:
                self._finish_locked(job, TIMED_OUT, error=e)
            return
        except Exception as e:   # typed ReproErrors and (bug) escapes alike
            with self._lock:
                self._finish_locked(job, FAILED, error=e)
            return
        with self._lock:
            self._finish_locked(job, COMPLETED, result=result)

    def _run_with_retries(self, job: ServedJob, A, B,
                          opts: SpGEMMOptions, faults, runners: dict):
        """One job through retry -> backoff -> resilience-ladder rungs."""
        retry = self.policy.retry
        attempt = 0
        while True:
            err = self._deadline_expired(job)
            if err is not None:
                raise err
            job.attempts += 1
            try:
                return self._run_once(job, A, B, opts, faults, runners)
            except RECOVERABLE as e:
                attempt += 1
                if attempt <= retry.max_retries:
                    backoff = retry.backoff_seconds(job.job_id, attempt)
                    with self._lock:
                        self._emit(OBS.SERVE_RETRY, job.tenant,
                                   job=job.job_id, attempt=attempt,
                                   backoff_s=backoff,
                                   error=type(e).__name__)
                    self._sleep(backoff)
                    continue
                if not job.degraded:
                    # last rung: hand the job to the resilience ladder
                    job.degraded = True
                    job.degrade_reason = "retry_exhausted"
                    with self._lock:
                        self._emit(OBS.SERVE_DEGRADE, job.tenant,
                                   job=job.job_id, reason="retry_exhausted")
                    err = self._deadline_expired(job)
                    if err is not None:
                        raise err
                    job.attempts += 1
                    return self._run_once(job, A, B, opts, faults, runners)
                raise

    def _run_once(self, job: ServedJob, A, B, opts: SpGEMMOptions,
                  faults, runners: dict):
        """One execution attempt; degraded jobs run the chunked ladder."""
        if job.degraded:
            opts = self._degraded_options(job, opts)
        token = opts.coalesce_token()
        runner = runners.get(token)
        if runner is None:
            runner = runners[token] = runner_for(opts)
        observed = self.observe if self.observe is not None else opts.observe
        # set inside the worker thread: contextvars do not cross threads
        with observe_runs(bool(observed)):
            return runner.multiply(A, B, precision=opts.precision,
                                   device=opts.device,
                                   matrix_name=job.matrix_name,
                                   faults=faults)

    def _degraded_options(self, job: ServedJob,
                          opts: SpGEMMOptions) -> SpGEMMOptions:
        """Chunked/fallback execution: single device, resilience ladder,
        budget capped at the job's admitted share.  Bit-identical output
        (both the dist and resilient layers preserve results exactly)."""
        budget = min(max(job.admit_estimate, 1),
                     int(opts.device.global_mem_bytes))
        return opts.evolve(devices=None, resilient=True,
                           memory_budget=budget)

    # -- completion ----------------------------------------------------------

    def _finish_locked(self, job: ServedJob, status: str, *, result=None,
                       error: Exception | None = None,
                       admitted: bool = True) -> None:
        """Terminal bookkeeping for a job and its coalesced followers."""
        if admitted and job.status == RUNNING:
            self._running -= 1
            self._in_flight_bytes -= job.admit_estimate
        job.status = status
        job.finished_at = self._now()
        job.outcome = {COMPLETED: "completed", FAILED: "failed",
                       TIMED_OUT: "timed_out"}[status]
        if job._digest and self._inflight_by_digest.get(job._digest) is job:
            del self._inflight_by_digest[job._digest]

        breaker = self._breaker(job.tenant)
        before = breaker.state
        if status == COMPLETED:
            breaker.record_success(self._now())
        elif status == FAILED:
            breaker.record_failure(self._now())
        if breaker.state != before:
            self._emit(OBS.SERVE_BREAKER, job.tenant, state=breaker.state,
                       **{"from": before})

        self._emit_terminal(job, result, error)
        if status == COMPLETED:
            job._future.set_result(result)
        else:
            job._future.set_exception(error)
        for follower in job.followers:
            follower.status = status
            follower.finished_at = job.finished_at
            follower.outcome = job.outcome
            self._emit_terminal(follower, result, error)
            if status == COMPLETED:
                follower._future.set_result(result)
            else:
                follower._future.set_exception(error)
        job.followers = []
        self._cond.notify_all()

    def _emit_terminal(self, job: ServedJob, result, error) -> None:
        if job.outcome == "timed_out":
            self._emit(OBS.SERVE_TIMEOUT, job.tenant, job=job.job_id,
                       waited_s=job.latency_s)
            return
        modeled = (result.report.total_seconds
                   if job.outcome == "completed" else 0.0)
        self._emit(OBS.SERVE_DONE, job.tenant, job=job.job_id,
                   outcome=job.outcome,
                   error=type(error).__name__ if error is not None else "",
                   modeled_seconds=modeled, latency_s=job.latency_s,
                   attempts=job.attempts, degraded=job.degraded,
                   coalesced=job.coalesced_with is not None)

    # -- lifecycle -----------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every accepted job reached a terminal state.

        Returns False when ``timeout`` (host seconds, real clock)
        expires first.  Draining does not stop the server.
        """
        end = time.monotonic() + timeout if timeout is not None else None
        with self._cond:
            while len(self._queue) > 0 or self._running > 0:
                remaining = _WAIT_POLL_S
                if end is not None:
                    remaining = min(remaining, end - time.monotonic())
                    if remaining <= 0:
                        return False
                self._cond.wait(timeout=remaining)
        return True

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs; optionally finish the backlog first.

        With ``wait=False`` the queued backlog is shed with typed
        :class:`~repro.errors.ServerOverloadedError`\\ s (never silently
        dropped); running jobs still finish.
        """
        if wait:
            self.drain()
        with self._cond:
            self._stopping = True
            if not wait:
                for job in list(self._queue):
                    self._queue.remove(job)
                    self._emit(OBS.SERVE_REJECT, job.tenant, job=job.job_id,
                               reason="closed")
                    job.status = FAILED
                    job.outcome = "rejected"
                    job.finished_at = self._now()
                    job._future.set_exception(ServerOverloadedError(
                        "server shut down before dispatch",
                        tenant=job.tenant))
            self._cond.notify_all()
        for t in self._workers:
            t.join(timeout=30.0)

    def __enter__(self) -> "SpGEMMServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=exc_type is None)

    # -- observability -------------------------------------------------------

    def breaker_state(self, tenant: str) -> str:
        with self._lock:
            return self._breaker(tenant).state

    def metrics(self) -> MetricsRegistry:
        """The ``serve_*`` families over this server's event stream, plus
        point-in-time gauges (queue depth, in-flight bytes, breaker
        states).  Call after :meth:`drain` for a conservation-complete
        view."""
        with self._lock:
            reg = metrics_from_events(self.events.events)
            reg.gauge("serve_queue_depth",
                      "jobs waiting in the fair queue").set(len(self._queue))
            reg.gauge("serve_in_flight_bytes",
                      "admitted working-set estimates").set(
                self._in_flight_bytes)
            reg.gauge("serve_memory_budget_bytes",
                      "pool-derived admission budget").set(
                self.memory_budget_bytes)
            state = reg.gauge("serve_breaker_state",
                              "0 closed / 1 half-open / 2 open")
            for tenant, b in sorted(self._breakers.items()):
                state.set(STATE_VALUES[b.state], tenant=tenant)
            return reg

    def stats_summary(self) -> str:
        """One-paragraph text block (the CLI's ``serve`` report)."""
        reg = self.metrics()
        sub = reg.value("serve_jobs_total", outcome="submitted")
        parts = {o: reg.value("serve_jobs_total", outcome=o)
                 for o in ("completed", "rejected", "timed_out", "failed")}
        lat = reg._families.get("serve_latency_seconds")
        wait = reg._families.get("serve_queue_wait_seconds")
        lines = [
            f"serve: {sub:.0f} submitted -> "
            + "  ".join(f"{o} {n:.0f}" for o, n in parts.items()),
            f"  degraded {reg.total('serve_degraded_total'):.0f}  "
            f"retries {reg.total('serve_retries_total'):.0f}  "
            f"coalesced {reg.total('serve_coalesced_total'):.0f}  "
            f"breaker trips "
            f"{reg.total('serve_breaker_transitions_total', state='open'):.0f}",
            f"  budget {self.memory_budget_bytes / (1 << 30):.1f} GiB  "
            f"queue depth {len(self._queue)}",
        ]
        if lat is not None:
            lines.append(
                f"  latency p50 {lat.quantile(0.5) * 1e3:.2f} ms  "
                f"p99 {lat.quantile(0.99) * 1e3:.2f} ms  "
                f"queue-wait p99 "
                f"{(wait.quantile(0.99) if wait else 0.0) * 1e3:.2f} ms")
        return "\n".join(lines)
