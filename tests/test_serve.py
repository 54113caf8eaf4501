"""Serving-layer tests: policy/queue/breaker units, server behaviors,
and the deterministic chaos harness (marked ``serve``).

The chaos harness pins the acceptance contract of ``repro.serve``:
under a FaultPlan-injected fault storm, every admitted job either
completes bit-identically to a direct ``repro.multiply`` or fails with
a typed serve error -- no hangs, no silent drops, no untyped
exceptions -- and the conservation law ``submitted == completed +
rejected + timed_out + failed`` holds exactly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.errors import (CircuitOpenError, JobTimeoutError,
                          ServerOverloadedError)
from repro.gpu.faults import FaultPlan
from repro.obs import events as OBS
from repro.obs.export import serve_events_jsonl
from repro.obs.metrics import check_serve_conservation, metrics_from_events
from repro.options import SpGEMMOptions, multiply
from repro.serve import (BreakerPolicy, CircuitBreaker, RetryPolicy,
                         ServePolicy, SpGEMMServer, WeightedFairQueue,
                         estimate_job_bytes)
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN
from repro.sparse import generators as G

NO_SLEEP = dict(sleep=lambda s: None)

#: Terminal typed errors a served job may fail with.
TYPED = (JobTimeoutError, ServerOverloadedError, CircuitOpenError,
         repro.ReproError)


def mats(seed=5, n=90, nnz=6):
    rng = np.random.default_rng(seed)
    return G.random_csr(n, n, nnz, rng=rng)


def assert_same(result, reference):
    assert np.array_equal(result.matrix.rpt, reference.matrix.rpt)
    assert np.array_equal(result.matrix.col, reference.matrix.col)
    assert np.array_equal(result.matrix.val, reference.matrix.val)


# ---------------------------------------------------------------------------
# units: fair queue, retry policy, circuit breaker, cost model


class TestWeightedFairQueue:
    def test_fifo_within_tenant(self):
        q = WeightedFairQueue(capacity=8)
        for i in range(4):
            q.push(i, tenant="t")
        assert [q.pop() for _ in range(4)] == [0, 1, 2, 3]

    def test_weighted_interleave(self):
        # equal costs: a weight-2 tenant gets ~2 slots per 1 of weight-1
        q = WeightedFairQueue(capacity=16)
        q.set_weight("heavy", 2.0)
        for i in range(6):
            q.push(("heavy", i), tenant="heavy")
        for i in range(3):
            q.push(("light", i), tenant="light")
        order = [q.pop()[0] for _ in range(9)]
        # in any 3-long prefix window the light tenant appears at least once
        # after its first service opportunity
        assert order.count("heavy") == 6 and order.count("light") == 3
        first_light = order.index("light")
        assert first_light <= 2

    def test_flooder_cannot_starve(self):
        q = WeightedFairQueue(capacity=64)
        for i in range(30):
            q.push(("flood", i), tenant="flood", cost=10.0)
        q.push(("small", 0), tenant="small", cost=10.0)
        # the late small-tenant job overtakes most of the backlog
        drained = [q.pop() for _ in range(3)]
        assert ("small", 0) in drained

    def test_bounded(self):
        q = WeightedFairQueue(capacity=2)
        q.push(1, tenant="t")
        q.push(2, tenant="t")
        assert q.full
        with pytest.raises(OverflowError):
            q.push(3, tenant="t")

    def test_remove_and_iter(self):
        q = WeightedFairQueue(capacity=8)
        items = [object() for _ in range(3)]
        for it in items:
            q.push(it, tenant="t")
        assert list(q) == items
        assert q.remove(items[1])
        assert not q.remove(items[1])
        assert list(q) == [items[0], items[2]]


class TestRetryPolicy:
    def test_deterministic_and_capped(self):
        p = RetryPolicy(backoff_base_s=0.01, backoff_cap_s=0.02, jitter=0.5)
        a = p.backoff_seconds(7, 1)
        assert a == p.backoff_seconds(7, 1)          # replayable
        assert a != p.backoff_seconds(7, 2)          # de-synchronized
        assert a != p.backoff_seconds(8, 1)
        for job in range(20):
            for attempt in range(1, 6):
                b = p.backoff_seconds(job, attempt)
                assert 0.01 <= b <= 0.02 * 1.5


class TestCircuitBreaker:
    def test_trip_cooldown_probe_cycle(self):
        b = CircuitBreaker(BreakerPolicy(failure_threshold=2, cooldown_s=10.0,
                                         half_open_probes=1))
        assert b.allow(0.0) and b.state == CLOSED
        b.record_failure(1.0)
        assert b.state == CLOSED
        b.record_failure(2.0)
        assert b.state == OPEN
        assert not b.allow(5.0)
        assert b.retry_after(5.0) == pytest.approx(7.0)
        # cooldown elapsed: one probe admitted, a second denied
        assert b.allow(13.0) and b.state == HALF_OPEN
        assert not b.allow(13.0)
        b.record_success(14.0)
        assert b.state == CLOSED and b.consecutive_failures == 0

    def test_probe_failure_reopens(self):
        b = CircuitBreaker(BreakerPolicy(failure_threshold=1, cooldown_s=5.0))
        b.record_failure(0.0)
        assert b.state == OPEN
        assert b.allow(6.0) and b.state == HALF_OPEN
        b.record_failure(7.0)
        assert b.state == OPEN
        assert not b.allow(11.0)      # new cooldown counts from the re-open
        assert b.allow(12.5)
        assert b.transitions == [(CLOSED, OPEN), (OPEN, HALF_OPEN),
                                 (HALF_OPEN, OPEN), (OPEN, HALF_OPEN)]


class TestEstimate:
    def test_positive_and_monotone_in_size(self):
        small, big = mats(n=40, nnz=4), mats(n=400, nnz=10)
        e_small = estimate_job_bytes(small, small, "double")
        e_big = estimate_job_bytes(big, big, "double")
        assert 0 < e_small < e_big

    def test_single_below_double(self):
        A = mats()
        assert estimate_job_bytes(A, A, "single") \
            < estimate_job_bytes(A, A, "double")


# ---------------------------------------------------------------------------
# server behaviors


class TestServerBasics:
    def test_bit_identical_multi_tenant(self):
        A = mats()
        ref = multiply(A, A)
        with SpGEMMServer(n_workers=2, **NO_SLEEP) as srv:
            jobs = [srv.submit(A, A, tenant=t)
                    for t in ("a", "b", "a", "c", "b")]
            srv.drain()
            for j in jobs:
                assert_same(j.result(timeout=5), ref)
                assert j.outcome == "completed"
        check_serve_conservation(srv.metrics())

    def test_coalescing_shares_one_run(self):
        A = mats()
        with SpGEMMServer(n_workers=1, **NO_SLEEP) as srv:
            jobs = [srv.submit(A, A, tenant="t") for _ in range(4)]
            srv.drain()
        leaders = [j for j in jobs if j.coalesced_with is None]
        followers = [j for j in jobs if j.coalesced_with is not None]
        assert followers and len(leaders) + len(followers) == 4
        for f in followers:
            assert_same(f.result(), jobs[0].result())
        reg = srv.metrics()
        assert reg.total("serve_coalesced_total") == len(followers)
        check_serve_conservation(reg)

    def test_distinct_values_do_not_coalesce(self):
        A, B = mats(seed=1), mats(seed=2)
        with SpGEMMServer(n_workers=1, **NO_SLEEP) as srv:
            j1 = srv.submit(A, A, tenant="t")
            j2 = srv.submit(B, B, tenant="t")
            srv.drain()
        assert j2.coalesced_with is None
        assert_same(j1.result(), multiply(A, A))
        assert_same(j2.result(), multiply(B, B))

    def test_queue_full_rejects_typed(self):
        A = mats(n=40, nnz=4)
        policy = ServePolicy(max_queue_depth=1, coalesce=False)
        # a paused clock keeps nothing dispatching? no -- workers run on
        # the condition variable; instead saturate a 1-deep queue fast
        srv = SpGEMMServer(n_workers=1, policy=policy, **NO_SLEEP)
        try:
            rejected = 0
            jobs = []
            for _ in range(20):
                try:
                    jobs.append(srv.submit(A, A, tenant="t"))
                except ServerOverloadedError as e:
                    assert e.tenant == "t"
                    rejected += 1
            srv.drain()
        finally:
            srv.shutdown()
        reg = srv.metrics()
        assert reg.value("serve_jobs_total", outcome="rejected") == rejected
        check_serve_conservation(reg)

    def test_submit_after_shutdown_is_typed(self):
        A = mats(n=30, nnz=3)
        srv = SpGEMMServer(n_workers=1, **NO_SLEEP)
        srv.shutdown()
        with pytest.raises(ServerOverloadedError):
            srv.submit(A, A, tenant="t")
        check_serve_conservation(srv.metrics())

    def test_shutdown_nowait_sheds_backlog_typed(self):
        A = mats(n=200, nnz=8)
        policy = ServePolicy(coalesce=False)
        srv = SpGEMMServer(n_workers=1, policy=policy, **NO_SLEEP)
        jobs = [srv.submit(A, A, tenant="t", matrix_name=f"m{i}")
                for i in range(8)]
        srv.shutdown(wait=False)
        for j in jobs:
            assert j.done()
            err = j.exception()
            assert err is None or isinstance(err, ServerOverloadedError)
        check_serve_conservation(srv.metrics())


class TestDeadlines:
    def test_zero_deadline_times_out_typed(self):
        A = mats(n=40, nnz=4)
        with SpGEMMServer(n_workers=1, **NO_SLEEP) as srv:
            j = srv.submit(A, A, tenant="t", deadline_s=0.0)
            srv.drain()
        with pytest.raises(JobTimeoutError) as ei:
            j.result()
        assert ei.value.tenant == "t"
        assert j.outcome == "timed_out"
        reg = srv.metrics()
        assert reg.value("serve_jobs_total", outcome="timed_out") == 1
        check_serve_conservation(reg)

    def test_default_deadline_from_policy(self):
        A = mats(n=40, nnz=4)
        policy = ServePolicy(default_deadline_s=0.0)
        with SpGEMMServer(n_workers=1, policy=policy, **NO_SLEEP) as srv:
            j = srv.submit(A, A, tenant="t")
            srv.drain()
        assert isinstance(j.exception(), JobTimeoutError)


class TestRetryAndDegrade:
    def test_transient_oom_retried_to_success(self):
        A = mats()
        ref = multiply(A, A)
        with SpGEMMServer(n_workers=1, **NO_SLEEP) as srv:
            j = srv.submit(A, A, tenant="t",
                           faults=FaultPlan().fail_alloc(index=0))
            srv.drain()
        assert_same(j.result(), ref)
        assert j.attempts >= 2 and not j.degraded
        reg = srv.metrics()
        assert reg.total("serve_retries_total") >= 1
        check_serve_conservation(reg)

    def test_over_budget_degrades_bit_identical(self):
        A = mats(n=300, nnz=10)
        ref = multiply(A, A)
        policy = ServePolicy(memory_budget_bytes=1 << 20)   # 1 MiB budget
        with SpGEMMServer(n_workers=1, policy=policy, **NO_SLEEP) as srv:
            assert estimate_job_bytes(A, A, "double") \
                > srv.usable_budget_bytes
            j = srv.submit(A, A, tenant="t")
            srv.drain()
        assert j.degraded and j.degrade_reason == "over_budget"
        assert_same(j.result(), ref)
        reg = srv.metrics()
        assert reg.total("serve_degraded_total", reason="over_budget") == 1
        check_serve_conservation(reg)

    def test_queue_pressure_degrades(self):
        A = [mats(seed=s, n=220, nnz=8) for s in range(6)]
        policy = ServePolicy(degrade_queue_depth=1, coalesce=False)
        with SpGEMMServer(n_workers=1, policy=policy, **NO_SLEEP) as srv:
            jobs = [srv.submit(m, m, tenant="t") for m in A]
            srv.drain()
            for m, j in zip(A, jobs):
                assert_same(j.result(), multiply(m, m))
        reg = srv.metrics()
        assert reg.total("serve_degraded_total", reason="queue_pressure") >= 1
        check_serve_conservation(reg)

    def test_retry_exhausted_falls_to_ladder(self):
        A = mats()
        ref = multiply(A, A)
        # the symbolic grouping allocation fails 4 times: both plain
        # retries die, the ladder's chunked rungs then get a clean device
        fp = FaultPlan().fail_alloc(name="group_rows_symbolic", times=4)
        policy = ServePolicy(retry=RetryPolicy(max_retries=1,
                                               backoff_base_s=0.0))
        with SpGEMMServer(n_workers=1, policy=policy, **NO_SLEEP) as srv:
            j = srv.submit(A, A, tenant="t", faults=fp)
            srv.drain()
        assert_same(j.result(), ref)
        assert j.degraded and j.degrade_reason == "retry_exhausted"
        check_serve_conservation(srv.metrics())


class TestBreakerIntegration:
    def test_failing_tenant_trips_breaker_and_recovers(self):
        A = mats(n=40, nnz=4)
        clock = [0.0]
        policy = ServePolicy(
            retry=RetryPolicy(max_retries=0, backoff_base_s=0.0),
            breaker=BreakerPolicy(failure_threshold=2, cooldown_s=50.0))
        srv = SpGEMMServer(n_workers=1, policy=policy,
                           clock=lambda: clock[0], **NO_SLEEP)
        try:
            # persistent OOM on every allocation: the whole ladder fails
            for _ in range(2):
                j = srv.submit(A, A, tenant="bad",
                               faults=FaultPlan().fail_alloc(name=".*",
                                                             times=None))
                srv.drain()
                assert isinstance(j.exception(), repro.ReproError)
            assert srv.breaker_state("bad") == OPEN
            with pytest.raises(CircuitOpenError) as ei:
                srv.submit(A, A, tenant="bad")
            assert ei.value.retry_after_s > 0
            # other tenants are unaffected
            ok = srv.submit(A, A, tenant="good")
            srv.drain()
            assert ok.outcome == "completed"
            # cooldown passes on the injected clock; the probe heals it
            clock[0] += 60.0
            probe = srv.submit(A, A, tenant="bad")
            srv.drain()
            assert probe.outcome == "completed"
            assert srv.breaker_state("bad") == CLOSED
        finally:
            srv.shutdown()
        reg = srv.metrics()
        assert reg.total("serve_breaker_transitions_total", state="open") == 1
        check_serve_conservation(reg)


class TestObservability:
    def test_event_kinds_and_jsonl_export(self):
        A = mats(n=40, nnz=4)
        with SpGEMMServer(n_workers=1, **NO_SLEEP) as srv:
            srv.submit(A, A, tenant="t")
            srv.submit(A, A, tenant="t")
            srv.drain()
        kinds = {e.kind for e in srv.events.events}
        assert kinds <= set(OBS.SERVE_KINDS)
        assert OBS.SERVE_SUBMIT in kinds and OBS.SERVE_DONE in kinds
        ts = [e.ts for e in srv.events.events]
        assert ts == sorted(ts)
        lines = serve_events_jsonl(srv.events.events).splitlines()
        assert len(lines) == len(srv.events.events)
        first = json.loads(lines[0])
        assert first["kind"] == OBS.SERVE_SUBMIT and "ts" in first

    def test_latency_quantiles_present(self):
        A = mats(n=60, nnz=5)
        with SpGEMMServer(n_workers=2, **NO_SLEEP) as srv:
            for i in range(5):
                srv.submit(A, A, tenant="t", matrix_name=f"m{i}")
            srv.drain()
        reg = srv.metrics()
        lat = reg._families["serve_latency_seconds"]
        assert lat.quantile(0.5) <= lat.quantile(0.99)
        assert reg.value("serve_breaker_state", tenant="t") == 0.0
        summary = srv.stats_summary()
        assert "p99" in summary and "submitted" in summary


# ---------------------------------------------------------------------------
# the chaos harness


def run_chaos(seed: int, *, devices=None, oom_rate=0.15, n_jobs=24,
              deadline_every=6):
    """One deterministic fault storm through the server; returns
    (server, jobs, references)."""
    matrices = {f"m{k}": mats(seed=40 + k, n=120 + 40 * k, nnz=6)
                for k in range(3)}
    refs = {name: multiply(m, m) for name, m in matrices.items()}
    storm = FaultPlan(seed=seed).random_alloc_failures(oom_rate)
    policy = ServePolicy(
        max_queue_depth=16,
        retry=RetryPolicy(max_retries=1, backoff_base_s=0.0),
        breaker=BreakerPolicy(failure_threshold=100))
    options = SpGEMMOptions(devices=devices)
    srv = SpGEMMServer(options=options, n_workers=3, policy=policy,
                       faults=storm, **NO_SLEEP)
    jobs = []
    names = sorted(matrices)
    for i in range(n_jobs):
        name = names[i % len(names)]
        tenant = f"tenant{i % 3}"
        deadline = 30.0 if i % deadline_every else None
        try:
            jobs.append((name, srv.submit(matrices[name], matrices[name],
                                          tenant=tenant, deadline_s=deadline,
                                          matrix_name=name)))
        except ServerOverloadedError:
            pass                      # shed load is a typed, counted outcome
    assert srv.drain(timeout=120.0), "chaos run hung"
    srv.shutdown()
    return srv, jobs, refs


@pytest.mark.serve
@pytest.mark.faults
class TestChaosHarness:
    @pytest.mark.parametrize("seed", [3, 17])
    def test_storm_single_device(self, seed):
        srv, jobs, refs = run_chaos(seed)
        completed = failed = 0
        for name, j in jobs:
            assert j.done(), "no silent drops"
            err = j.exception()
            if err is None:
                assert_same(j.result(), refs[name])   # bit-identical
                completed += 1
            else:
                assert isinstance(err, TYPED), f"untyped failure: {err!r}"
                failed += 1
        assert completed > 0
        reg = srv.metrics()
        check_serve_conservation(reg)
        assert reg.value("serve_jobs_total", outcome="completed") \
            >= completed   # coalesced followers add to the event count

    def test_storm_device_pool_with_losses(self):
        # an OOM storm plus a dying pool device plus transient comm faults
        matrices = {f"m{k}": mats(seed=60 + k, n=150, nnz=6)
                    for k in range(2)}
        refs = {n: multiply(m, m) for n, m in matrices.items()}
        storm = (FaultPlan(seed=5)
                 .random_alloc_failures(0.05)
                 .fail_device("dev2", times=1)
                 .fail_comm("dev1", times=1))
        policy = ServePolicy(retry=RetryPolicy(max_retries=1,
                                               backoff_base_s=0.0),
                             breaker=BreakerPolicy(failure_threshold=100))
        srv = SpGEMMServer(options=SpGEMMOptions(devices=3), n_workers=2,
                           policy=policy, faults=storm, **NO_SLEEP)
        jobs = [(n, srv.submit(m, m, tenant="t", matrix_name=n))
                for n, m in sorted(matrices.items()) for _ in range(4)]
        assert srv.drain(timeout=120.0), "pool chaos run hung"
        srv.shutdown()
        for n, j in jobs:
            assert j.done()
            err = j.exception()
            if err is None:
                assert_same(j.result(), refs[n])
            else:
                assert isinstance(err, TYPED)
        check_serve_conservation(srv.metrics())

    def test_storm_replay_is_deterministic(self):
        # same seed, one worker: outcome multiset and event kinds repeat
        def outcomes(seed):
            matrices = [mats(seed=80, n=100, nnz=5)]
            storm = FaultPlan(seed=seed).random_alloc_failures(0.2)
            policy = ServePolicy(coalesce=False,
                                 retry=RetryPolicy(max_retries=1,
                                                   backoff_base_s=0.0),
                                 breaker=BreakerPolicy(failure_threshold=100))
            srv = SpGEMMServer(n_workers=1, policy=policy, faults=storm,
                               **NO_SLEEP)
            jobs = [srv.submit(matrices[0], matrices[0], tenant="t",
                               matrix_name=f"j{i}") for i in range(8)]
            assert srv.drain(timeout=60.0)
            srv.shutdown()
            check_serve_conservation(srv.metrics())
            return [j.outcome for j in jobs]

        assert outcomes(9) == outcomes(9)


class TestMetricsFromEvents:
    def test_conservation_violation_raises(self):
        from repro.obs.events import EventBus

        bus = EventBus()
        bus.emit(OBS.SERVE_SUBMIT, "t", 0.0, job=1)
        reg = metrics_from_events(bus.events)
        with pytest.raises(AssertionError, match="conservation"):
            check_serve_conservation(reg)
        bus.emit(OBS.SERVE_DONE, "t", 1.0, job=1, outcome="completed",
                 latency_s=1.0, modeled_seconds=0.5)
        check_serve_conservation(metrics_from_events(bus.events))
