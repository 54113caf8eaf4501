"""The plan-cached engine: replay fidelity, eviction, concurrency, wiring.

The engine's contract is sharp enough to test exactly: a cache hit must
produce a *bit-identical* matrix to the cold run while launching zero
setup/count-phase kernels, and its modeled time must drop by at least
the cold run's full symbolic+setup component.  Everything else here
guards the plumbing: LRU eviction under a byte budget, the observability
events (hit/miss/evict satisfy the conservation laws), concurrent
runners over shared caches, and the registry/CLI/apps integration.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.base import RunContext
from repro.engine import PlanCache, SpGEMMEngine, make_key
from repro.errors import AlgorithmError, PlanMismatchError
from repro.gpu.device import P100
from repro.obs import events as E
from repro.obs.metrics import check_conservation
from repro.sparse import generators
from repro.sparse.csr import CSRMatrix

from tests.test_differential import CORPUS


def _phase_kernels(report, *phases) -> int:
    return sum(1 for k in report.kernels if k.phase in phases)


def _kinds(report) -> set:
    return {e.kind for e in report.events}


@pytest.fixture
def A(rng) -> CSRMatrix:
    return generators.banded(300, 10, rng=rng)


class TestReplayFidelity:
    @pytest.mark.parametrize("gen", sorted(CORPUS))
    def test_hit_bit_identical_to_cold(self, gen, rng):
        A = CORPUS[gen](rng)
        cold = repro.multiply(A, A).matrix
        eng = SpGEMMEngine("proposal")
        first = eng.multiply(A, A)
        second = eng.multiply(A, A)
        assert eng.stats().hits == 1 and eng.stats().misses == 1
        for got in (first.matrix, second.matrix):
            assert np.array_equal(got.rpt, cold.rpt)
            assert np.array_equal(got.col, cold.col)
            assert np.array_equal(got.val, cold.val)

    def test_single_precision_replay(self, A):
        eng = SpGEMMEngine("proposal")
        cold = eng.multiply(A, A, precision="single")
        hit = eng.multiply(A, A, precision="single")
        assert hit.matrix.dtype == np.float32
        assert np.array_equal(hit.matrix.val, cold.matrix.val)

    def test_value_change_same_pattern_still_hits(self, A):
        """New values on the same structure must hit and stay correct --
        the iterative-solver shape the cache exists for."""
        eng = SpGEMMEngine("proposal")
        eng.multiply(A, A)
        A2 = CSRMatrix(A.rpt, A.col, A.val * 2.0, A.shape, check=False)
        hit = eng.multiply(A2, A2)
        assert eng.stats().hits == 1
        ref = repro.multiply(A2, A2).matrix
        assert np.array_equal(hit.matrix.val, ref.val)

    def test_precision_and_device_partition_the_key(self, A):
        eng = SpGEMMEngine("proposal")
        eng.multiply(A, A, precision="double")
        eng.multiply(A, A, precision="single")
        assert eng.stats().hits == 0 and eng.stats().misses == 2

    def test_switches_partition_the_key(self, A):
        fast = SpGEMMEngine("proposal")
        slow = SpGEMMEngine("proposal", use_streams=False)
        k1 = make_key(A, A, fast.inner, P100, repro.Precision.DOUBLE)
        k2 = make_key(A, A, slow.inner, P100, repro.Precision.DOUBLE)
        assert k1 != k2 and k1.digest == k2.digest


class TestAcceptance:
    def test_hit_skips_symbolic_phase_entirely(self, A):
        """The PR's acceptance bar: cache_hit event, zero count-phase
        kernels, and the modeled time down by the full symbolic+setup
        component of the cold run."""
        eng = SpGEMMEngine("proposal")
        cold = eng.multiply(A, A).report
        hit = eng.multiply(A, A).report

        assert E.CACHE_MISS in _kinds(cold)
        assert E.CACHE_HIT in _kinds(hit)
        assert hit.numeric_only

        assert _phase_kernels(cold, "setup", "count") > 0
        assert _phase_kernels(hit, "setup", "count") == 0
        assert hit.phase_seconds.get("setup", 0.0) == 0.0
        assert hit.phase_seconds.get("count", 0.0) == 0.0

        symbolic = (cold.phase_seconds.get("setup", 0.0)
                    + cold.phase_seconds.get("count", 0.0))
        assert symbolic > 0.0
        assert hit.total_seconds <= cold.total_seconds - symbolic + 1e-12

        saved = next(e for e in hit.events if e.kind == E.CACHE_HIT)
        assert saved.attrs["saved_seconds"] == pytest.approx(symbolic)

    def test_numeric_only_context_rejects_symbolic_kernels(self, device):
        from repro.core.count_products import pass_over_rows_kernel

        ctx = RunContext("proposal", "x", device, repro.Precision.DOUBLE,
                         numeric_only=True)
        with pytest.raises(AlgorithmError, match="numeric-only"):
            ctx.run("count", [pass_over_rows_kernel("scan", 10, 2.0,
                                                    phase="count")])

    def test_stale_plan_falls_back_to_cold(self, A):
        """A plan failing validation mid-hit is retracted and the multiply
        recovers with a cold run (counted as a miss, not a hit)."""
        eng = SpGEMMEngine("proposal")
        eng.multiply(A, A)
        key = make_key(A, A, eng.inner, P100, repro.Precision.DOUBLE)
        plan = eng.cache.lookup(key)
        assert plan is not None
        eng.cache.stats.hits -= 1          # undo the probe above
        plan.shape = (1, 1)                # corrupt: validation must fail
        result = eng.multiply(A, A)
        assert result.matrix.nnz > 0
        assert eng.stats().hits == 0 and eng.stats().misses == 2
        with pytest.raises(PlanMismatchError):
            plan.validate(A, A)


class TestEviction:
    def _plan_bytes(self, A) -> int:
        probe = SpGEMMEngine("proposal")
        probe.multiply(A, A)
        return probe.cache.bytes_in_use

    def test_lru_eviction_under_tight_budget(self, rng):
        A = generators.banded(300, 10, rng=rng)
        B = generators.random_csr(300, 300, 8, rng=rng)
        budget = self._plan_bytes(A) + self._plan_bytes(B) // 2
        eng = SpGEMMEngine("proposal", cache_budget_bytes=budget)
        eng.multiply(A, A)                       # miss, cached
        rep = eng.multiply(B, B).report          # miss, evicts A's plan
        assert eng.stats().evictions == 1
        assert E.CACHE_EVICT in _kinds(rep)
        assert len(eng.cache) == 1
        eng.multiply(A, A)                       # A was evicted: miss again
        assert eng.stats().hits == 0 and eng.stats().misses == 3

    def test_lru_order_respects_recency(self, rng):
        A = generators.banded(200, 8, rng=rng)
        B = generators.banded(260, 8, rng=rng)
        C = generators.banded(320, 8, rng=rng)
        # holds A+B and (after evicting B) A+C, but not all three
        budget = (self._plan_bytes(A) + self._plan_bytes(C)
                  + self._plan_bytes(B) // 2)
        eng = SpGEMMEngine("proposal", cache_budget_bytes=budget)
        eng.multiply(A, A)
        eng.multiply(B, B)
        eng.multiply(A, A)                       # hit: A becomes most recent
        eng.multiply(C, C)                       # evicts B (least recent)
        kA = make_key(A, A, eng.inner, P100, repro.Precision.DOUBLE)
        kB = make_key(B, B, eng.inner, P100, repro.Precision.DOUBLE)
        assert kA in eng.cache and kB not in eng.cache

    def test_oversized_plan_is_uncacheable_not_stored(self, A):
        eng = SpGEMMEngine("proposal", cache_budget_bytes=16)
        eng.multiply(A, A)
        assert len(eng.cache) == 0
        assert eng.stats().uncacheable == 1
        assert eng.cache.bytes_in_use == 0

    def test_clear_resets_footprint(self, A):
        eng = SpGEMMEngine("proposal")
        eng.multiply(A, A)
        assert eng.cache.bytes_in_use > 0
        eng.cache.clear()
        assert len(eng.cache) == 0 and eng.cache.bytes_in_use == 0


class TestObservability:
    def test_hit_miss_evict_reports_conserve(self, rng):
        A = generators.banded(300, 10, rng=rng)
        B = generators.random_csr(300, 300, 8, rng=rng)
        probe = SpGEMMEngine("proposal")
        probe.multiply(A, A)
        probe.multiply(B, B)
        # fits either plan alone but not both: B's store evicts A's plan
        eng = SpGEMMEngine("proposal",
                           cache_budget_bytes=probe.cache.bytes_in_use - 1)
        reports = [eng.multiply(A, A).report,     # miss
                   eng.multiply(A, A).report,     # hit
                   eng.multiply(B, B).report,     # miss + evict
                   eng.multiply(B, B).report]     # hit
        seen = set()
        for r in reports:
            check_conservation(r)
            seen |= _kinds(r)
        assert {E.CACHE_HIT, E.CACHE_MISS, E.CACHE_EVICT} <= seen

    def test_report_metrics_count_cache_events(self, A):
        eng = SpGEMMEngine("proposal")
        miss = eng.multiply(A, A).report.metrics()
        hit = eng.multiply(A, A).report.metrics()
        assert miss.value("plan_cache_events_total", event="miss") == 1
        assert hit.value("plan_cache_events_total", event="hit") == 1
        assert hit.value("plan_cache_saved_seconds_total") > 0
        assert hit.value("run_info", stat="numeric_only") == 1.0
        # cold reports carry no cache metric families at all (goldens)
        assert "plan_cache_events_total" not in repro.multiply(
            A, A).report.metrics()

    def test_engine_metrics_registry(self, A):
        eng = SpGEMMEngine("proposal")
        eng.multiply(A, A)
        eng.multiply(A, A)
        m = eng.metrics()
        assert m.value("plan_cache_events_total", event="hit") == 1
        assert m.value("plan_cache_events_total", event="miss") == 1
        assert m.value("plan_cache_hit_ratio") == pytest.approx(0.5)
        assert m.value("plan_cache_plans") == 1
        assert m.value("plan_cache_bytes") > 0
        assert "hit-rate 50.0%" in eng.stats_summary()

    def test_trace_exports_carry_cache_events(self, A):
        from repro.obs.export import chrome_trace, trace_summary

        eng = SpGEMMEngine("proposal")
        eng.multiply(A, A)
        report = eng.multiply(A, A).report
        doc = chrome_trace(report)
        instants = [e for e in doc["traceEvents"]
                    if e.get("cat") == E.CACHE_HIT]
        assert instants and all(e["tid"] == 1000 for e in instants)
        text = trace_summary(report)
        assert "[plan_cache]" in text and "cache_hit" in text
        # cold runs keep the pre-engine summary layout byte-compatible
        assert "[plan_cache]" not in trace_summary(
            repro.multiply(A, A).report)


class TestConcurrency:
    def test_threads_survive_concurrent_cache_evictions(self):
        """Eight threads, each holding its own runner as the serving
        layer's workers do, over 400 distinct patterns overflow the
        product cache, the recipe store and the scheduler's phase memo at
        once.  With a tiny switch interval, an unlocked eviction lets two
        threads pop the same key, and the ``KeyError`` escapes a worker."""
        import sys
        import threading

        from repro import perf

        mats = [generators.random_csr(40, 40, 3,
                                      rng=np.random.default_rng(i))
                for i in range(400)]
        perf.clear_fast_caches()
        out: list = [None] * len(mats)
        errors: list = []

        def work(first: int) -> None:
            eng = SpGEMMEngine("proposal")
            try:
                for i in range(first, len(mats), 8):
                    out[i] = eng.multiply(mats[i], mats[i])
            except Exception as e:   # surfaced by the assert below
                errors.append(e)

        workers = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert errors == []
        assert all(isinstance(r.matrix, CSRMatrix) for r in out)
        for m, r in zip(mats[:20], out):
            assert r.matrix.allclose(repro.spgemm_reference(m, m))

    def test_threads_replaying_shared_patterns(self, monkeypatch):
        """Eight threads, each holding its own engine, replay fresh values
        on the same three patterns for a second, and call the recipe
        store's value path between replays, while a recipe budget below
        two indexed recipes keeps evicting, re-running the cold pass,
        indexing and laying out the same keys.  Every value keeps the
        bytes of a one-thread run, and the store's total stays the size
        of what it retains, within its budget; without the store's lock,
        lost size updates or a ``KeyError`` fail it."""
        import sys
        import threading
        import time

        from repro import perf
        from repro.sparse import expansion, product

        monkeypatch.setattr(expansion, "MIN_CLASS_RUNS", 1)   # real layouts
        patterns = [generators.banded(48, 4, rng=np.random.default_rng(i))
                    for i in range(3)]
        rng = np.random.default_rng(5)
        iterates = [CSRMatrix(P.rpt, P.col,
                              P.val * rng.uniform(0.5, 1.5, P.nnz), P.shape,
                              check=False)
                    for P in patterns for _ in range(4)]
        eng = SpGEMMEngine("proposal")
        want = [eng.multiply(M, M).matrix.val.tobytes() for M in iterates]
        perf.clear_fast_caches()
        for P in patterns + patterns:   # the second computation indexes
            product.recipe_values(P, P)
        sizes = [product.recipe_for(P, P).nbytes() for P in patterns]
        perf.clear_fast_caches()
        monkeypatch.setattr(product._recipes, "budget",
                            max(sizes) + min(sizes) // 2)
        start = threading.Barrier(8)
        errors: list = []

        def work(seed: int) -> None:
            mine = SpGEMMEngine("proposal")
            pick = np.random.default_rng(seed)
            start.wait()
            stop = time.perf_counter() + 1.0
            try:
                while time.perf_counter() < stop:
                    i = int(pick.integers(len(iterates)))
                    M = iterates[i]
                    got = [mine.multiply(M, M).matrix.val]
                    # the store's value path alone, as a replay reaches it
                    got += [product.recipe_values(M, M)[1] for _ in range(4)]
                    if any(v.tobytes() != want[i] for v in got):
                        errors.append(f"thread {seed}: iterate {i} differs")
            except Exception as e:   # surfaced by the assert below
                errors.append(repr(e))

        workers = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert errors == []
        retained = [entry[0] for entry in product._recipes._entries.values()]
        assert product._recipes.total == sum(r.nbytes() for r in retained)
        assert (product._recipes.total <= product._recipes.budget
                or len(retained) == 1)


class TestIntegration:
    def test_registry_and_top_level_dispatch(self, A):
        # the engine is a facade field, not a registry algorithm
        assert "engine" not in repro.algorithms()
        eng = repro.runner_for(repro.SpGEMMOptions(engine=True))
        assert isinstance(eng, SpGEMMEngine)
        result = repro.multiply(A, A, engine=True)
        assert result.matrix.canonicalize().allclose(
            repro.multiply(A, A).matrix)

    def test_faulted_runs_bypass_the_cache(self, A):
        from repro.gpu.faults import FaultPlan

        eng = SpGEMMEngine("proposal")
        plan = FaultPlan()
        plan.limit_capacity(factor=1.0)
        eng.multiply(A, A, faults=plan)
        assert eng.stats().lookups == 0 and eng.passthrough_runs == 1

    def test_non_cacheable_inner_passes_through(self, A):
        eng = SpGEMMEngine("cusparse")
        eng.multiply(A, A)
        assert eng.stats().lookups == 0 and eng.passthrough_runs == 1

    def test_apps_share_an_engine(self, rng):
        from repro.apps import galerkin_product
        from repro.apps.amg import aggregate_poisson

        Af = generators.poisson2d(8)
        P = aggregate_poisson(8)
        eng = SpGEMMEngine("proposal")
        Ac1, _ = galerkin_product(Af, P, engine=eng)
        Ac2, _ = galerkin_product(Af, P, engine=eng)
        assert eng.stats().hits == 2 and eng.stats().misses == 2
        assert np.array_equal(Ac1.val, Ac2.val)
        cold, _ = galerkin_product(Af, P)
        assert np.array_equal(Ac1.val, cold.val)

    def test_markov_cluster_defaults_to_engine(self, rng):
        from repro.apps import markov_cluster

        A = generators.random_csr(80, 80, 5, rng=rng)
        res = markov_cluster(A, max_iters=8)
        assert res.engine is not None
        assert res.engine.stats().lookups == res.iterations
        off = markov_cluster(A, max_iters=8, engine=False)
        assert off.engine is None
        assert np.array_equal(res.matrix.val, off.matrix.val)

    def test_cli_repeat_engages_engine(self, capsys):
        from repro.cli import main

        assert main(["multiply", "--generate", "banded:200:8",
                     "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "(cold)" in out and "(replay)" in out
        assert "engine: proposal (plan cache on)" in out
        assert "hit-rate 50.0%" in out

    @pytest.mark.parametrize("inner,flags", [
        ("resilient", ["--resilient"]), ("cusparse", ["--algo", "cusparse"])])
    def test_cli_repeat_says_when_nothing_is_cached(self, capsys, inner,
                                                    flags):
        from repro.cli import main

        assert main(["multiply", "--generate", "banded:400:8", *flags,
                     "--repeat", "3"]) == 0
        out = capsys.readouterr().out
        assert "plan cache on" not in out
        assert (f"engine: {inner} (no plan cache: every run passes "
                f"through)") in out
        assert "lookups 0" in out and "passthrough 3" in out

    def test_cli_no_engine_stays_cold(self, capsys):
        from repro.cli import main

        assert main(["multiply", "--generate", "banded:200:8",
                     "--repeat", "2", "--no-engine"]) == 0
        out = capsys.readouterr().out
        assert "(replay)" not in out and "engine:" not in out


class TestPlanCacheUnit:
    def test_lookup_store_counts(self):
        cache = PlanCache(budget_bytes=1000)

        class FakePlan:
            symbolic_seconds = 0.0

            def __init__(self, n):
                self.n = n

            def device_bytes(self):
                return self.n

        assert cache.lookup("k1") is None
        evs = cache.store("k1", FakePlan(400))
        assert not evs and cache.lookup("k1") is not None
        cache.store("k2", FakePlan(500))
        evs = cache.store("k3", FakePlan(400))   # 1300 > 1000: evict k1
        assert [e.key for e in evs] == ["k1"]
        assert cache.stats.evictions == 1
        assert cache.bytes_in_use == 900
        assert list(cache.keys()) == ["k2", "k3"]
