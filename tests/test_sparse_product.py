"""Tests for the cached functional product, operand fingerprints and
matrix statistics."""

import gc
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import repro
from repro import perf
from repro.sparse import generators, product
from repro.sparse.csr import CSRMatrix
from repro.sparse.expansion import build_sort_recipe
from repro.sparse.product import (clear_cache, compute_product,
                                  pattern_digest, pattern_fingerprint,
                                  product_for, recipe_for, _cache)
from repro.sparse.reference import spgemm_reference
from repro.sparse.stats import compute_stats
from repro.types import Precision


class TestProductCache:
    def setup_method(self):
        clear_cache()

    def test_same_object_hits(self, rng):
        A = generators.banded(60, 5, rng=rng)
        first = compute_product(A, A)
        second = compute_product(A, A)
        assert first is second

    def test_precision_cast_gets_own_entry(self, rng):
        A = generators.banded(60, 5, rng=rng)
        compute_product(A, A)
        n_before = len(_cache)
        As = A.astype("single")            # shares rpt/col, casts values
        compute_product(As, As)
        # value content is part of the key: the cast is its own entry,
        # computed from the cast values (exact per precision)
        assert len(_cache) == n_before + 1

    def test_value_update_on_shared_structure_recomputes(self, rng):
        """An iterate with new values on the same rpt/col arrays must not
        replay the previous iterate's product (the engine's replay path
        depends on the functional layer staying exact)."""
        A = generators.banded(60, 5, rng=rng)
        first = compute_product(A, A)
        A2 = CSRMatrix(A.rpt, A.col, A.val * 2.0, A.shape, check=False)
        second = compute_product(A2, A2)
        assert second is not first
        np.testing.assert_allclose(second.C.val, 4.0 * first.C.val)

    def test_distinct_matrices_do_not_collide(self, rng):
        A = generators.banded(60, 5, rng=rng)
        B = generators.banded(60, 5, rng=np.random.default_rng(99))
        ca = compute_product(A, A)
        cb = compute_product(B, B)
        assert ca is not cb
        assert not np.array_equal(ca.C.val, cb.C.val)

    def test_capacity_bounded(self, rng):
        mats = [generators.random_csr(20, 20, 3, rng=np.random.default_rng(i))
                for i in range(24)]
        for m in mats:
            compute_product(m, m)
        assert len(_cache) <= 16

    def test_product_for_casts_values(self, rng):
        A = generators.banded(40, 4, rng=rng)
        _, C = product_for(A, A, Precision.SINGLE)
        assert C.dtype == np.float32

    def test_row_products_match_stats(self, rng):
        A = generators.banded(40, 4, rng=rng)
        res = compute_product(A, A)
        stats = compute_stats(A, name="x")
        assert res.n_products == stats.n_products
        np.testing.assert_array_equal(res.row_products, stats.row_products)


@pytest.fixture
def builds(monkeypatch):
    """Counts the sort-recipe builds behind the recipe store."""
    calls = []

    def counted(A, B):
        calls.append((A.shape, B.shape))
        return build_sort_recipe(A, B)

    monkeypatch.setattr(product, "build_sort_recipe", counted)
    return calls


@pytest.fixture
def hashes(monkeypatch):
    """Counts the structure and value hashes behind every operand key."""
    calls = {"pattern": 0, "values": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(product, "pattern_digest",
                        counting("pattern", product.pattern_digest))
    monkeypatch.setattr("repro.engine.plan.pattern_digest",
                        product.pattern_digest)
    monkeypatch.setattr(product, "_val_tag",
                        counting("values", product._val_tag))
    return calls


def _fresh(P, rng):
    return CSRMatrix(P.rpt, P.col, P.val * rng.uniform(0.5, 1.5, P.nnz),
                     P.shape, check=False)


class TestRecipeStore:
    """The pattern-keyed LRU of sort recipes, bounded by host bytes."""

    @pytest.fixture(autouse=True)
    def cold_caches(self):
        perf.clear_fast_caches()

    def _mats(self, n):
        return [generators.banded(60 + 10 * i, 5,
                                  rng=np.random.default_rng(i))
                for i in range(n)]

    def test_served_pool_builds_each_panel_recipe_once(self, builds):
        """Plan-cache hits on a 2-device pool replay from retained
        recipes: 9 patterns (18 row panels) cycled with fresh values for
        3 rounds build 18 recipes, not one per panel run."""
        from repro.options import SpGEMMOptions, runner_for

        shapes = (lambda r: generators.banded(300, 8, rng=r),
                  lambda r: generators.power_law(260, 6, 40, rng=r),
                  lambda r: generators.rmat(8, 4, rng=r))
        patterns = [make(np.random.default_rng(10 * d + k))
                    for d in range(3) for k, make in enumerate(shapes)]
        runner = runner_for(SpGEMMOptions(devices=2))
        values = np.random.default_rng(0)
        runs = []
        for _ in range(3):
            for P in patterns:
                M = _fresh(P, values)
                runs.append((M, runner.multiply(M, M).matrix))
        assert len(builds) == 2 * len(patterns)
        for M, got in runs:
            assert got.allclose(spgemm_reference(M, M), rtol=1e-12)

    def test_eviction_is_least_recently_used(self, builds, monkeypatch):
        P1, P2, P3 = self._mats(3)
        sizes = [build_sort_recipe(P, P).nbytes() for P in (P1, P2, P3)]
        # room for P1 and P3, not for all three
        monkeypatch.setattr(product._recipes, "budget",
                            sizes[0] + sizes[2] + sizes[1] // 2)
        for P in (P1, P2, P1, P3):      # P1 touched after P2
            recipe_for(P, P)
        assert len(builds) == 3
        recipe_for(P1, P1)              # survived: most recently used
        assert len(builds) == 3
        recipe_for(P2, P2)              # evicted, although newer than P1
        assert len(builds) == 4

    def test_byte_total_tracks_entries_and_clears(self):
        mats = self._mats(3)
        for P in mats:
            recipe_for(P, P)
        assert product._recipes.total == sum(
            build_sort_recipe(P, P).nbytes() for P in mats)
        perf.clear_fast_caches()
        assert product._recipes.total == 0 and len(product._recipes) == 0

    def test_recipe_over_budget_is_kept_alone(self, builds, monkeypatch):
        P1, P2 = self._mats(2)
        small = build_sort_recipe(P1, P1).nbytes()
        monkeypatch.setattr(product._recipes, "budget", small)
        recipe_for(P1, P1)
        big = recipe_for(P2, P2)        # larger than the whole budget
        assert big.nbytes() > small
        assert len(product._recipes) == 1
        assert product._recipes.total == big.nbytes()
        assert recipe_for(P2, P2) is big and len(builds) == 2

    def test_plan_hit_hashes_neither_pattern_twice_nor_values(
            self, hashes):
        """A replay reads its recipe by the digest the plan key already
        carries, and the key reads the fingerprint memo: a fresh-value
        iterate on the warmed structure hashes neither pattern nor
        values."""
        from repro.engine import SpGEMMEngine

        A = self._mats(1)[0]
        eng = SpGEMMEngine("proposal")
        eng.multiply(A, A)
        hashes.update(pattern=0, values=0)
        A2 = _fresh(A, np.random.default_rng(1))
        hit = eng.multiply(A2, A2)
        assert eng.stats().hits == 1
        assert hashes == {"pattern": 0, "values": 0}
        assert np.array_equal(hit.matrix.val,
                              compute_product(A2, A2).C.val)


class TestFingerprintMemo:
    """One pattern fingerprint per structure, validated by weak references."""

    @pytest.fixture(autouse=True)
    def cold_caches(self):
        perf.clear_fast_caches()

    def _banded(self, seed=0):
        return generators.banded(80, 6, rng=np.random.default_rng(seed))

    def test_equal_structure_in_distinct_arrays_digests_alike(self):
        rpt, col = np.array([0, 2, 3, 5]), np.array([0, 2, 1, 0, 2])
        A = CSRMatrix(rpt, col, np.ones(5), (3, 3))
        B = CSRMatrix(rpt.copy(), col.copy(), np.arange(5.0), (3, 3))
        R = CSRMatrix(np.array([0, 1, 3]), np.array([2, 0, 1]), np.ones(3),
                      (2, 4))
        assert B.rpt is not A.rpt and B.col is not A.col
        # pinned before the memo existed: the digest format is unchanged
        same = "65cf28c100c508504fa6eabe1e9b9d3f"
        assert pattern_digest(A, B) == pattern_digest(A, A) == same
        assert pattern_fingerprint(A, B) == pattern_fingerprint(A, A) == same
        assert pattern_fingerprint(A, R) == "1f70ccc7910a7e3b2834e598cb4ddf4e"
        assert pattern_fingerprint(A) == pattern_digest(A) != same

    def test_fresh_values_on_a_seen_structure_hash_nothing(self, hashes):
        A = self._banded()
        digest = pattern_fingerprint(A, A)
        for seed in range(3):
            M = _fresh(A, np.random.default_rng(seed))
            assert pattern_fingerprint(M, M) == digest
            assert pattern_fingerprint(M.astype("single"), M) == digest
            assert recipe_for(M, M) is recipe_for(A, A)
        assert hashes == {"pattern": 1, "values": 0}

    def test_square_cast_hashes_values_once(self, hashes):
        """``A @ A`` at single precision on a float64 ``A`` casts once:
        one value hash per multiply, not one per operand."""
        A = self._banded()
        assert A.dtype == np.float64
        repro.multiply(A, A, precision="single")
        assert hashes["values"] == 1
        repro.multiply(A, A, precision="single")
        assert hashes["values"] == 2

    def test_warm_tuned_engine_iterates_hash_nothing(self, hashes):
        """A held tuned, plan-cached runner: after set-up, 8 fresh-value
        iterates on one pattern hash neither structure nor values."""
        from repro.options import SpGEMMOptions, runner_for

        A = generators.banded(300, 8, rng=np.random.default_rng(0))
        runner = runner_for(SpGEMMOptions(engine=True, tune=True))
        runner.multiply(A, A)           # the tune search and the cold plan
        hashes.update(pattern=0, values=0)
        values = np.random.default_rng(1)
        runs = []
        for _ in range(8):
            M = _fresh(A, values)
            runs.append((M, runner.multiply(M, M).matrix))
        assert hashes == {"pattern": 0, "values": 0}
        assert runner.inner.stats().hits == 8
        for M, got in runs:
            assert got.allclose(spgemm_reference(M, M), rtol=1e-12)

    def test_memo_keeps_no_operand_alive(self):
        A = self._banded()
        pattern_fingerprint(A, A)
        recipe_for(A, A)
        ref = weakref.ref(A.col)
        del A
        gc.collect()
        assert ref() is None

    def test_reused_ids_never_hit(self):
        """Short-lived operands of changing patterns land on the ids of
        collected ones; every memoized digest still equals a fresh hash."""
        rng = np.random.default_rng(0)
        seen, reused = set(), 0
        for k in range(200):
            M = generators.random_csr(20, 20, 1 + k % 5, rng=rng)
            key = (id(M.rpt), id(M.col))
            reused += key in seen
            seen.add(key)
            assert pattern_fingerprint(M) == pattern_digest(M)
            del M
        assert reused > 0               # the check above was exercised

    def test_writable_structure_is_hashed_every_call(self, hashes):
        """A structure array swapped in after construction bypasses the
        ownership contract, so the memo never trusts it."""
        A = self._banded()
        A.col = A.col.copy()
        pattern_fingerprint(A, A)
        pattern_fingerprint(A, A)
        assert hashes["pattern"] == 2 and len(product._fingerprints) == 0

    def test_clear_fast_caches_empties_the_memo(self):
        A = self._banded()
        pattern_fingerprint(A, A)
        pattern_fingerprint(A)
        assert len(product._fingerprints) == 2
        perf.clear_fast_caches()
        assert len(product._fingerprints) == 0

    def test_concurrent_callers_agree_with_fresh_hashes(self, monkeypatch):
        """More threads than cores, a 1 us switch interval and a memo
        small enough to evict all the time: every memoized digest equals
        a fresh :func:`pattern_digest`, and every thread finishes."""
        monkeypatch.setattr(product._fingerprints, "budget", 4)
        pool = [generators.random_csr(30, 30, 1 + k % 4,
                                      rng=np.random.default_rng(k))
                for k in range(12)]
        expected = {(i, j): pattern_digest(pool[i], pool[j])
                    for i in range(12) for j in range(12)}
        errors: list[str] = []
        stop = time.perf_counter() + 0.5

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                while time.perf_counter() < stop:
                    for i, j in rng.integers(12, size=(64, 2)).tolist():
                        got = pattern_fingerprint(pool[i], pool[j])
                        if got != expected[i, j]:
                            errors.append(f"mismatch in thread {seed}")
                    M = generators.random_csr(30, 30, 2, rng=rng)
                    if pattern_fingerprint(M) != pattern_digest(M):
                        errors.append(f"fresh mismatch in thread {seed}")
            except Exception as e:      # surfaced by the assert below
                errors.append(repr(e))

        threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                   for i in range((os.cpu_count() or 1) + 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # a lost update on the memo's bookkeeping would break this
        assert product._fingerprints.total == len(product._fingerprints) <= 4


class TestStats:
    def test_table2_style_fields(self, rng):
        A = generators.stencil_regular(100, 4, rng=rng)
        s = compute_stats(A, name="stencil")
        assert s.rows == 100
        assert s.nnz == 400
        assert s.nnz_per_row_mean == 4.0
        assert s.nnz_per_row_max == 4
        assert s.n_products == 1600
        assert s.nnz_out == int(s.row_nnz_out.sum())
        assert s.compression_ratio >= 1.0
        assert s.flops == 2 * s.n_products

    def test_table_rendering(self, rng):
        A = generators.banded(50, 4, rng=rng)
        s = compute_stats(A, name="b")
        header = type(s).table_header()
        row = s.table_row()
        assert "Nnz/row" in header
        assert "b" in row
