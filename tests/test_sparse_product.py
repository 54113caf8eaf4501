"""Tests for the cached functional product, operand fingerprints and
matrix statistics."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

import repro
from repro import perf
from repro.sparse import expansion, generators, product
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
        assert product_for(A, A, Precision.SINGLE).C.dtype == np.float32

    def test_row_products_match_stats(self, rng):
        A = generators.banded(40, 4, rng=rng)
        res = compute_product(A, A)
        stats = compute_stats(A, name="x")
        assert res.n_products == stats.n_products
        np.testing.assert_array_equal(res.row_products, stats.row_products)

    def test_concurrent_callers_agree_with_fresh_products(self, monkeypatch):
        """Every serving worker shares the product cache.  Eight threads
        make 3000 calls each over 12 operands into a 4-entry cache under
        a 1 us switch interval, so puts keep evicting while other
        threads read.  Without the cache's lock two threads pop the same
        LRU entry (a ``KeyError``) or lose a size update; with it every
        product equals one computed alone and the cache's size stays its
        entry count."""
        pool = [generators.random_csr(30, 30, 1 + k % 4,
                                      rng=np.random.default_rng(k))
                for k in range(12)]
        expected = [compute_product(M, M).C for M in pool]
        picks = [np.random.default_rng(seed).integers(12, size=3000).tolist()
                 for seed in range(8)]
        cache = perf.LRUCache(4)
        monkeypatch.setattr(product, "_cache", cache)
        start = threading.Barrier(8)
        errors: list[str] = []

        def worker(seed: int) -> None:
            start.wait()
            try:
                for i in picks[seed]:
                    C = compute_product(pool[i], pool[i]).C
                    if not (np.array_equal(C.col, expected[i].col)
                            and np.array_equal(C.val, expected[i].val)):
                        errors.append(f"thread {seed}: product {i} differs")
            except Exception as e:      # surfaced by the assert below
                errors.append(repr(e))

        threads = [threading.Thread(target=worker, args=(k,), daemon=True)
                   for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # a lost update on the cache's bookkeeping would break this
        assert len(cache) <= 4 and cache.total == len(cache)


def _counted(monkeypatch, name):
    """Replace ``product.<name>`` with a wrapper that logs each call;
    returns the log."""
    calls = []
    real = getattr(product, name)

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(product, name, counted)
    return calls


@pytest.fixture
def builds(monkeypatch):
    """Counts the cold passes (sort + sums) behind the recipe store."""
    return _counted(monkeypatch, "build_sort_recipe")


@pytest.fixture
def indexes(monkeypatch):
    """Counts the index builds (a second sort) behind the recipe store."""
    return _counted(monkeypatch, "index_sort_recipe")


@pytest.fixture
def layouts(monkeypatch):
    """Counts the recipe store's layouts for replay."""
    return _counted(monkeypatch, "lay_out_for_replay")


@pytest.fixture
def replays(monkeypatch):
    """Counts the value computations along a stored recipe."""
    return _counted(monkeypatch, "values_from_recipe")


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

    def test_served_pool_builds_each_panel_recipe_once(self, builds,
                                                       indexes, layouts):
        """Plan-cache hits on a 2-device pool replay from retained
        recipes: 9 patterns (18 row panels) cycled with fresh values for
        3 rounds run the cold pass once per panel pattern and index and
        lay out each panel once, on its first replay."""
        from repro.options import SpGEMMOptions, runner_for

        shapes = (lambda r: generators.banded(300, 8, rng=r),
                  lambda r: generators.power_law(260, 6, 40, rng=r),
                  lambda r: generators.rmat(8, 4, rng=r))
        patterns = [make(np.random.default_rng(10 * d + k))
                    for d in range(3) for k, make in enumerate(shapes)]
        runner = runner_for(SpGEMMOptions(devices=2))
        values = np.random.default_rng(0)
        runs = []
        for round_ in range(3):
            for P in patterns:
                M = _fresh(P, values)
                runs.append((M, runner.multiply(M, M).matrix))
            assert len(builds) == 2 * len(patterns), f"round {round_}"
            assert len(indexes) == len(layouts) == (
                0 if round_ == 0 else 2 * len(patterns)), f"round {round_}"
        for M, got in runs:
            assert got.allclose(spgemm_reference(M, M), rtol=1e-12)

    def test_eviction_is_least_recently_used(self, builds, monkeypatch):
        P1, P2, P3 = self._mats(3)
        sizes = [build_sort_recipe(P, P)[0].nbytes() for P in (P1, P2, P3)]
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
            build_sort_recipe(P, P)[0].nbytes() for P in mats)
        perf.clear_fast_caches()
        assert product._recipes.total == 0 and len(product._recipes) == 0

    def test_recipe_over_budget_is_kept_alone(self, builds, monkeypatch):
        P1, P2 = self._mats(2)
        small = build_sort_recipe(P1, P1)[0].nbytes()
        monkeypatch.setattr(product._recipes, "budget", small)
        recipe_for(P1, P1)
        big = recipe_for(P2, P2)        # larger than the whole budget
        assert big.nbytes() > small
        assert len(product._recipes) == 1
        assert product._recipes.total == big.nbytes()
        assert recipe_for(P2, P2) is big and len(builds) == 2

    def test_cold_entry_holds_the_output_structure_alone(self):
        """A pattern seen once keeps no per-product array: its entry's
        bytes are the output ``rpt``/``col`` and the row counts."""
        A = self._mats(1)[0]
        C = compute_product(A, A).C
        cold = recipe_for(A, A)
        assert cold.a_idx is cold.b_idx is cold.starts is None
        assert cold.run_order is None and cold.blocks == ()
        assert cold.rpt is C.rpt and cold.col is C.col
        assert cold.nbytes() == (cold.rpt.nbytes + cold.col.nbytes
                                 + cold.row_counts.nbytes)
        assert product._recipes.total == cold.nbytes()

    def test_cold_multiplies_lay_out_nothing(self, builds, indexes, layouts,
                                             replays):
        """The four paper algorithms squaring one matrix, as a figure pass
        does: one cold pass, and no index build, layout or replay."""
        A = self._mats(1)[0]
        for algo in ("proposal", "cusparse", "cusp", "bhsparse"):
            repro.multiply(A, A, algorithm=algo, precision="single")
        assert len(builds) == 1
        assert indexes == [] and layouts == [] and replays == []

    def test_second_value_computation_indexes_once(self, builds, indexes,
                                                   layouts, replays):
        """Fresh values on one pattern: the first computation is the cold
        pass; the second indexes the recipe, lays it out, swaps it in and
        replays it; later ones only replay.  Every value keeps the bytes
        of the expansion + contraction."""
        A = self._mats(1)[0]
        values = np.random.default_rng(0)
        counts = []
        for _ in range(4):
            M = _fresh(A, values)
            got = compute_product(M, M).C.val
            assert got.tobytes() == spgemm_reference(M, M).val.tobytes()
            counts.append((len(builds), len(indexes), len(layouts),
                           len(replays)))
        assert counts == [(1, 0, 0, 0), (1, 1, 1, 1), (1, 1, 1, 2),
                          (1, 1, 1, 3)]
        laid = recipe_for(A, A)
        assert laid.a_idx is not None and laid.starts is not None
        assert product._recipes.total == laid.nbytes()

    def test_tuned_cold_multiply_lays_out_nothing(self, builds, indexes,
                                                  layouts, replays):
        """The tuner's sketch reads the store before any values exist: its
        miss runs the cold pass through the full-result cache, which the
        tuned multiply then hits.  One sort, no index build, no layout
        and no replay."""
        from repro.options import SpGEMMOptions, runner_for

        A = self._mats(1)[0]
        got = runner_for(SpGEMMOptions(tune=True)).multiply(A, A).matrix
        assert len(builds) == 1
        assert indexes == [] and layouts == [] and replays == []
        assert got.val.tobytes() == spgemm_reference(A, A).val.tobytes()

    def test_plan_cached_iterates_lay_out_once(self, builds, indexes,
                                               layouts, replays):
        """Eight fresh-value iterates through a held plan-cached runner:
        the first replay indexes the recipe, lays it out and swaps it in,
        the rest only replay, and every value keeps its bytes."""
        from repro.options import SpGEMMOptions, runner_for

        A = generators.banded(400, 10, rng=np.random.default_rng(0))
        runner = runner_for(SpGEMMOptions(engine=True, tune=True))
        first = runner.multiply(A, A).matrix
        cold = recipe_for(A, A)
        assert len(builds) == 1 and cold.a_idx is None
        assert indexes == [] and layouts == [] and replays == []
        values = np.random.default_rng(1)
        for k in range(8):
            M = _fresh(A, values)
            got = runner.multiply(M, M).matrix
            assert got.val.tobytes() == spgemm_reference(M, M).val.tobytes()
            assert (len(builds), len(indexes), len(layouts),
                    len(replays)) == (1, 1, 1, k + 1), f"iterate {k}"
        laid = recipe_for(A, A)
        assert runner.inner.stats().hits == 8
        assert laid.blocks
        # the swap keeps the output structure: no rebuild, the same
        # rpt/col arrays the cold run's matrix (and its plan) hold
        assert laid.rpt is cold.rpt is first.rpt
        assert laid.col is cold.col is first.col
        assert product._recipes.total == laid.nbytes()
        assert len(product._recipes) == 1

    def test_byte_total_follows_the_swaps(self, indexes, layouts,
                                          monkeypatch):
        """Laid-out recipes replace cold ones under the same keys: the
        store's total stays the sum of what it retains."""
        monkeypatch.setattr(expansion, "MIN_CLASS_RUNS", 1)
        mats = self._mats(3)
        values = np.random.default_rng(0)
        for P in mats + mats:
            compute_product(_fresh(P, values), P)
        assert len(indexes) == len(layouts) == 3
        retained = [recipe_for(P, P) for P in mats]
        assert all(r.blocks for r in retained)
        assert product._recipes.total == sum(r.nbytes() for r in retained)

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
        # the store's miss runs the cold pass, whose product is cached
        # under A's value tag: that hash is the structure's first sight
        recipe = recipe_for(A, A)
        hashes.update(values=0)
        digest = pattern_fingerprint(A, A)
        for seed in range(3):
            M = _fresh(A, np.random.default_rng(seed))
            assert pattern_fingerprint(M, M) == digest
            assert pattern_fingerprint(M.astype("single"), M) == digest
            assert recipe_for(M, M) is recipe_for(A, A) is recipe
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
        # the store's miss cached the product under its operand key:
        # the memo, the store and the product cache hold no operand
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
        """Eight threads make 10000 calls each over 12 structures into a
        4-entry memo under a 1 us switch interval, so puts keep evicting
        while other threads read.  Without the memo's lock two threads
        pop the same LRU entry (a ``KeyError``) or lose a size update;
        with it every digest equals a fresh :func:`pattern_digest` and
        the memo's size stays its entry count."""
        pool = [generators.random_csr(30, 30, 1 + k % 4,
                                      rng=np.random.default_rng(k))
                for k in range(12)]
        expected = [pattern_digest(M) for M in pool]
        picks = [np.random.default_rng(seed).integers(12, size=10000).tolist()
                 for seed in range(8)]
        memo = perf.LRUCache(4)
        monkeypatch.setattr(product, "_fingerprints", memo)
        start = threading.Barrier(8)
        errors: list[str] = []

        def worker(seed: int) -> None:
            start.wait()
            try:
                for i in picks[seed]:
                    if pattern_fingerprint(pool[i]) != expected[i]:
                        errors.append(f"thread {seed}: structure {i} differs")
            except Exception as e:      # surfaced by the assert below
                errors.append(repr(e))

        threads = [threading.Thread(target=worker, args=(k,), daemon=True)
                   for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # a lost update on the memo's bookkeeping would break this
        assert len(memo) <= 4 and memo.total == len(memo)


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
        assert s.flops == 2 * s.n_products

    def test_table_rendering(self, rng):
        A = generators.banded(50, 4, rng=rng)
        s = compute_stats(A, name="b")
        header = type(s).table_header()
        row = s.table_row()
        assert "Nnz/row" in header
        assert "b" in row
