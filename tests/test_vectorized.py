"""Dual-path equivalence: the vectorized core vs the scalar core.

The wall-clock pass (sort-recipe replay, phase-schedule memo, batched
group/table primitives, unobserved fast path) is only admissible because
it is *exact*: ``REPRO_SCALAR_CORE=1`` routes every run through the
original per-row scalar paths, and this suite pins the two cores to

* bit-identical output matrices (``rpt``/``col``/``val`` array-equal,
  not merely allclose),
* identical modeled seconds and phase breakdowns, and
* identical observability streams (the canonical trace-summary text),

across every registered algorithm.  The fast subset always runs; the
full corpus sweep is marked ``corpus`` like the differential oracle.

The property half (Hypothesis) checks the batched primitives against
their scalar definitions on arbitrary inputs: group-bucket assignment
vs the first-match scan, batched hash-probe counts vs per-row Alg. 5
simulation including the hash-table-full fault boundary, and the
bit-smear ``next_pow2_array`` vs the scalar ``next_pow2``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import perf
from repro.core.grouping import assign_gids, group_rows
from repro.core.hashtable import (HashTable, simulate_insertions,
                                  simulate_insertions_rows)
from repro.core.params import build_group_table
from repro.errors import HashTableError
from repro.gpu.device import P100
from repro.obs.export import trace_summary
from repro.sparse import generators
from repro.sparse.csr import CSRMatrix

from tests.conftest import RUNNERS

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

ALL_ALGOS = sorted(RUNNERS)


def _empty_rows(rng) -> CSRMatrix:
    dense = generators.random_csr(150, 150, 6, rng=rng).to_dense()
    dense[::3] = 0.0
    return CSRMatrix.from_dense(dense)


def _single_dense_row(rng) -> CSRMatrix:
    dense = generators.random_csr(150, 150, 3, rng=rng).to_dense()
    dense[7, :] = rng.random(150) + 0.5
    return CSRMatrix.from_dense(dense)


#: Same structural corpus as the differential oracle: the dual-path
#: check must hold on exactly the shapes the reference check covers.
CORPUS = {
    "band": lambda rng: generators.banded(250, 10, rng=rng),
    "erdos_renyi": lambda rng: generators.random_csr(200, 200, 6, rng=rng),
    "power_law": lambda rng: generators.power_law(250, 3.0, 60, rng=rng),
    "empty_rows": _empty_rows,
    "single_dense_row": _single_dense_row,
}

FAST = ("band", "power_law")


def _run(algo: str, A: CSRMatrix, monkeypatch, *, scalar: bool):
    """One cold run on the requested core (caches cleared both sides)."""
    if scalar:
        monkeypatch.setenv("REPRO_SCALAR_CORE", "1")
    else:
        monkeypatch.delenv("REPRO_SCALAR_CORE", raising=False)
    perf.clear_fast_caches()
    try:
        return repro.multiply(A, A,
                              options=repro.SpGEMMOptions(**RUNNERS[algo]))
    finally:
        monkeypatch.delenv("REPRO_SCALAR_CORE", raising=False)
        perf.clear_fast_caches()


def _assert_equivalent(algo: str, A: CSRMatrix, monkeypatch) -> None:
    fast = _run(algo, A, monkeypatch, scalar=False)
    slow = _run(algo, A, monkeypatch, scalar=True)

    # bit-identical output: same structure, same bytes in the values
    assert np.array_equal(fast.matrix.rpt, slow.matrix.rpt), algo
    assert np.array_equal(fast.matrix.col, slow.matrix.col), algo
    assert np.array_equal(fast.matrix.val, slow.matrix.val), algo

    # identical modeled time, phase by phase
    assert fast.report.total_seconds == slow.report.total_seconds, algo
    assert fast.report.phase_seconds == slow.report.phase_seconds, algo
    assert fast.report.peak_bytes == slow.report.peak_bytes, algo

    # identical observability stream (both runs are observed by default)
    assert trace_summary(fast.report) == trace_summary(slow.report), algo


@pytest.mark.parametrize("algo", ALL_ALGOS)
@pytest.mark.parametrize("name", FAST)
def test_dual_path_fast(algo, name, rng, monkeypatch):
    _assert_equivalent(algo, CORPUS[name](rng), monkeypatch)


@pytest.mark.corpus
@pytest.mark.parametrize("algo", ALL_ALGOS)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_dual_path_corpus(algo, name, rng, monkeypatch):
    _assert_equivalent(algo, CORPUS[name](rng), monkeypatch)


class TestGroupAssignmentProperty:
    """Vectorized bucket assignment == scalar first-match scan."""

    @staticmethod
    def _scalar_gids(counts, table, metric):
        from repro.core.grouping import _bounds
        gids = np.full(counts.shape[0], -1, dtype=np.int8)
        for i, c in enumerate(counts):
            for params in table:
                lo, hi = _bounds(params, metric)
                if lo <= c <= hi:
                    gids[i] = params.gid
                    break
        return gids

    @SETTINGS
    @given(counts=st.lists(st.integers(min_value=0, max_value=200_000),
                           min_size=1, max_size=300),
           metric=st.sampled_from(["nnz", "products"]))
    def test_assign_matches_scan(self, counts, metric):
        counts = np.asarray(counts, dtype=np.int64)
        table = build_group_table(P100)
        fast = assign_gids(counts, table, metric)
        assert np.array_equal(fast, self._scalar_gids(counts, table, metric))

    @SETTINGS
    @given(counts=st.lists(st.integers(min_value=0, max_value=200_000),
                           min_size=1, max_size=300))
    def test_group_rows_partition(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        table = build_group_table(P100)
        ga = group_rows(counts, table, "products")
        seen = np.concatenate([r for r in ga.rows_by_group])
        assert sorted(seen.tolist()) == list(range(counts.shape[0]))
        for params, rows in zip(table, ga.rows_by_group):
            assert np.array_equal(ga.gids[rows],
                                  np.full(rows.shape[0], params.gid))


class TestHashProbeProperty:
    """Batched Alg. 5 probe counts == per-row simulation."""

    @SETTINGS
    @given(rows=st.lists(st.lists(st.integers(min_value=0, max_value=63),
                                  min_size=0, max_size=20),
                         min_size=1, max_size=12),
           size_exp=st.integers(min_value=2, max_value=6))
    def test_rows_match_per_row(self, rows, size_exp):
        size = 1 << size_exp
        keys = np.asarray([k for row in rows for k in row], dtype=np.int64)
        row_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=row_ptr[1:])

        try:
            expect = [simulate_insertions(np.asarray(row, dtype=np.int64),
                                          size) for row in rows]
        except HashTableError:
            with pytest.raises(HashTableError):
                simulate_insertions_rows(keys, row_ptr, size)
            return

        distinct, probes = simulate_insertions_rows(keys, row_ptr, size)
        assert np.array_equal(distinct, np.asarray([e[0] for e in expect]))
        assert np.array_equal(probes, np.asarray([e[1] for e in expect]))

    @SETTINGS
    @given(row=st.lists(st.integers(min_value=0, max_value=31),
                        min_size=1, max_size=16),
           size_exp=st.integers(min_value=2, max_value=5))
    def test_single_row_matches_table(self, row, size_exp):
        """One-row batch == an actual HashTable insertion sequence."""
        size = 1 << size_exp
        keys = np.asarray(row, dtype=np.int64)
        row_ptr = np.asarray([0, len(row)], dtype=np.int64)
        table = HashTable(size)
        try:
            for k in row:
                table.insert(int(k))
        except HashTableError:
            with pytest.raises(HashTableError):
                simulate_insertions_rows(keys, row_ptr, size)
            return
        distinct, probes = simulate_insertions_rows(keys, row_ptr, size)
        assert int(distinct[0]) == table.count
        assert int(probes[0]) == table.probes


class TestNextPow2Property:

    @SETTINGS
    @given(ns=st.lists(st.integers(min_value=0, max_value=2**40),
                       min_size=1, max_size=200))
    def test_array_matches_scalar(self, ns):
        from repro.types import next_pow2, next_pow2_array
        got = next_pow2_array(np.asarray(ns, dtype=np.int64))
        assert got.tolist() == [next_pow2(n) for n in ns]
