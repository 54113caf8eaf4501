"""Symbolic / numeric kernel-plan structure tests."""

import numpy as np
import pytest

from repro.core.count_products import (chunk_maxes, chunk_sums,
                                       count_products_kernel)
from repro.core.grouping import group_rows
from repro.core.numeric import group0_table_entries, plan_numeric
from repro.core.params import build_group_table
from repro.core.symbolic import plan_symbolic
from repro.gpu.device import P100
from repro.sparse import generators
from repro.sparse.expansion import (intermediate_product_counts,
                                    symbolic_row_nnz)
from repro.types import Precision, next_pow2


@pytest.fixture(scope="module")
def table():
    return build_group_table(P100)


def make_plan_inputs(A):
    rp = intermediate_product_counts(A, A).astype(np.int64)
    rn = symbolic_row_nnz(A, A).astype(np.int64)
    return rp, rn


def group0_matrix():
    """Deterministic matrix whose first row's square exceeds the largest
    shared hash table: row 0 references 100 B-rows that together cover
    10,100 distinct columns (> 8192 products and > 4096 output nnz)."""
    import numpy as np

    from repro.sparse.coo import COOMatrix

    n = 10_100
    rows = [np.zeros(100, dtype=np.int64)]
    cols = [np.arange(100, dtype=np.int64)]
    for k in range(100):
        rows.append(np.full(101, k, dtype=np.int64))
        cols.append(np.arange(k * 101, (k + 1) * 101, dtype=np.int64) % n)
    diag = np.arange(100, n, dtype=np.int64)
    rows.append(diag)
    cols.append(diag)
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    return COOMatrix(r, c, np.ones(r.shape[0]), (n, n)).to_csr()


class TestChunkHelpers:
    def test_chunk_sums(self):
        np.testing.assert_array_equal(
            chunk_sums(np.array([1.0, 2, 3, 4, 5]), 2), [3.0, 7.0, 5.0])

    def test_chunk_maxes(self):
        np.testing.assert_array_equal(
            chunk_maxes(np.array([1.0, 9, 3, 4, 5]), 2), [9.0, 4.0, 5.0])

    def test_empty(self):
        """A per-row kernel over zero rows is one block with no work."""
        np.testing.assert_array_equal(chunk_sums(np.zeros(0), 4), [0.0])
        np.testing.assert_array_equal(chunk_maxes(np.zeros(0), 4), [0.0])


class TestCountProductsKernel:
    def test_grid_covers_rows(self, small_banded):
        k = count_products_kernel(small_banded.row_nnz())
        assert k.n_blocks == -(-small_banded.n_rows // 256)

    def test_traffic_scales_with_nnz(self, rng):
        small = generators.banded(256, 4, rng=rng)
        big = generators.banded(256, 16, rng=rng)
        ks = count_products_kernel(small.row_nnz())
        kb = count_products_kernel(big.row_nnz())
        assert kb.works.totals().gmem_random > ks.works.totals().gmem_random


class TestSymbolicPlan:
    def test_one_kernel_per_nonempty_group(self, table, small_banded):
        rp, rn = make_plan_inputs(small_banded)
        groups = group_rows(rp, table, "products")
        plan = plan_symbolic(small_banded.row_nnz(), groups, rp, rn, P100)
        nonempty = sum(1 for rows in groups.rows_by_group if rows.shape[0])
        assert len(plan.kernels) == nonempty

    def test_streams_distinct_per_group(self, table, small_banded):
        rp, rn = make_plan_inputs(small_banded)
        groups = group_rows(rp, table, "products")
        plan = plan_symbolic(small_banded.row_nnz(), groups, rp, rn, P100)
        streams = [k.stream for k in plan.kernels]
        assert len(set(streams)) == len(streams)

    def test_tb_kernel_one_block_per_row(self, table, small_banded):
        rp, rn = make_plan_inputs(small_banded)
        groups = group_rows(rp, table, "products")
        plan = plan_symbolic(small_banded.row_nnz(), groups, rp, rn, P100)
        for params, rows in groups.nonempty():
            kernel = next(k for k in plan.kernels
                          if k.tag == f"g{params.gid}")
            if params.assignment == "TB/ROW":
                assert kernel.n_blocks == rows.shape[0]

    def test_no_failed_rows_on_small_matrix(self, table, small_banded):
        rp, rn = make_plan_inputs(small_banded)
        groups = group_rows(rp, table, "products")
        plan = plan_symbolic(small_banded.row_nnz(), groups, rp, rn, P100)
        assert plan.retry_kernel is None
        assert plan.global_table_bytes == 0

    def test_group0_failure_path(self, table):
        """A matrix with a row whose output exceeds the try table (8192)."""
        A = group0_matrix()
        rp, rn = make_plan_inputs(A)
        assert rn.max() > table.max_shared_table_symbolic
        groups = group_rows(rp, table, "products")
        plan = plan_symbolic(A.row_nnz(), groups, rp, rn, P100)
        assert plan.retry_kernel is not None
        assert plan.failed_rows.shape[0] >= 1
        expected = sum(4 * next_pow2(int(p)) for p in rp[plan.failed_rows])
        assert plan.global_table_bytes == expected

    def test_pwarp_kernel_has_serial_column(self, table, rng):
        A = generators.stencil_regular(500, 3, rng=rng)
        rp, rn = make_plan_inputs(A)
        groups = group_rows(rp, table, "products")
        plan = plan_symbolic(A.row_nnz(), groups, rp, rn, P100)
        pw = next(k for k in plan.kernels if "pwarp" in k.name)
        assert np.all(pw.works.serial_cycles > 0)
        assert pw.n_blocks == -(-500 // 128)


class TestNumericPlan:
    def test_shared_bytes_scale_with_precision(self, table, small_banded):
        rp, rn = make_plan_inputs(small_banded)
        groups = group_rows(rn, table, "nnz")
        for p, entry in ((Precision.SINGLE, 8), (Precision.DOUBLE, 12)):
            plan = plan_numeric(small_banded.row_nnz(), groups, rp, rn, p,
                                P100)
            for k in plan.kernels:
                if k.tag.startswith("g") and "pwarp" not in k.name:
                    gid = int(k.tag[1:])
                    assert k.shared_bytes_per_block == \
                        table[gid].table_numeric * entry

    def test_group0_tables_accounted(self, table):
        A = group0_matrix()
        rp, rn = make_plan_inputs(A)
        assert rn.max() > table.max_shared_table_numeric
        groups = group_rows(rn, table, "nnz")
        plan = plan_numeric(A.row_nnz(), groups, rp, rn, Precision.DOUBLE, P100)
        heavy = rn[rn > table.max_shared_table_numeric]
        expected = int(group0_table_entries(heavy).sum() * 12)
        assert plan.global_table_bytes == expected

    def test_numeric_kernels_cost_more_than_symbolic(self, table,
                                                     small_banded):
        """The numeric phase reads values and sorts: strictly more work."""
        rp, rn = make_plan_inputs(small_banded)
        sgroups = group_rows(rp, table, "products")
        ngroups = group_rows(rn, table, "nnz")
        splan = plan_symbolic(small_banded.row_nnz(), sgroups, rp, rn, P100)
        nplan = plan_numeric(small_banded.row_nnz(), ngroups, rp, rn,
                             Precision.DOUBLE, P100)
        s_flops = sum(k.works.totals().flops for k in splan.kernels)
        n_flops = sum(k.works.totals().flops for k in nplan.kernels)
        assert n_flops > s_flops


def test_group0_table_entries_pow2_and_slack():
    sizes = group0_table_entries(np.array([5000, 10000]))
    assert sizes[0] == next_pow2(10000)
    assert sizes[1] == next_pow2(20000)
