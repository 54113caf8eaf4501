"""Row-grouping tests (steps (2) and (6) of Figure 1)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.grouping import _bounds, assign_gids, group_rows
from repro.core.params import build_group_table
from repro.errors import AlgorithmError
from repro.gpu.device import P100

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def table():
    return build_group_table(P100)


class TestPartition:
    def test_every_row_in_exactly_one_group(self, table, rng):
        counts = rng.integers(0, 20000, 5000)
        a = group_rows(counts, table, "products")
        seen = np.concatenate(a.rows_by_group)
        assert np.sort(seen).tolist() == list(range(5000))

    def test_gids_consistent_with_groups(self, table, rng):
        counts = rng.integers(0, 5000, 1000)
        a = group_rows(counts, table, "nnz")
        for gid, rows in enumerate(a.rows_by_group):
            assert np.all(a.gids[rows] == gid)

    def test_boundary_values_products(self, table):
        # Table I boundaries: 32 -> pwarp; 33 -> g5; 512 -> g5; 513 -> g4;
        # 8192 -> g1; 8193 -> g0
        counts = np.array([0, 32, 33, 512, 513, 8192, 8193])
        a = group_rows(counts, table, "products")
        assert a.gids.tolist() == [6, 6, 5, 5, 4, 1, 0]

    def test_boundary_values_nnz(self, table):
        counts = np.array([0, 16, 17, 256, 257, 4096, 4097])
        a = group_rows(counts, table, "nnz")
        assert a.gids.tolist() == [6, 6, 5, 5, 4, 1, 0]

    def test_rows_sorted_within_group(self, table, rng):
        counts = rng.integers(0, 1000, 500)
        a = group_rows(counts, table, "products")
        for rows in a.rows_by_group:
            assert np.all(np.diff(rows) > 0) or rows.shape[0] <= 1

    @pytest.mark.parametrize("metric", ["products", "nnz"])
    def test_table_that_does_not_tile_raises(self, table, metric):
        # without Group 0 nothing covers the largest rows
        broken = dataclasses.replace(table, groups=table.groups[1:])
        with pytest.raises(AlgorithmError, match="do not tile"):
            group_rows(np.array([0, 5, 10**6]), broken, metric)


class TestGroupAssignmentProperty:
    """The ``searchsorted`` assignment == a first-match scan over the
    table's ranges."""

    @staticmethod
    def _scalar_gids(counts, table, metric):
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


class TestAccessors:
    def test_nonempty_skips_empty_groups(self, table):
        counts = np.full(10, 5)   # all pwarp
        a = group_rows(counts, table, "nnz")
        nonempty = a.nonempty()
        assert len(nonempty) == 1
        assert nonempty[0][0].gid == table.pwarp_group.gid

    def test_device_bytes_is_4_per_row(self, table):
        counts = np.zeros(100, dtype=np.int64)
        a = group_rows(counts, table, "nnz")
        assert a.device_bytes() == 400

    def test_unknown_metric(self, table):
        with pytest.raises(AlgorithmError, match="metric"):
            group_rows(np.zeros(3, dtype=np.int64), table, "bogus")

    def test_empty_matrix(self, table):
        a = group_rows(np.zeros(0, dtype=np.int64), table, "products")
        assert a.n_rows == 0
