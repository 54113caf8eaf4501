"""Group-parameter tests: Table I must be reproduced exactly for the P100."""

import pytest

from repro.core.params import (ASSIGN_GLOBAL, ASSIGN_PWARP, ASSIGN_TB,
                               ParamOverrides, build_group_table, pow2_floor)
from repro.errors import DeviceConfigError
from repro.gpu.device import K40, P100

#: Table I of the paper, verbatim:
#: (gid, products lo, products hi, nnz lo, nnz hi, assignment, threads, #TB)
TABLE_I = [
    (0, 8193, None, 4097, None, "TB/ROW", 1024, 2),
    (1, 4097, 8192, 2049, 4096, "TB/ROW", 1024, 2),
    (2, 2049, 4096, 1025, 2048, "TB/ROW", 512, 4),
    (3, 1025, 2048, 513, 1024, "TB/ROW", 256, 8),
    (4, 513, 1024, 257, 512, "TB/ROW", 128, 16),
    (5, 33, 512, 17, 256, "TB/ROW", 64, 32),
    (6, 0, 32, 0, 16, "PWARP/ROW", 512, 4),
]


class TestTableI:
    @pytest.fixture(scope="class")
    def table(self):
        return build_group_table(P100)

    def test_group_count(self, table):
        assert len(table) == 7

    @pytest.mark.parametrize("row", TABLE_I, ids=[f"g{r[0]}" for r in TABLE_I])
    def test_each_row(self, table, row):
        gid, plo, phi, nlo, nhi, assign, threads, tb = row
        g = table[gid]
        assert g.gid == gid
        assert g.min_products == plo
        assert g.max_products == phi
        assert g.min_nnz == nlo
        assert g.max_nnz == nhi
        assert g.block_threads == threads
        assert g.nominal_blocks_per_sm == tb
        shown = "TB/ROW" if g.assignment in (ASSIGN_TB, ASSIGN_GLOBAL) \
            else g.assignment
        assert shown == assign

    def test_table_sizes_power_of_two(self, table):
        for g in table:
            assert g.table_symbolic & (g.table_symbolic - 1) == 0
            assert g.table_numeric & (g.table_numeric - 1) == 0

    def test_symbolic_tables_double_numeric(self, table):
        for g in table:
            if g.assignment == ASSIGN_TB or g.assignment == ASSIGN_GLOBAL:
                assert g.table_symbolic == 2 * g.table_numeric

    def test_largest_numeric_table_fits_48kb_double(self, table):
        # Section III-D: t_size = 48KB / 12B = 4096
        assert table.max_shared_table_numeric == 4096
        assert table.max_shared_table_numeric * 12 <= P100.max_shared_per_block

    def test_group0_uses_global_tables(self, table):
        assert table[0].uses_global_table
        assert not any(g.uses_global_table for g in table if g.gid != 0)

    def test_pwarp_group_geometry(self, table):
        pw = table.pwarp_group
        assert pw.assignment == ASSIGN_PWARP
        assert pw.pwarp_width == 4          # Section III-B preliminary sweep
        assert pw.rows_per_block == 128

    def test_render_contains_all_groups(self, table):
        text = table.render()
        assert "PWARP/ROW" in text
        assert text.count("TB/ROW") == 6


class TestCoverage:
    """The groups must partition every possible count."""

    @pytest.fixture(scope="class")
    def table(self):
        return build_group_table(P100)

    @pytest.mark.parametrize("metric,lo_attr,hi_attr", [
        ("products", "min_products", "max_products"),
        ("nnz", "min_nnz", "max_nnz"),
    ])
    def test_ranges_cover_all_counts(self, table, metric, lo_attr, hi_attr):
        probes = list(range(0, 20000, 7)) + [10 ** 9]
        for value in probes:
            holders = [g.gid for g in table
                       if getattr(g, lo_attr) <= value
                       and (getattr(g, hi_attr) is None
                            or value <= getattr(g, hi_attr))]
            assert holders, f"{metric}={value} not covered"

    def test_tb_ranges_disjoint(self, table):
        tb = [g for g in table if g.assignment == ASSIGN_TB]
        for a in tb:
            for b in tb:
                if a.gid >= b.gid:
                    continue
                assert a.max_nnz < b.min_nnz or b.max_nnz < a.min_nnz


class TestOtherConfigurations:
    def test_k40_table_valid(self):
        table = build_group_table(K40)
        # K40: 48 KB shared / 12 B = 4096 -> same largest table
        assert table.max_shared_table_numeric == 4096
        assert len(table) >= 3

    def test_pwarp_width_override(self):
        t8 = build_group_table(P100, overrides=ParamOverrides(pwarp_width=8))
        assert t8.pwarp_group.rows_per_block == 64

    def test_pwarp_width_bounds(self):
        for width in (0, 64):
            with pytest.raises(DeviceConfigError):
                build_group_table(
                    P100, overrides=ParamOverrides(pwarp_width=width))

    def test_tiny_shared_memory_rejected(self):
        import dataclasses

        dev = dataclasses.replace(P100, shared_mem_per_sm=512,
                                  max_shared_per_block=256)
        with pytest.raises(DeviceConfigError):
            build_group_table(dev)


def test_pow2_floor():
    assert pow2_floor(1) == 1
    assert pow2_floor(4096) == 4096
    assert pow2_floor(5000) == 4096
    with pytest.raises(ValueError):
        pow2_floor(0)
