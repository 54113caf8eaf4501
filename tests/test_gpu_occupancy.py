"""Occupancy calculator tests, anchored to Table I's #TB column."""

import pytest

from repro.errors import DeviceConfigError
from repro.gpu.device import P100
from repro.gpu.occupancy import occupancy_for


class TestTableIConfigurations:
    """Each TB/ROW group's counting-phase config must reach its #TB."""

    @pytest.mark.parametrize("threads,table_entries,expected_tb", [
        (1024, 8192, 2),    # group 1 (and 0): 32 KB tables, 2 per SM
        (512, 4096, 4),     # group 2
        (256, 2048, 8),     # group 3
        (128, 1024, 16),    # group 4
        (64, 512, 32),      # group 5: hits the 32-block hardware cap
    ])
    def test_counting_phase_blocks_per_sm(self, threads, table_entries,
                                          expected_tb):
        occ = occupancy_for(P100, threads, table_entries * 4)
        assert occ.blocks_per_sm == expected_tb

    def test_pwarp_group(self):
        # 512-thread blocks, 128 rows x 32-entry tables
        occ = occupancy_for(P100, 512, 128 * 32 * 4)
        assert occ.blocks_per_sm == 4

    def test_numeric_double_group1_limited_by_shared(self):
        # 4096-entry tables at 12 B/entry = 48 KB: only one block fits
        occ = occupancy_for(P100, 1024, 4096 * 12)
        assert occ.blocks_per_sm == 1
        assert occ.limited_by == "shared"

    def test_numeric_single_group1_fits_two(self):
        occ = occupancy_for(P100, 1024, 4096 * 8)
        assert occ.blocks_per_sm == 2


class TestLimits:
    def test_thread_limited(self):
        occ = occupancy_for(P100, 1024, 0)
        assert occ.blocks_per_sm == 2
        assert occ.limited_by == "threads"

    def test_block_cap(self):
        occ = occupancy_for(P100, 32, 0)
        assert occ.blocks_per_sm == 32
        assert occ.limited_by == "blocks"

    def test_warps_rounded_up(self):
        occ = occupancy_for(P100, 33, 0)
        assert occ.warps_per_block == 2


class TestErrors:
    def test_zero_threads(self):
        with pytest.raises(DeviceConfigError):
            occupancy_for(P100, 0, 0)

    def test_too_many_threads(self):
        with pytest.raises(DeviceConfigError):
            occupancy_for(P100, 2048, 0)

    def test_too_much_shared(self):
        with pytest.raises(DeviceConfigError):
            occupancy_for(P100, 128, 49 * 1024)

    def test_negative_shared(self):
        with pytest.raises(DeviceConfigError):
            occupancy_for(P100, 128, -1)
