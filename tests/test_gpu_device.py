"""Device-spec tests: the P100 model and derived rates."""

import dataclasses

import pytest

from repro.errors import DeviceConfigError
from repro.gpu.device import K40, P100, DeviceSpec


class TestP100MatchesPaper:
    """Section IV / III-D hardware figures."""

    def test_memory_capacity(self):
        assert P100.global_mem_bytes == 16 * 1024 ** 3

    def test_bandwidth(self):
        assert P100.mem_bandwidth_gbps == 732.0

    def test_sm_resources(self):
        assert P100.cores_per_sm == 64
        assert P100.shared_mem_per_sm == 64 * 1024
        assert P100.max_shared_per_block == 48 * 1024

    def test_occupancy_caps(self):
        assert P100.max_blocks_per_sm == 32
        assert P100.max_threads_per_sm == 2048
        assert P100.max_threads_per_block == 1024

    def test_dp_ratio(self):
        assert P100.dp_throughput_ratio == 0.5


class TestDerivedRates:
    def test_clock_hz(self):
        assert P100.clock_hz == pytest.approx(P100.clock_ghz * 1e9)

    def test_flops_per_cycle(self):
        assert P100.flops_per_cycle_per_sm(False) == 64
        assert P100.flops_per_cycle_per_sm(True) == 32


class TestMallocModel:
    def test_base_cost_positive(self):
        assert P100.malloc_seconds(0) > 0

    def test_linear_in_size(self):
        small = P100.malloc_seconds(1 << 20)
        big = P100.malloc_seconds(100 << 20)
        assert big > small
        assert big - small == pytest.approx(99 * P100.malloc_per_mib_us * 1e-6)

    def test_pascal_malloc_costlier_than_kepler(self):
        # Section IV-C: "cost of cudaMalloc on Pascal becomes larger
        # compared to previous generation GPUs"
        size = 64 << 20
        assert P100.malloc_seconds(size) > K40.malloc_seconds(size)

    def test_free_cost(self):
        assert P100.free_seconds() > 0


class TestValidation:
    def test_zero_sms_rejected(self):
        with pytest.raises(DeviceConfigError):
            dataclasses.replace(P100, sm_count=0)

    def test_block_shared_above_sm_rejected(self):
        with pytest.raises(DeviceConfigError):
            dataclasses.replace(P100, max_shared_per_block=128 * 1024)

    def test_non_warp_multiple_block_rejected(self):
        with pytest.raises(DeviceConfigError):
            dataclasses.replace(P100, max_threads_per_block=1000)

    def test_with_memory(self):
        small = P100.with_memory(1 << 30)
        assert small.global_mem_bytes == 1 << 30
        assert small.sm_count == P100.sm_count
        assert "MiB" in small.name
