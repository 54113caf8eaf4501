"""Work-accounting (kernel.py) and cycle-model (cost.py) tests."""

import numpy as np
import pytest

from repro.errors import DeviceConfigError
from repro.gpu.cost import block_durations, kernel_duration_alone
from repro.gpu.device import P100
from repro.gpu.kernel import BlockWorks, KernelLaunch, WorkEstimate


def launch(works: BlockWorks, threads=256, shared=0, **kw) -> KernelLaunch:
    return KernelLaunch(name="k", block_threads=threads,
                        shared_bytes_per_block=shared, works=works, **kw)


class TestWorkEstimate:
    def test_add(self):
        a = WorkEstimate(flops=1, gmem_random=2)
        b = WorkEstimate(flops=10, shared_ops=5)
        c = a + b
        assert c.flops == 11 and c.shared_ops == 5 and c.gmem_random == 2

    def test_scaled(self):
        w = WorkEstimate(flops=3, serial_cycles=7).scaled(2)
        assert w.flops == 6 and w.serial_cycles == 14


class TestBlockWorks:
    def test_defaults_zero(self):
        w = BlockWorks(n_blocks=3)
        np.testing.assert_array_equal(w.flops, np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            BlockWorks(n_blocks=3, flops=np.ones(2))

    def test_unknown_column(self):
        with pytest.raises(ValueError, match="unknown work columns"):
            BlockWorks(n_blocks=1, bogus=np.ones(1))

    def test_needs_size_info(self):
        with pytest.raises(ValueError):
            BlockWorks()

    def test_totals(self):
        w = BlockWorks(n_blocks=2, flops=np.array([1.0, 2.0]),
                       gmem_random=np.array([3.0, 4.0]))
        t = w.totals()
        assert t.flops == 3.0 and t.gmem_random == 7.0

    def test_empty_grid_rejected_by_launch(self):
        with pytest.raises(DeviceConfigError, match="empty grid"):
            launch(BlockWorks(n_blocks=0))


class TestCostModel:
    def test_zero_work_costs_only_overhead(self):
        k = launch(BlockWorks(n_blocks=1))
        d = block_durations(k, P100, "single")
        assert d[0] == pytest.approx(P100.block_overhead_cycles / P100.clock_hz)

    def test_monotone_in_every_column(self):
        base = {c: np.array([1000.0]) for c in
                ("flops", "shared_ops", "shared_atomics",
                 "gmem_coalesced_bytes", "gmem_random", "gmem_atomics",
                 "serial_cycles")}
        d0 = block_durations(launch(BlockWorks(n_blocks=1, **base)),
                             P100, "single")[0]
        for col in base:
            bumped = {k: v.copy() for k, v in base.items()}
            bumped[col] = bumped[col] * 10
            d1 = block_durations(launch(BlockWorks(n_blocks=1, **bumped)),
                                 P100, "single")[0]
            assert d1 > d0, f"duration not monotone in {col}"

    def test_double_precision_compute_slower(self):
        w = BlockWorks(n_blocks=1, flops=np.array([1e6]))
        s = block_durations(launch(w), P100, "single")[0]
        d = block_durations(launch(w), P100, "double")[0]
        assert d > s

    def test_double_precision_memory_unchanged(self):
        w = BlockWorks(n_blocks=1, gmem_coalesced_bytes=np.array([1e6]))
        s = block_durations(launch(w), P100, "single")[0]
        d = block_durations(launch(w), P100, "double")[0]
        assert d == pytest.approx(s)

    def test_serial_cycles_charged_verbatim(self):
        w0 = BlockWorks(n_blocks=1)
        w1 = BlockWorks(n_blocks=1, serial_cycles=np.array([1000.0]))
        d0 = block_durations(launch(w0), P100, "single")[0]
        d1 = block_durations(launch(w1), P100, "single")[0]
        assert (d1 - d0) == pytest.approx(1000.0 / P100.clock_hz)

    def test_small_grid_not_stretched_by_phantom_neighbors(self):
        # one block on an empty device must not pay the co-residency factor
        w1 = BlockWorks(n_blocks=1, gmem_coalesced_bytes=np.array([1e6]))
        wN = BlockWorks(n_blocks=56 * 8,
                        gmem_coalesced_bytes=np.full(56 * 8, 1e6))
        d1 = block_durations(launch(w1), P100, "single")[0]
        dN = block_durations(launch(wN), P100, "single")[0]
        assert dN > d1  # full wave shares SM bandwidth, single block does not

    def test_throughput_neutrality_of_occupancy(self):
        # total device throughput (sum work / makespan bound) should not
        # depend on the co-residency factor for bandwidth-bound kernels
        n = 56 * 8
        w = BlockWorks(n_blocks=n, gmem_coalesced_bytes=np.full(n, 1e6))
        k = launch(w)
        alone = kernel_duration_alone(k, P100, "single")
        # lower bound: total bytes / device bandwidth
        lower = n * 1e6 / P100.bandwidth_bytes_per_sec
        assert alone >= lower * 0.99
        assert alone <= lower * 3.0   # sum-composition overhead is bounded

    def test_more_warps_hide_latency_better(self):
        w = BlockWorks(n_blocks=1, gmem_random=np.array([1e5]))
        small = launch(w, threads=64)
        big = launch(w, threads=512)
        d_small = block_durations(small, P100, "single")[0]
        d_big = block_durations(big, P100, "single")[0]
        assert d_big < d_small

    def test_vectorized_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        cols = {c: rng.random(10) * 1e4 for c in
                ("flops", "shared_ops", "gmem_coalesced_bytes", "gmem_random")}
        k = launch(BlockWorks(n_blocks=10, **cols))
        d = block_durations(k, P100, "single")
        for i in range(10):
            one = launch(BlockWorks(
                n_blocks=10, **{c: np.full(10, v[i]) for c, v in cols.items()}))
            assert block_durations(one, P100, "single")[i] == pytest.approx(d[i])
