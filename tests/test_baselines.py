"""Baseline-algorithm tests: structural cost properties.

Correctness against the reference oracle lives in ``test_differential``,
which sweeps *every* registry entry over a wider corpus.
"""

import numpy as np
import pytest

import repro
from repro.baselines.bhsparse import (ESC_LIMIT, HEAP_LIMIT, BHSparseSpGEMM,
                                      _bin_rows, _progressive_alloc_rows,
                                      _sub_bins)
from repro.baselines.cusparse_like import CuSparseSpGEMM
from repro.baselines.esc import ESCSpGEMM
from repro.baselines.registry import (ALGORITHMS, CPU_DISPLAY_ORDER,
                                      DISPLAY_ORDER, create)
from repro.errors import AlgorithmError, DeviceMemoryError
from repro.gpu.device import P100
from repro.sparse import generators

GENS = {
    "banded": lambda rng: generators.banded(250, 10, rng=rng),
    "stencil": lambda rng: generators.stencil_regular(300, 4, rng=rng),
    "power_law": lambda rng: generators.power_law(250, 3.0, 60, rng=rng),
    "block": lambda rng: generators.block_dense(64, 16, rng=rng),
}


class TestESCStructure:
    def test_memory_scales_with_products(self, rng):
        """ESC's defining property: working set proportional to nprod."""
        sparse = generators.stencil_regular(600, 3, rng=rng)
        dense = generators.banded(600, 24, rng=rng)
        r1 = ESCSpGEMM().multiply(sparse, sparse, precision="single")
        r2 = ESCSpGEMM().multiply(dense, dense, precision="single")
        prod_ratio = r2.report.n_products / r1.report.n_products
        mem_ratio = r2.report.peak_bytes / r1.report.peak_bytes
        assert mem_ratio > 0.3 * prod_ratio

    def test_near_constant_gflops(self, rng):
        """Figure 2: CUSP's performance is flat across matrix classes."""
        rates = []
        for gen in ("banded", "stencil", "block"):
            A = GENS[gen](rng)
            # enlarge so fixed overheads do not dominate
            r = ESCSpGEMM().multiply(A, A, precision="single")
            rates.append(r.report.gflops)
        assert max(rates) / min(rates) < 4.0

    def test_oom_on_small_device(self, rng):
        A = generators.banded(400, 20, rng=rng)
        with pytest.raises(DeviceMemoryError):
            ESCSpGEMM().multiply(A, A, device=P100.with_memory(1 << 20))

    def test_radix_passes_recorded(self, rng):
        A = GENS["banded"](rng)
        r = ESCSpGEMM().multiply(A, A)
        radix = [k for k in r.report.kernels if "radix" in k.name]
        assert len(radix) == 8


class TestCuSparseStructure:
    def test_two_phases(self, rng):
        A = GENS["banded"](rng)
        r = CuSparseSpGEMM().multiply(A, A)
        names = [k.name for k in r.report.kernels]
        assert "cusparse_count" in names and "cusparse_numeric" in names

    def test_workspace_chunking_bounds_memory(self):
        ws = CuSparseSpGEMM._workspace_bytes(
            nnz_out=np.full(10000, 2000.0),
            sizing=np.full(10000, 4000.0),
            tsize=512, entry_bytes=8, chunk=4096)
        # only one chunk of 4096 rows is ever live
        assert ws == 4096 * 4096 * 8

    def test_no_workspace_when_all_shared(self):
        assert CuSparseSpGEMM._workspace_bytes(
            np.full(100, 10.0), np.full(100, 20.0), 512, 8, 4096) == 0

    def test_imbalance_hurts(self, rng):
        """One huge row should crater cuSPARSE throughput but not the
        proposal's (the cit-Patents mechanism)."""
        balanced = generators.stencil_regular(3000, 6, rng=rng)
        skewed = generators.power_law(3000, 6.0, 1500,
                                      rng=np.random.default_rng(77))
        cs_b = CuSparseSpGEMM().multiply(balanced, balanced).report.gflops
        cs_s = CuSparseSpGEMM().multiply(skewed, skewed).report.gflops
        ours_s = repro.multiply(skewed, skewed).report.gflops
        assert cs_s < cs_b           # skew hurts cuSPARSE
        assert ours_s > cs_s         # grouping recovers it


class TestBHSparseStructure:
    def test_bins_partition(self, rng):
        upper = rng.integers(0, 5000, 1000)
        bins = _bin_rows(upper)
        all_rows = np.sort(np.concatenate([bins.heap, bins.esc, bins.merge]))
        np.testing.assert_array_equal(all_rows, np.arange(1000))

    def test_bin_limits(self):
        bins = _bin_rows(np.array([HEAP_LIMIT, HEAP_LIMIT + 1,
                                   ESC_LIMIT, ESC_LIMIT + 1]))
        assert bins.heap.tolist() == [0]
        assert bins.esc.tolist() == [1, 2]
        assert bins.merge.tolist() == [3]

    def test_sub_bins_power_of_two(self):
        rows = np.arange(6)
        ub = np.array([1, 2, 3, 4, 20, 32])
        subs = _sub_bins(rows, ub, 32)
        assert [s.tolist() for s in subs] == [[0], [1], [2, 3], [4, 5]]

    def test_progressive_alloc_bounds(self):
        alloc = _progressive_alloc_rows(np.array([10.0, 1000.0, 1e6]),
                                        np.array([5.0, 400.0, 300.0]))
        assert alloc[0] == 10.0                 # capped by products
        assert alloc[1] == 1000.0               # pow2(800) = 1024 > products
        assert alloc[2] == 1024.0               # pow2(2*300) = 1024

    def test_per_bin_kernel_launches(self, rng):
        A = generators.power_law(2000, 4.0, 300, rng=rng)
        r = BHSparseSpGEMM().multiply(A, A)
        calc = [k for k in r.report.kernels if k.name.startswith("bhsparse_")
                and "binning" not in k.name and "compact" not in k.name]
        assert len(calc) >= 3     # several sub-bins

    def test_upper_bound_allocation_exceeds_output(self, rng):
        A = GENS["power_law"](rng)
        ours = repro.multiply(A, A).report.peak_bytes
        theirs = BHSparseSpGEMM().multiply(A, A).report.peak_bytes
        assert theirs > ours


class TestRegistry:
    def test_all_registered(self):
        # leaves only: the wrapper layers are SpGEMMOptions fields
        assert set(ALGORITHMS) == {"proposal", "cusp", "cusparse", "bhsparse",
                                   "tile", "hash-cpu", "heap-cpu", "propblock"}
        # the display orders partition the paper algorithms by backend;
        # 'tile' is post-paper (the E22 crossover family) and stays out
        # of the paper-figure tables
        assert set(DISPLAY_ORDER) | set(CPU_DISPLAY_ORDER) == (
            set(ALGORITHMS) - {"tile"})
        assert not set(DISPLAY_ORDER) & set(CPU_DISPLAY_ORDER)

    def test_create_unknown(self):
        with pytest.raises(AlgorithmError, match="unknown algorithm"):
            create("magma")

    def test_create_with_options(self):
        algo = create("proposal", use_streams=False)
        assert algo.use_streams is False

    def test_top_level_spgemm_dispatch(self, rng):
        A = GENS["stencil"](rng)
        r = repro.multiply(A, A, algorithm="cusp")
        assert r.report.algorithm == "cusp"

    def test_algorithms_listing(self):
        assert "proposal" in repro.algorithms()
