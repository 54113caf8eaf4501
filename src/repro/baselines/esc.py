"""CUSP-style ESC (expand - sort - contract) SpGEMM (Bell, Dalton, Olson).

The algorithm (Section II-B of the paper):

1. **Expand**: materialize one ``(row, col, value)`` triple per
   intermediate product -- ``nprod * (8 + value_bytes)`` bytes of device
   memory, the reason CUSP "handles extremely large amount of intermediate
   data" and cannot run cage15 / wb-edu (Table III).
2. **Sort**: radix sort the triples by (row, col).  Thrust-style LSD radix
   over the 64-bit combined key: 8 passes of 8 bits, each streaming the
   payload in and scattering it out, with a ping-pong buffer doubling the
   working set.
3. **Contract**: segmented reduction of equal-key runs into the output.

Every pass is element-parallel and uniform, which is why CUSP's measured
performance is nearly constant across matrices (Fig. 2): its time is
essentially ``nprod x bytes-per-product / bandwidth``, so GFLOPS =
``2 * nprod / time`` is matrix-independent.  That constancy *emerges* here
from the uniform grids -- nothing is hard-coded.
"""

from __future__ import annotations

from repro.base import SpGEMMAlgorithm, SpGEMMResult
from repro.baselines.common import uniform_grid
from repro.core.count_products import count_products_kernel
from repro.gpu.device import P100, DeviceSpec
from repro.gpu.faults import FaultPlan
from repro.sparse.csr import CSRMatrix
from repro.sparse.product import ProductResult
from repro.types import Precision

#: Intermediate products per thread block in the element-parallel passes.
PRODUCTS_PER_BLOCK = 8192

#: Radix-sort passes over the 64-bit (row, col) key: 8 bits per pass.
RADIX_PASSES = 8

#: Fraction of radix scatter writes that miss coalescing entirely (the
#: rest fall into long enough per-digit runs to coalesce).  Calibration
#: constant, shared by every ESC pass.
SCATTER_RANDOM_FRACTION = 0.5

#: Triples sorted per slab: the radix sort runs on bounded slabs whose
#: ping-pong temp is SORT_SLAB triples, merged as it goes (thrust-style
#: bounded workspace).  The full triple list itself, however, stays live
#: -- the allocation that kills CUSP on cage15 / wb-edu.
SORT_SLAB = 1 << 26


class ESCSpGEMM(SpGEMMAlgorithm):
    """CUSP's ESC algorithm on the device model."""

    name = "cusp"

    def multiply(self, A: CSRMatrix, B: CSRMatrix, *,
                 precision: Precision | str = Precision.DOUBLE,
                 device: DeviceSpec = P100,
                 matrix_name: str = "",
                 faults: FaultPlan | None = None) -> SpGEMMResult:
        return self._run(A, B, precision, device, matrix_name, faults)

    def _cost_plan(self, ctx, A: CSRMatrix, B: CSRMatrix,
                   prod: ProductResult) -> None:
        vb = ctx.precision.value_bytes
        triple_bytes = 8 + vb                 # row (4) + col (4) + value
        nprod, nnz_out = prod.n_products, prod.nnz_out
        nnz_a = A.nnz

        # ---- count products (sizes the expansion) ----
        ctx.run("count", [count_products_kernel(prod.nnz_a, phase="count")])

        # ---- allocate the expansion and the sort ping-pong buffer (the
        # product count is read back to the host first) ----
        ctx.host_sync("count")
        triples = ctx.alloc("esc_triples", nprod * triple_bytes)
        pingpong = ctx.alloc("esc_sort_buffer",
                             min(nprod, SORT_SLAB) * triple_bytes)

        n_blocks = -(-max(1, nprod) // PRODUCTS_PER_BLOCK)

        # ---- expand ----
        expand = uniform_grid(
            {
                "flops": 2.0 * nprod,
                # read col_B + val_B per product, stream A once, write triples
                "gmem_coalesced_bytes": (nprod * (4.0 + vb)
                                         + nnz_a * (4.0 + vb + 16.0)
                                         + nprod * triple_bytes),
                # one rpt_B pair lookup per A nonzero
                "gmem_random": 1.0 * nnz_a,
            },
            n_blocks, "esc_expand", 256, phase="calc")
        ctx.run("calc", [expand])

        # ---- sort: RADIX_PASSES sweeps, each read + histogram + scatter ----
        coalesced_per_pass = nprod * triple_bytes * (
            1.0 + (1.0 - SCATTER_RANDOM_FRACTION))
        random_per_pass = nprod * SCATTER_RANDOM_FRACTION
        sort_kernels = [
            uniform_grid(
                {
                    "flops": 12.0 * nprod,        # digit extract + scan
                    "gmem_coalesced_bytes": coalesced_per_pass,
                    "gmem_random": random_per_pass,
                },
                n_blocks, f"esc_radix_pass{i}", 256, phase="calc")
            for i in range(RADIX_PASSES)
        ]
        ctx.run("calc", sort_kernels, use_streams=False)

        # ---- contract: flag runs, scan, reduce ----
        contract_kernel = uniform_grid(
            {
                "flops": 6.0 * nprod,
                "gmem_coalesced_bytes": (2.0 * nprod * triple_bytes
                                         + nnz_out * (8.0 + vb)),
            },
            n_blocks, "esc_contract", 256, phase="calc")

        # CUSP emits COO; the row array costs 4 extra bytes per nonzero
        ctx.alloc("C_coo", nnz_out * (8 + vb) + 4 * (A.n_rows + 1))
        ctx.run("calc", [contract_kernel])

        ctx.free(pingpong)
        ctx.free(triples)
