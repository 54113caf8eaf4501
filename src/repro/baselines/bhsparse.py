"""BHSPARSE: bin-based hybrid SpGEMM (Liu & Vinter, IPDPS 2014).

Per Sections II/V of the paper: rows are assigned to bins by their
*upper-bound* nnz (the intermediate-product count), and each bin runs the
method suited to its size -- a per-thread heap for small rows, a bitonic
ESC in shared memory for medium rows, and an iterative global-memory
merge (merge-path) for large rows.  Binning fixes the load imbalance that
cripples cuSPARSE on irregular matrices, but the framework allocates the
output at its *upper bound* (progressive allocation) and the merge bins
keep expanded product lists in global memory -- "BHSPARSE requires much
larger memory" (Section IV-B) and cannot run cage15 / wb-edu (Table III).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.base import SpGEMMAlgorithm, SpGEMMResult
from repro.baselines.common import row_chunk_grid
from repro.core import work as W
from repro.core.count_products import (chunk_maxes, chunk_sums,
                                       count_products_kernel,
                                       pass_over_rows_kernel)
from repro.gpu.device import P100, DeviceSpec
from repro.gpu.faults import FaultPlan
from repro.gpu.kernel import BlockWorks, KernelLaunch
from repro.sparse.csr import CSRMatrix
from repro.sparse.product import ProductResult
from repro.types import Precision

#: Upper-bound nnz boundary below which the per-thread heap method runs
#: (Liu & Vinter route only tiny rows through the heap).
HEAP_LIMIT = 32

#: Upper-bound nnz boundary below which the shared-memory bitonic ESC runs.
ESC_LIMIT = 512

#: Rows per block in the heap bins (one thread per row; small blocks
#: keep the grid wide enough to fill the device even for modest bins).
HEAP_ROWS_PER_BLOCK = 64

#: Intermediate products one bitonic-ESC block digests (rows are packed
#: until a block holds about this many products).
ESC_PRODUCTS_PER_BLOCK = 2048

#: Concurrently-resident merge-path rows (bounds the global buffer).
MERGE_CONCURRENCY = 128


@dataclass
class _Bins:
    """Row partition of the three method classes."""

    heap: np.ndarray
    esc: np.ndarray
    merge: np.ndarray


def _bin_rows(upper_bound: np.ndarray) -> _Bins:
    heap = np.flatnonzero(upper_bound <= HEAP_LIMIT)
    esc = np.flatnonzero((upper_bound > HEAP_LIMIT) & (upper_bound <= ESC_LIMIT))
    merge = np.flatnonzero(upper_bound > ESC_LIMIT)
    return _Bins(heap=heap, esc=esc, merge=merge)


def _sub_bins(rows: np.ndarray, upper_bound: np.ndarray,
              hi: int) -> list[np.ndarray]:
    """Split ``rows`` into power-of-two upper-bound sub-bins up to ``hi``.

    Bin ``b`` holds rows with ``b/2 < upper_bound <= b``.  The original
    implementation launches one kernel per bin (38 bins in total), each
    with its own host-side bookkeeping -- that per-bin launch overhead is
    part of BHSPARSE's cost profile on small inputs and is reproduced by
    emitting one :class:`KernelLaunch` per sub-bin.
    """
    out = []
    b = 1
    while b // 2 < hi:
        sel = rows[(upper_bound[rows] > b // 2) & (upper_bound[rows] <= b)]
        if sel.shape[0]:
            out.append(sel)
        b *= 2
    return out


def _progressive_alloc_rows(row_products: np.ndarray,
                            nnz_out: np.ndarray) -> np.ndarray:
    """Per-row output allocation of the progressive scheme: each row gets
    its power-of-two bin boundary (at least the heap bin, at most the
    intermediate-product upper bound)."""
    bound = np.maximum(float(HEAP_LIMIT), 2.0 * np.asarray(nnz_out, np.float64))
    bin_boundary = 2.0 ** np.ceil(np.log2(np.maximum(bound, 1.0)))
    return np.minimum(np.asarray(row_products, np.float64), bin_boundary)


def _heap_kernel(nnz_a, nprod, nnz_out, precision: Precision,
                 device: DeviceSpec) -> KernelLaunch:
    """One thread per row, binary heap of the row's B-row cursors.

    Each product costs a heap sift (log2 of the heap size = the row's
    A-nonzeros); the whole row is one serial chain in its thread, and --
    as with the cuSPARSE baseline's per-thread B walk -- each thread of a
    warp reads a different B row, so the B traffic is uncoalesced (one
    transaction per product).  The heap itself is thread-private and too
    large for registers for the deeper rows, so sifts partially spill to
    *local* memory: charged at a modest per-operation transaction fraction
    (heaps of the tiny-row bins mostly stay in registers).
    """
    nnz_a_f = np.asarray(nnz_a, dtype=np.float64)
    log_heap = np.log2(np.maximum(nnz_a_f, 2.0))
    nprod = np.asarray(nprod, dtype=np.float64)
    nnz_out_f = np.asarray(nnz_out, dtype=np.float64)
    vwords = precision.value_bytes / 4.0
    per_row_flops = nprod * (log_heap + 2.0)
    serial = nprod * 4.0 + np.ceil(nnz_a_f) \
        * device.mem_latency_cycles / device.mlp_per_warp
    cols = {
        "flops": chunk_sums(per_row_flops, HEAP_ROWS_PER_BLOCK),
        "shared_ops": chunk_sums(nprod * 2.0, HEAP_ROWS_PER_BLOCK),
        "gmem_coalesced_bytes": chunk_sums(
            8.0 + (4.0 + vwords * 4.0) * (nnz_a_f + nnz_out_f),
            HEAP_ROWS_PER_BLOCK),
        "gmem_random": chunk_sums(
            W.scattered_transactions(nnz_a)
            + nprod * (1.0 + 0.5 * vwords)
            + nprod * log_heap * 0.08,          # local-memory heap spills
            HEAP_ROWS_PER_BLOCK),
        "serial_cycles": chunk_maxes(serial, HEAP_ROWS_PER_BLOCK),
    }
    n_blocks = cols["flops"].shape[0]
    return KernelLaunch(name="bhsparse_heap", block_threads=HEAP_ROWS_PER_BLOCK,
                        shared_bytes_per_block=HEAP_ROWS_PER_BLOCK * 8,
                        works=BlockWorks(n_blocks=n_blocks, **cols),
                        stream=0, phase="calc")


def _esc_kernel(nnz_a, nprod, nnz_out, precision: Precision) -> KernelLaunch:
    """Bitonic ESC in shared memory; several small rows packed per block.

    Each row is expanded into shared memory, bitonic-sorted
    (``nprod * log2(nprod)^2`` comparisons -- the asymptotic loss against
    the proposal's O(nprod) hash) and contracted.  Rows are packed so each
    block digests about :data:`ESC_PRODUCTS_PER_BLOCK` products, as in the
    original implementation's per-bin launches.
    """
    nprod_f = np.asarray(nprod, dtype=np.float64)
    mean_prod = max(1.0, float(nprod_f.mean()))
    rows_per_block = max(1, int(ESC_PRODUCTS_PER_BLOCK / mean_prod))
    # bitonic networks run on power-of-two sizes: rows are padded to the
    # bin boundary before sorting; each network stage is a compare plus a
    # conditional key/value exchange (~3 ops) and touches both entries in
    # shared memory
    padded = 2.0 ** np.ceil(np.log2(np.maximum(nprod_f, 2.0)))
    log2 = np.log2(padded)
    vwords = precision.value_bytes / 4.0
    bitonic = padded * log2 * log2
    cols = {
        "flops": chunk_sums(3.0 * bitonic + 4.0 * nprod_f, rows_per_block),
        "shared_ops": chunk_sums(
            nprod_f * (2.0 + vwords) + bitonic * (1.0 + vwords),
            rows_per_block),
        "gmem_coalesced_bytes": chunk_sums(
            W.stream_bytes_numeric(nnz_a, nprod, nnz_out, precision),
            rows_per_block),
        "gmem_random": chunk_sums(W.scattered_transactions(nnz_a),
                                  rows_per_block),
    }
    shared = ESC_PRODUCTS_PER_BLOCK * (4 + precision.value_bytes)
    n_blocks = cols["flops"].shape[0]
    return KernelLaunch(name="bhsparse_esc", block_threads=256,
                        shared_bytes_per_block=shared,
                        works=BlockWorks(n_blocks=n_blocks, **cols),
                        stream=0, phase="calc")


def _merge_kernel(nnz_a, nprod, nnz_out, precision: Precision) -> KernelLaunch:
    """Block per row: iterative pairwise merging of the row's B rows in
    global memory (merge-path), ``log2(nnz_a)`` streaming passes."""
    nnz_a_f = np.asarray(nnz_a, dtype=np.float64)
    nprod_f = np.asarray(nprod, dtype=np.float64)
    passes = np.ceil(np.log2(np.maximum(nnz_a_f, 2.0)))
    entry = 4.0 + precision.value_bytes
    cols = {
        "flops": nprod_f * passes * 3.0,
        "gmem_coalesced_bytes": (W.stream_bytes_numeric(nnz_a, nprod, nnz_out,
                                                        precision)
                                 + 2.0 * entry * nprod_f * passes),
        "gmem_random": W.scattered_transactions(nnz_a) + nprod_f * 0.05,
    }
    return KernelLaunch(name="bhsparse_merge", block_threads=256,
                        shared_bytes_per_block=0,
                        works=BlockWorks(n_blocks=nprod_f.shape[0], **cols),
                        stream=0, phase="calc")


class BHSparseSpGEMM(SpGEMMAlgorithm):
    """The BHSPARSE baseline on the device model."""

    name = "bhsparse"

    def multiply(self, A: CSRMatrix, B: CSRMatrix, *,
                 precision: Precision | str = Precision.DOUBLE,
                 device: DeviceSpec = P100,
                 matrix_name: str = "",
                 faults: FaultPlan | None = None) -> SpGEMMResult:
        return self._run(A, B, precision, device, matrix_name, faults)

    def _cost_plan(self, ctx, A: CSRMatrix, B: CSRMatrix,
                   prod: ProductResult) -> None:
        p = ctx.precision
        entry = 4 + p.value_bytes
        row_products = prod.row_products
        nnz_a_all = prod.nnz_a.astype(np.float64)
        nnz_out_all = prod.row_nnz.astype(np.float64)
        n_rows = A.n_rows

        # ---- upper bound + binning (bin sizes are read back to the host
        # to size the per-bin launches) ----
        d_bound = ctx.alloc("upper_bound", 4 * n_rows, phase="setup")
        ctx.run("count", [count_products_kernel(prod.nnz_a, phase="count")])
        ctx.host_sync("count")
        upper = np.minimum(row_products, B.n_cols)
        bins = _bin_rows(upper)
        d_bins = ctx.alloc("bin_rows", 8 * n_rows, phase="setup")
        ctx.run("setup", [pass_over_rows_kernel("bhsparse_binning", n_rows, 6.0)])
        ctx.host_sync("setup")

        # ---- progressive output allocation at the upper bound: rows are
        # allocated at their power-of-two bin boundary, capped by the
        # product count (the framework's 2-level progressive scheme) ----
        c_ub = ctx.alloc("C_upper_bound",
                         int(_progressive_alloc_rows(row_products,
                                                     nnz_out_all).sum()) * entry
                         + 4 * (n_rows + 1))

        # ---- merge-bin global buffers (ping-pong, bounded concurrency) ----
        merge_buf = None
        if bins.merge.shape[0]:
            heavy = np.sort(row_products[bins.merge])[::-1]
            live = heavy[:MERGE_CONCURRENCY]
            merge_buf = ctx.alloc("merge_buffers", int(2 * entry * live.sum()))

        # ---- per-bin kernels (one launch per power-of-two sub-bin, as in
        # the original's 38-bin design; serialized on one stream) ----
        kernels = []
        for sub in _sub_bins(bins.heap, upper, HEAP_LIMIT):
            kernels.append(_heap_kernel(nnz_a_all[sub], row_products[sub],
                                        nnz_out_all[sub], p, ctx.device))
        for sub in _sub_bins(bins.esc, upper, ESC_LIMIT):
            kernels.append(_esc_kernel(nnz_a_all[sub], row_products[sub],
                                       nnz_out_all[sub], p))
        if bins.merge.shape[0]:
            kernels.append(_merge_kernel(nnz_a_all[bins.merge],
                                         row_products[bins.merge],
                                         nnz_out_all[bins.merge], p))
        ctx.run("calc", kernels, use_streams=False)

        # ---- compact the upper-bound allocation into final CSR ----
        ctx.alloc("C", prod.C.device_bytes(p))
        compact = row_chunk_grid(
            {"gmem_coalesced_bytes": 2.0 * entry * nnz_out_all + 8.0,
             "flops": nnz_out_all},
            256, "bhsparse_compact", 256, phase="calc")
        ctx.run("calc", [compact])

        if merge_buf is not None:
            ctx.free(merge_buf)
        for buf in (c_ub, d_bins, d_bound):
            ctx.free(buf)
