"""cuSPARSE-style two-phase hash SpGEMM (Demouth, GTC 2012).

Per Section V of the paper: a counting phase and a numeric phase, each
hashing column indices per row with a warp per row into a fixed-size
shared-memory table that *falls through to global memory* when it
overflows -- "this algorithm causes many random global memory access and
do not efficiently utilize fast shared memory".  There is no grouping:
rows are processed in natural order, four warps (rows) per block, so a
single huge row (webbase's 4700-nnz row, cit-Patents hubs) holds its block
-- and its SM -- hostage, which is exactly the load imbalance the paper's
Table III exposes (0.028 GFLOPS on cit-Patents).

Memory model: inputs + output + per-phase workspaces.  Rows that overflow
the shared table get per-row global tables; the workspace is allocated for
``HEAVY_CHUNK`` rows at a time (cuSPARSE bounds its buffer), which keeps
cuSPARSE's footprint moderate -- it is the *baseline* (ratio 1.0) of
Figure 4 and the only library besides the proposal that can run cage15 and
wb-edu.
"""

from __future__ import annotations

import numpy as np

from repro.base import SpGEMMAlgorithm, SpGEMMResult
from repro.baselines.common import row_chunk_grid
from repro.core import work as W
from repro.core.count_products import count_products_kernel
from repro.core.hashtable import expected_cas, expected_probes
from repro.gpu.device import P100, DeviceSpec
from repro.gpu.faults import FaultPlan
from repro.sparse.csr import CSRMatrix
from repro.sparse.product import ProductResult
from repro.types import Precision, next_pow2_array

#: Shared hash-table entries per row (warp) in the counting phase.
SYMBOLIC_TABLE = 1024

#: Shared hash-table entries per row (warp) in the numeric phase.
NUMERIC_TABLE = 512

#: Warps (= rows) per thread block.
ROWS_PER_BLOCK = 4

#: Heavy rows whose global *counting* tables (sized by intermediate
#: products) are live concurrently.
HEAVY_CHUNK_SYMBOLIC = 512

#: Heavy rows whose global *numeric* tables (sized by output nnz) are live
#: concurrently.
HEAVY_CHUNK_NUMERIC = 4096


def _phase_columns(nnz_a, nprod, nnz_out, tsize: int, precision: Precision,
                   numeric: bool) -> dict[str, np.ndarray]:
    """Per-row work with shared/global fall-through at ``tsize`` entries.

    The first ``tsize`` distinct columns of a row hash in shared memory;
    the overflow fraction of its products falls through to a per-row
    global table (scattered accesses + global atomics).

    Crucially, Demouth's kernel hands each *thread* of the row's warp one
    A-nonzero and lets it walk the matching B row element by element, so
    the ``col_B`` / ``val_B`` reads of the 32 threads touch 32 unrelated B
    rows -- uncoalesced: one transaction per product instead of streaming.
    The proposal assigns a *warp* per A-nonzero (contiguous segment reads),
    which is the "memory access optimization" of Section III-B.1 and the
    main modeled difference on regular matrices.
    """
    nnz_a = np.asarray(nnz_a, dtype=np.float64)
    nprod = np.asarray(nprod, dtype=np.float64)
    nnz_out = np.asarray(nnz_out, dtype=np.float64)
    vwords = precision.value_bytes / 4.0

    shared_frac = np.minimum(1.0, tsize / np.maximum(nnz_out, 1.0))
    shared_prod = nprod * shared_frac
    global_prod = nprod - shared_prod
    shared_nnz = np.minimum(nnz_out, tsize)
    global_nnz = nnz_out - shared_nnz
    global_table = np.maximum(2.0 * global_nnz, 2.0)

    shared_ops = tsize + expected_probes(shared_prod, shared_nnz, tsize)
    shared_atomics = expected_cas(shared_nnz, tsize)
    # uncoalesced B walk: one transaction per product (col, + value when
    # numeric), plus the rpt_B lookups, plus global-table probes
    b_read_trans = nprod * (1.0 + (0.5 * vwords if numeric else 0.0))
    gmem_random = (W.scattered_transactions(nnz_a) + b_read_trans
                   + expected_probes(global_prod, global_nnz, global_table))
    gmem_atomics = expected_cas(global_nnz, global_table)

    # streamed traffic: the row of A, and the output row when numeric
    coalesced = 8.0 + (4.0 + (vwords * 4.0 if numeric else 0.0)) * nnz_a + 4.0

    if numeric:
        coalesced = coalesced + (4.0 + vwords * 4.0) * nnz_out
        shared_ops = (shared_ops + tsize * vwords + shared_prod * vwords
                      + tsize + shared_nnz * (2.0 + vwords))
        shared_atomics = shared_atomics + shared_prod
        gmem_random = gmem_random + global_prod
        gmem_atomics = gmem_atomics + global_prod
        # rank sort shared rows; bitonic for overflowed rows
        log2 = np.log2(np.maximum(nnz_out, 2.0))
        sort_flops = np.where(global_nnz > 0, nnz_out * log2 * log2,
                              nnz_out * nnz_out)
        flops = W.hash_flops(nprod) + 2.0 * nprod + sort_flops
    else:
        flops = W.hash_flops(nprod)

    return {
        "flops": flops,
        "shared_ops": shared_ops,
        "shared_atomics": shared_atomics,
        "gmem_coalesced_bytes": coalesced,
        "gmem_random": gmem_random,
        "gmem_atomics": gmem_atomics,
    }


class CuSparseSpGEMM(SpGEMMAlgorithm):
    """The cuSPARSE-style baseline on the device model."""

    name = "cusparse"

    @staticmethod
    def _workspace_bytes(nnz_out: np.ndarray, sizing: np.ndarray, tsize: int,
                         entry_bytes: int, chunk: int) -> int:
        """Global-table workspace: rows overflowing the shared table get
        full-row global tables sized ``next_pow2(sizing)``, processed (and
        thus resident) ``chunk`` rows at a time."""
        heavy = nnz_out > tsize
        if not heavy.any():
            return 0
        sizes = np.sort(next_pow2_array(np.asarray(sizing)[heavy]))[::-1]
        best = 0
        for lo in range(0, sizes.shape[0], chunk):
            best = max(best, int(sizes[lo:lo + chunk].sum()))
        return best * entry_bytes

    def multiply(self, A: CSRMatrix, B: CSRMatrix, *,
                 precision: Precision | str = Precision.DOUBLE,
                 device: DeviceSpec = P100,
                 matrix_name: str = "",
                 faults: FaultPlan | None = None) -> SpGEMMResult:
        return self._run(A, B, precision, device, matrix_name, faults)

    def _cost_plan(self, ctx, A: CSRMatrix, B: CSRMatrix,
                   prod: ProductResult) -> None:
        p = ctx.precision
        row_products = prod.row_products
        nnz_a = prod.nnz_a.astype(np.float64)
        nnz_out = prod.row_nnz.astype(np.float64)
        n_rows = A.n_rows
        block_threads = ROWS_PER_BLOCK * ctx.device.warp_size

        # ---- counting phase (global tables sized by products) ----
        d_nnz = ctx.alloc("row_nnz", 4 * (n_rows + 1))
        ctx.run("count", [count_products_kernel(prod.nnz_a, phase="count")])
        ws = self._workspace_bytes(nnz_out, row_products, SYMBOLIC_TABLE, 4,
                                   HEAVY_CHUNK_SYMBOLIC)
        ws_buf = ctx.alloc("symbolic_workspace", ws) if ws else None
        sym = row_chunk_grid(
            _phase_columns(nnz_a, row_products, nnz_out, SYMBOLIC_TABLE, p,
                           numeric=False),
            ROWS_PER_BLOCK, "cusparse_count", block_threads,
            shared_bytes=ROWS_PER_BLOCK * SYMBOLIC_TABLE * 4, phase="count")
        ctx.run("count", [sym])
        if ws_buf is not None:
            ctx.free(ws_buf)

        # ---- output allocation: nnz read back to the host (sync), then
        # the numeric phase accumulates into a temporary value array before
        # the final compacted write ----
        ctx.host_sync("count")
        ctx.alloc("C", prod.C.device_bytes(p))
        c_tmp = ctx.alloc("C_compaction_index", prod.nnz_out * 4)

        # ---- numeric phase (global tables sized by 2 x nnz) ----
        entry = p.hash_entry_bytes
        ws = self._workspace_bytes(nnz_out, 2 * nnz_out, NUMERIC_TABLE, entry,
                                   HEAVY_CHUNK_NUMERIC)
        ws_buf = ctx.alloc("numeric_workspace", ws) if ws else None
        num = row_chunk_grid(
            _phase_columns(nnz_a, row_products, nnz_out, NUMERIC_TABLE, p,
                           numeric=True),
            ROWS_PER_BLOCK, "cusparse_numeric", block_threads,
            shared_bytes=ROWS_PER_BLOCK * NUMERIC_TABLE * entry, phase="calc")
        ctx.run("calc", [num])
        if ws_buf is not None:
            ctx.free(ws_buf)
        ctx.free(c_tmp)
        ctx.free(d_nnz)
