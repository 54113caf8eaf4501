"""The CPU algorithm family: hash, heap and propagation blocking.

Three registry algorithms sharing one skeleton:

* ``hash-cpu`` -- the paper's hash accumulator as Nagasaka-Azad port it
  to KNL/multicore (arXiv 1804.01698): per-row thread-private hash
  tables, two passes (symbolic count, numeric fill), thread-parallel
  row blocking.
* ``heap-cpu`` -- their heap accumulator: a k-way merge over the row's
  A-entries; slower per product (``log nnz_a`` comparisons) but with a
  tiny, L1-resident workspace -- the lowest peak memory of the family.
* ``propblock`` -- Gu et al.'s propagation blocking (arXiv 2002.11302):
  phase 1 streams every (column, value) product into column-range bins
  (scatter becomes bandwidth), phase 2 merges each bin with a dense
  L2-resident accumulator.  Highest peak memory (it materializes all
  products), best behavior when rows are long and hash tables spill.

All three run through the shared leaf run of every GPU algorithm
(:meth:`~repro.base.SpGEMMAlgorithm._run`), which computes the product
and its row statistics once -- so they are bit-identical to the
reference oracle by construction -- and drives the shared
:class:`~repro.base.RunContext`, so the conservation laws hold and the
typed event stream (grouping decisions, table stats, charges) has the
same schema the observability layer already consumes.  Each supplies
only its cost plan, after the setup-phase product count they share.
"""

from __future__ import annotations

import numpy as np

from repro.base import SpGEMMAlgorithm, SpGEMMResult
from repro.core.count_products import (count_products_kernel,
                                       pass_over_rows_kernel)
from repro.cpu import plan as cplan
from repro.cpu.device import KNL64
from repro.cpu.params import CPUParams
from repro.gpu.faults import FaultPlan
from repro.obs import events as OBS
from repro.sparse.csr import CSRMatrix
from repro.sparse.product import ProductResult
from repro.types import Precision


class _CPUAlgorithm(SpGEMMAlgorithm):
    """Shared skeleton: params handling and the product count."""

    backend_name = "cpu"
    param_type = CPUParams

    def __init__(self, *, use_streams: bool = True,
                 params: "CPUParams | dict | None" = None) -> None:
        self.use_streams = use_streams
        self._init_params(params)

    def multiply(self, A: CSRMatrix, B: CSRMatrix, *,
                 precision: Precision | str = Precision.DOUBLE,
                 device=KNL64, matrix_name: str = "",
                 faults: FaultPlan | None = None) -> SpGEMMResult:
        return self._run(A, B, precision, device, matrix_name, faults)

    # -- shared pieces -------------------------------------------------------

    def _count_products(self, ctx, A: CSRMatrix, prod: ProductResult):
        """The chunking decisions and the setup-phase product count
        shared by all three algorithms: ``(threads, block_rows, nnz_a,
        d_products)``."""
        n_rows = A.n_rows
        threads = cplan.threads_for(ctx.device, self.params)
        block_rows = cplan.block_rows_for(ctx.device, self.params, n_rows)
        nnz_a = prod.nnz_a.astype(np.float64)

        d_products = ctx.alloc("row_products", 4 * n_rows, phase="setup")
        ctx.run("setup", [count_products_kernel(
            nnz_a, name="cpu_count_products", threads=threads,
            rows_per_block=block_rows)],
            use_streams=self.use_streams)
        return threads, block_rows, nnz_a, d_products

    @staticmethod
    def _rowblock_stats(assign: str, n_rows: int, block_rows: int,
                        counts: np.ndarray) -> list[dict]:
        """One GROUPING record per run: the CPU family has one uniform
        row-block 'group' where the GPU has Table I's ladder."""
        counts = np.asarray(counts)
        return [{
            "group": 0,
            "assign": assign,
            "rows": int(n_rows),
            "block_rows": int(block_rows),
            "count_min": int(counts.min(initial=0)),
            "count_max": int(counts.max(initial=0)),
        }]

    @staticmethod
    def _table_stats(entries: np.ndarray, loads: np.ndarray) -> list[dict]:
        loads = np.asarray(loads, dtype=np.float64)
        return [{
            "group": 0,
            "tables": int(len(entries)),
            "table_entries": int(np.asarray(entries).sum()),
            "load_mean": float(loads.mean()) if loads.size else 0.0,
            "load_max": float(loads.max(initial=0.0)),
        }]


class HashCPUSpGEMM(_CPUAlgorithm):
    """Hash-accumulator SpGEMM on thread-private tables (Nagasaka-Azad)."""

    name = "hash-cpu"

    def _cost_plan(self, ctx, A: CSRMatrix, B: CSRMatrix,
                   prod: ProductResult) -> None:
        threads, block_rows, nnz_a, d_products = self._count_products(
            ctx, A, prod)
        n_rows, p, spec = A.n_rows, ctx.precision, ctx.device
        row_products, row_nnz = prod.row_products, prod.row_nnz

        if ctx.observed:
            ctx.emit_each(OBS.GROUPING, "symbolic", self._rowblock_stats(
                "ROWBLOCK", n_rows, block_rows, row_products))

        # -- count: symbolic pass on thread-private key-only tables ----
        d_nnz = ctx.alloc("row_nnz", 4 * (n_rows + 1), phase="setup")
        entries = cplan.hash_table_entries(row_nnz)
        # each worker owns one table sized for the worst row it may meet
        max_entries = int(entries.max(initial=2))
        sym_tables = ctx.alloc("thread_tables_symbolic",
                               threads * max_entries * 4, phase="count")
        if ctx.observed:
            loads = row_nnz / np.maximum(entries, 1)
            ctx.emit_each(OBS.HASH_STATS, "symbolic",
                          self._table_stats(entries, loads))
        ctx.run("count", [cplan.hash_symbolic_cpu_kernel(
            nnz_a, row_products, row_nnz, spec,
            threads=threads, block_rows=block_rows)],
            use_streams=self.use_streams)
        ctx.free(sym_tables)
        ctx.run("count", [pass_over_rows_kernel(
            "scan_rpt_c", n_rows, 2.0, threads=threads,
            rows_per_block=block_rows, phase="count")],
            use_streams=self.use_streams)

        # -- allocate C after the host reads the total back ----
        ctx.host_sync("count")
        ctx.alloc("C", prod.C.device_bytes(p), phase="malloc")

        # -- calc: numeric pass on key+value tables ----
        if ctx.observed:
            ctx.emit_each(OBS.GROUPING, "numeric", self._rowblock_stats(
                "ROWBLOCK", n_rows, block_rows, row_nnz))
        num_tables = ctx.alloc(
            "thread_tables_numeric",
            threads * max_entries * (4 + p.value_dtype.itemsize),
            phase="calc")
        if ctx.observed:
            loads = row_nnz / np.maximum(entries, 1)
            ctx.emit_each(OBS.HASH_STATS, "numeric",
                          self._table_stats(entries, loads))
        ctx.run("calc", [cplan.hash_numeric_cpu_kernel(
            nnz_a, row_products, row_nnz, spec, p,
            threads=threads, block_rows=block_rows)],
            use_streams=self.use_streams)

        for buf in (num_tables, d_nnz, d_products):
            ctx.free(buf)


class HeapCPUSpGEMM(_CPUAlgorithm):
    """Heap-accumulator SpGEMM: k-way merge per row (Nagasaka-Azad)."""

    name = "heap-cpu"

    def _cost_plan(self, ctx, A: CSRMatrix, B: CSRMatrix,
                   prod: ProductResult) -> None:
        threads, block_rows, nnz_a, d_products = self._count_products(
            ctx, A, prod)
        n_rows, p, spec = A.n_rows, ctx.precision, ctx.device
        row_products, row_nnz = prod.row_products, prod.row_nnz

        if ctx.observed:
            ctx.emit_each(OBS.GROUPING, "symbolic", self._rowblock_stats(
                "ROWBLOCK", n_rows, block_rows, row_products))

        # -- count: symbolic merge (no tables -- a heap of A-cursors) ----
        d_nnz = ctx.alloc("row_nnz", 4 * (n_rows + 1), phase="setup")
        max_heap = int(np.max(nnz_a, initial=1))
        heaps = ctx.alloc("thread_heaps", threads * max(1, max_heap) * 16,
                          phase="count")
        ctx.run("count", [cplan.heap_cpu_kernel(
            "cpu_heap_symbolic", nnz_a, row_products, row_nnz, p,
            numeric=False, threads=threads, block_rows=block_rows)],
            use_streams=self.use_streams)
        ctx.run("count", [pass_over_rows_kernel(
            "scan_rpt_c", n_rows, 2.0, threads=threads,
            rows_per_block=block_rows, phase="count")],
            use_streams=self.use_streams)

        ctx.host_sync("count")
        ctx.alloc("C", prod.C.device_bytes(p), phase="malloc")

        # -- calc: numeric merge ----
        if ctx.observed:
            ctx.emit_each(OBS.GROUPING, "numeric", self._rowblock_stats(
                "ROWBLOCK", n_rows, block_rows, row_nnz))
        ctx.run("calc", [cplan.heap_cpu_kernel(
            "cpu_heap_numeric", nnz_a, row_products, row_nnz, p,
            numeric=True, threads=threads, block_rows=block_rows,
            phase="calc")],
            use_streams=self.use_streams)

        for buf in (heaps, d_nnz, d_products):
            ctx.free(buf)


class PropBlockSpGEMM(_CPUAlgorithm):
    """Two-phase propagation-blocking SpGEMM (Gu et al.)."""

    name = "propblock"

    def _cost_plan(self, ctx, A: CSRMatrix, B: CSRMatrix,
                   prod: ProductResult) -> None:
        threads, block_rows, nnz_a, d_products = self._count_products(
            ctx, A, prod)
        n_rows, p, spec = A.n_rows, ctx.precision, ctx.device
        row_products, n_products, C = prod.row_products, prod.n_products, prod.C

        vb = p.value_dtype.itemsize
        bins = cplan.bins_for(spec, self.params, n_products, vb)
        bin_width = max(1, -(-B.n_cols // bins))

        if ctx.observed:
            ctx.emit_each(OBS.GROUPING, "symbolic", self._rowblock_stats(
                "BIN", n_rows, block_rows, row_products))

        # -- count (phase 1): propagate all products into column bins ----
        # the whole intermediate product set is materialized: the
        # bandwidth-for-memory trade at the heart of the technique
        bin_bufs = ctx.alloc("bin_buffers",
                             max(1, n_products) * (4 + vb) + bins * 8,
                             phase="count")
        d_nnz = ctx.alloc("row_nnz", 4 * (n_rows + 1), phase="setup")
        ctx.run("count", [cplan.propagate_cpu_kernel(
            nnz_a, row_products, p, threads=threads, block_rows=block_rows,
            bins=bins)],
            use_streams=self.use_streams)
        ctx.run("count", [pass_over_rows_kernel(
            "scan_rpt_c", n_rows, 2.0, threads=threads,
            rows_per_block=block_rows, phase="count")],
            use_streams=self.use_streams)

        ctx.host_sync("count")
        ctx.alloc("C", prod.C.device_bytes(p), phase="malloc")

        # -- calc (phase 2): merge each bin with a dense accumulator ----
        # per-bin load from the functional result's column distribution;
        # products are attributed proportionally (deterministic)
        bin_nnz = np.bincount(np.asarray(C.col) // bin_width,
                              minlength=bins).astype(np.float64)[:bins]
        scale = n_products / max(1, C.nnz)
        bin_products = bin_nnz * scale
        if ctx.observed:
            ctx.emit_each(OBS.GROUPING, "numeric", [{
                "group": 0, "assign": "BIN", "rows": int(bins),
                "block_rows": int(bin_width),
                "count_min": int(bin_nnz.min(initial=0)),
                "count_max": int(bin_nnz.max(initial=0)),
            }])
            loads = bin_nnz / float(bin_width)
            ctx.emit_each(OBS.HASH_STATS, "numeric", [{
                "group": 0, "tables": int(bins),
                "table_entries": int(bins * bin_width),
                "load_mean": float(loads.mean()) if loads.size else 0.0,
                "load_max": float(loads.max(initial=0.0)),
            }])
        accums = ctx.alloc("bin_accumulators",
                           threads * bin_width * (4 + vb), phase="calc")
        ctx.run("calc", [cplan.merge_cpu_kernel(
            bin_products, bin_nnz, bin_width, spec, p, threads=threads)],
            use_streams=self.use_streams)

        for buf in (accums, bin_bufs, d_nnz, d_products):
            ctx.free(buf)
