"""Kernel builders for the CPU algorithms (the cost side).

Every builder takes the per-row arrays the functional computation
already produced -- ``nnz_a`` (A's row lengths), ``nprod`` (intermediate
products per row), ``nnz_out`` (C's row lengths) -- chunks them into
``block_rows``-row scheduling chunks with the shared
:func:`~repro.core.count_products.chunk_sums` primitives, and emits one
:class:`~repro.gpu.kernel.KernelLaunch` whose chunks carry the CPU
reinterpretation of the seven work columns (see :mod:`repro.cpu.cost`).
Alg. 2's count and the streaming row pass are the core builders
(:mod:`repro.core.count_products`), called with the CPU's chunking.

Working on bare arrays (not matrices) lets the autotuner score the same
builders on a reconstructed :class:`~repro.tune.sketch.MatrixSketch` --
:func:`modeled_hash_total` is the CPU analogue of
:func:`repro.tune.tuner.modeled_total`.
"""

from __future__ import annotations

import numpy as np

from repro.core.count_products import chunk_maxes, chunk_sums
from repro.cpu.cost import kernel_duration_alone
from repro.cpu.device import CPUSpec
from repro.cpu.params import CPUParams
from repro.gpu.kernel import BlockWorks, KernelLaunch
from repro.types import Precision, next_pow2_array

#: Average probe chain per hash access at the <= 0.5 load factor the
#: table sizing guarantees (same figure the GPU planners charge).
PROBE_FACTOR = 1.5

#: Hard cap on the propagation-blocking bin count.
MAX_BINS = 4096


def threads_for(spec: CPUSpec, params: CPUParams) -> int:
    """Worker threads of every parallel region (default: all HW threads)."""
    if params.threads is None:
        return spec.total_threads
    return max(1, min(int(params.threads), spec.total_threads))


def block_rows_for(spec: CPUSpec, params: CPUParams, n_rows: int) -> int:
    """Rows per scheduling chunk (default: ~4 chunks per worker thread,
    capped at 512 rows so one monster chunk cannot serialize a phase)."""
    if params.block_rows is not None:
        return max(1, int(params.block_rows))
    threads = threads_for(spec, params)
    return max(1, min(512, -(-n_rows // (4 * threads))))


def bins_for(spec: CPUSpec, params: CPUParams, n_products: int,
             value_bytes: int) -> int:
    """Propagation-blocking bin count (default: size each bin's payload
    to half the L2, the residency Gu et al. aim the merge phase at)."""
    if params.bins is not None:
        return max(1, min(int(params.bins), MAX_BINS))
    payload = max(1, n_products) * (4 + value_bytes)
    return max(1, min(MAX_BINS, -(-payload // max(1, spec.l2_bytes // 2))))


def cache_penalty_array(table_bytes: np.ndarray, spec: CPUSpec) -> np.ndarray:
    """Vectorized :meth:`~repro.cpu.device.CPUSpec.cache_level_penalty`."""
    tb = np.asarray(table_bytes, dtype=np.float64)
    return np.select([tb <= spec.l1_bytes, tb <= spec.l2_bytes],
                     [1.0, spec.l2_penalty], default=spec.llc_penalty)


# -- hash accumulator (Nagasaka-Azad) ----------------------------------------


def hash_table_entries(nnz_out: np.ndarray) -> np.ndarray:
    """Per-row hash-table entries: next power of two above twice the row
    nnz (load factor <= 0.5), floored at 2."""
    return next_pow2_array(
        np.maximum(2, 2 * np.asarray(nnz_out, dtype=np.int64)))


def hash_symbolic_cpu_kernel(nnz_a, nprod, nnz_out, spec: CPUSpec, *,
                             threads: int, block_rows: int, stream: int = 0,
                             phase: str = "count") -> KernelLaunch:
    """Symbolic pass: insert every product's column into the row's
    thread-private key-only table; probes cost more once the table
    spills L1 (the plan-time cache-level split)."""
    nnz_a = np.asarray(nnz_a, dtype=np.float64)
    nprod = np.asarray(nprod, dtype=np.float64)
    entries = hash_table_entries(nnz_out).astype(np.float64)
    penalty = cache_penalty_array(entries * 4.0, spec)
    probes = nprod * PROBE_FACTOR * penalty + entries  # + table clear
    works = BlockWorks(
        flops=chunk_sums(nprod, block_rows),           # hash computation
        shared_ops=chunk_sums(probes, block_rows),
        gmem_coalesced_bytes=chunk_sums(
            8.0 + 4.0 * nnz_a + 4.0 * nprod + 4.0, block_rows),
        gmem_random=chunk_sums(nnz_a, block_rows),     # B row starts
    )
    return KernelLaunch(name="cpu_hash_symbolic", block_threads=threads,
                        shared_bytes_per_block=0, works=works, stream=stream,
                        phase=phase)


def hash_numeric_cpu_kernel(nnz_a, nprod, nnz_out, spec: CPUSpec,
                            precision: Precision | str, *, threads: int,
                            block_rows: int, stream: int = 0,
                            phase: str = "calc") -> KernelLaunch:
    """Numeric pass: accumulate values into key+value tables, then sort
    each row's survivors into CSR order."""
    p = Precision.parse(precision)
    vb = p.value_dtype.itemsize
    nnz_a = np.asarray(nnz_a, dtype=np.float64)
    nprod = np.asarray(nprod, dtype=np.float64)
    out = np.asarray(nnz_out, dtype=np.float64)
    entries = hash_table_entries(nnz_out).astype(np.float64)
    penalty = cache_penalty_array(entries * (4.0 + vb), spec)
    probes = nprod * PROBE_FACTOR * penalty + entries
    sort_ops = out * np.log2(np.maximum(2.0, out))
    works = BlockWorks(
        flops=chunk_sums(2.0 * nprod + sort_ops, block_rows),
        shared_ops=chunk_sums(probes + sort_ops, block_rows),
        gmem_coalesced_bytes=chunk_sums(
            8.0 + 4.0 * nnz_a + (4.0 + vb) * nprod + (4.0 + vb) * out,
            block_rows),
        gmem_random=chunk_sums(nnz_a, block_rows),
    )
    return KernelLaunch(name="cpu_hash_numeric", block_threads=threads,
                        shared_bytes_per_block=0, works=works, stream=stream,
                        phase=phase)


# -- heap accumulator (Nagasaka-Azad) ----------------------------------------


def heap_cpu_kernel(name: str, nnz_a, nprod, nnz_out, precision, *,
                    numeric: bool, threads: int, block_rows: int,
                    stream: int = 0, phase: str = "count") -> KernelLaunch:
    """K-way merge by a per-row binary heap of A-row cursors: every
    product costs ``log2(nnz_a)`` comparisons; the workspace (one heap
    entry per A-nonzero) is tiny and L1-resident, which is why heap-cpu
    has the lowest peak memory of the family."""
    p = Precision.parse(precision)
    vb = p.value_dtype.itemsize if numeric else 0
    nnz_a = np.asarray(nnz_a, dtype=np.float64)
    nprod = np.asarray(nprod, dtype=np.float64)
    out = np.asarray(nnz_out, dtype=np.float64)
    sift = nprod * np.ceil(np.log2(np.maximum(2.0, nnz_a)))
    flops = sift + (2.0 * nprod if numeric else 0.0)
    works = BlockWorks(
        flops=chunk_sums(flops, block_rows),
        shared_ops=chunk_sums(2.0 * sift, block_rows),
        gmem_coalesced_bytes=chunk_sums(
            8.0 + 4.0 * nnz_a + (4.0 + vb) * nprod + (4.0 + vb) * out,
            block_rows),
        gmem_random=chunk_sums(nnz_a, block_rows),
    )
    return KernelLaunch(name=name, block_threads=threads,
                        shared_bytes_per_block=0, works=works, stream=stream,
                        phase=phase)


# -- propagation blocking (Gu et al.) ----------------------------------------


def propagate_cpu_kernel(nnz_a, nprod, precision, *, threads: int,
                         block_rows: int, bins: int, stream: int = 0,
                         phase: str = "count") -> KernelLaunch:
    """Phase 1: stream every (column, value) product into its column
    bin.  Writes are sequential per bin (that is the whole trick --
    scatter becomes bandwidth), with one bin-cursor touch per product."""
    p = Precision.parse(precision)
    vb = p.value_dtype.itemsize
    nnz_a = np.asarray(nnz_a, dtype=np.float64)
    nprod = np.asarray(nprod, dtype=np.float64)
    # cursor touches hit at most `bins` distinct lines per chunk
    cursor = np.minimum(nprod, float(bins))
    works = BlockWorks(
        flops=chunk_sums(2.0 * nprod, block_rows),
        gmem_coalesced_bytes=chunk_sums(
            8.0 + 4.0 * nnz_a + 2.0 * (4.0 + vb) * nprod, block_rows),
        gmem_random=chunk_sums(nnz_a + cursor, block_rows),
    )
    return KernelLaunch(name="cpu_propagate", block_threads=threads,
                        shared_bytes_per_block=0, works=works, stream=stream,
                        phase=phase)


def merge_cpu_kernel(bin_products: np.ndarray, bin_nnz: np.ndarray,
                     bin_width: int, spec: CPUSpec, precision, *,
                     threads: int, stream: int = 0,
                     phase: str = "calc") -> KernelLaunch:
    """Phase 2: one chunk per bin -- read the bin's products back
    sequentially and accumulate into a dense column-range accumulator
    sized to the bin width (L2-resident by construction of the default
    bin count)."""
    p = Precision.parse(precision)
    vb = p.value_dtype.itemsize
    prods = np.asarray(bin_products, dtype=np.float64)
    out = np.asarray(bin_nnz, dtype=np.float64)
    accum_bytes = float(bin_width) * (4.0 + vb)
    penalty = float(spec.cache_level_penalty(int(accum_bytes)))
    works = BlockWorks(
        flops=prods + out,
        shared_ops=(prods + out) * penalty,
        gmem_coalesced_bytes=(4.0 + vb) * (prods + out),
        gmem_random=np.zeros_like(prods),
    )
    return KernelLaunch(name="cpu_merge_bins", block_threads=threads,
                        shared_bytes_per_block=0, works=works, stream=stream,
                        phase=phase)


# -- the autotuner's hooks ---------------------------------------------------


def candidate_space(spec: CPUSpec) -> list[CPUParams]:
    """The CPU search grid: threads x block_rows x bins.

    Candidate 0 is the all-default :class:`CPUParams`, and every
    candidate carries only its deviations -- the same convention as the
    GPU's :func:`~repro.tune.tuner.candidate_space`, so store entries
    and plan keys stay minimal.
    """
    threads_axis = [None] + sorted({spec.cores, spec.total_threads // 2}
                                   - {spec.total_threads})
    block_axis = [None, 32, 128, 512]
    bins_axis = [None, 256, 1024]
    out, seen = [], set()
    for t in threads_axis:
        for br in block_axis:
            for b in bins_axis:
                ov = CPUParams(threads=t, block_rows=br, bins=b)
                if ov.switches() not in seen:
                    seen.add(ov.switches())
                    out.append(ov)
    return out


def modeled_hash_total(sketch, spec: CPUSpec, precision: Precision | str,
                       params: CPUParams) -> float:
    """Analytic objective for hash-cpu on a sketch: modeled count+calc
    seconds (the CPU analogue of the GPU's sketch scoring).  Returns
    ``inf`` for degenerate parameter values so the tuner can rank
    without special-casing.
    """
    if ((params.threads is not None and params.threads < 1)
            or (params.block_rows is not None and params.block_rows < 1)
            or (params.bins is not None and params.bins < 1)):
        return float("inf")
    p = Precision.parse(precision)
    nnz_a, nprod, nnz_out = sketch.reconstruct()
    threads = threads_for(spec, params)
    block_rows = block_rows_for(spec, params, len(nnz_a))
    sym = hash_symbolic_cpu_kernel(nnz_a, nprod, nnz_out, spec,
                                   threads=threads, block_rows=block_rows)
    num = hash_numeric_cpu_kernel(nnz_a, nprod, nnz_out, spec, p,
                                  threads=threads, block_rows=block_rows)
    return (kernel_duration_alone(sym, spec, p)
            + kernel_duration_alone(num, spec, p)
            + 2.0 * spec.fork_join_us * 1e-6)
