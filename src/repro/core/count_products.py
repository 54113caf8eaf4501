"""Step (1) of Figure 1: the kernel charging Alg. 2's per-row product
count, whose functional result is
:func:`repro.sparse.expansion.intermediate_product_counts`.  The kernel
reads only ``rpt_A``, ``col_A`` and ``rpt_B`` -- "the execution cost is
relatively small compared to whole SpGEMM execution" (Section III-A).

The chunking primitives here serve every per-row kernel builder, and the
builders take per-row arrays, not matrices: ``nnz_a`` is A's row lengths
(``ProductResult.nnz_a`` in a leaf, the sketch's in the autotuner).
Both kernels serve both backends: a GPU block is :data:`BLOCK_THREADS`
threads, one per row; a CPU leaf passes its worker ``threads`` and
scheduling chunk as ``rows_per_block``.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel import BlockWorks, KernelLaunch

#: One thread per row, classic 256-thread blocks.
BLOCK_THREADS = 256


def _chunked(reduce: np.ufunc, per_row: np.ndarray, chunk: int) -> np.ndarray:
    """``reduce`` over consecutive chunks of ``chunk`` rows.  A per-row
    kernel over zero rows still launches one block, with no work, so
    zero rows make one zero chunk."""
    per_row = np.asarray(per_row, dtype=np.float64)
    if per_row.shape[0] == 0:
        return np.zeros(1)
    return reduce.reduceat(per_row, np.arange(0, per_row.shape[0], chunk))


def chunk_sums(per_row: np.ndarray, chunk: int) -> np.ndarray:
    """Sum ``per_row`` over consecutive chunks of ``chunk`` rows."""
    return _chunked(np.add, per_row, chunk)


def chunk_maxes(per_row: np.ndarray, chunk: int) -> np.ndarray:
    """Max of ``per_row`` over consecutive chunks of ``chunk`` rows."""
    return _chunked(np.maximum, per_row, chunk)


def count_products_kernel(nnz_a: np.ndarray, *,
                          name: str = "count_products",
                          threads: int = BLOCK_THREADS,
                          rows_per_block: int = BLOCK_THREADS,
                          stream: int = 0,
                          phase: str = "setup") -> KernelLaunch:
    """Kernel launch charging the cost of Alg. 2 over rows of lengths
    ``nnz_a``.

    Per row: the ``rpt_A`` pair (streamed), ``col_A`` entries (streamed),
    one scattered ``rpt_B`` pair load per A-nonzero, one add per A-nonzero,
    and the 4-byte result store.
    """
    nnz_a = np.asarray(nnz_a, dtype=np.float64)
    works = BlockWorks(flops=chunk_sums(nnz_a, rows_per_block),
                       gmem_coalesced_bytes=chunk_sums(8.0 + 4.0 * nnz_a + 4.0,
                                                       rows_per_block),
                       gmem_random=chunk_sums(nnz_a, rows_per_block))
    return KernelLaunch(name=name, block_threads=threads,
                        shared_bytes_per_block=0, works=works, stream=stream,
                        phase=phase)


def pass_over_rows_kernel(name: str, n_rows: int, words_per_row: float,
                          *, threads: int = BLOCK_THREADS,
                          rows_per_block: int = BLOCK_THREADS,
                          stream: int = 0, phase: str = "setup") -> KernelLaunch:
    """Generic streaming pass over per-row arrays (grouping scatter, scans).

    ``words_per_row`` counts the 4-byte words read plus written per row.
    Used for the grouping histogram/scan/scatter passes and the row-pointer
    exclusive scan -- all bandwidth-bound, perfectly coalesced.  Zero
    rows make one block with no work, as in :func:`chunk_sums`.
    """
    blocks = max(1, -(-n_rows // rows_per_block))
    per_block = np.full(blocks, rows_per_block * 4.0 * words_per_row)
    per_block[-1] = (n_rows - (blocks - 1) * rows_per_block) * 4.0 * words_per_row
    works = BlockWorks(n_blocks=blocks,
                       flops=per_block / 4.0,
                       gmem_coalesced_bytes=per_block)
    return KernelLaunch(name=name, block_threads=threads,
                        shared_bytes_per_block=0, works=works, stream=stream,
                        phase=phase)
