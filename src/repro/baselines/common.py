"""Shared work-building helpers for the baseline kernel plans."""

from __future__ import annotations

import numpy as np

from repro.core.count_products import chunk_sums
from repro.gpu.kernel import BlockWorks, KernelLaunch


def uniform_grid(total: dict[str, float], n_blocks: int, name: str,
                 block_threads: int, *, shared_bytes: int = 0, stream: int = 0,
                 phase: str = "calc") -> KernelLaunch:
    """A kernel whose work is evenly spread over ``n_blocks`` blocks.

    Used for element-parallel passes (expansion, radix-sort sweeps,
    contraction) where the work per block is uniform by construction.
    ``total`` maps :class:`BlockWorks` column names to whole-kernel totals.
    """
    n_blocks = max(1, int(n_blocks))
    columns = {k: np.full(n_blocks, v / n_blocks, dtype=np.float64)
               for k, v in total.items()}
    return KernelLaunch(name=name, block_threads=block_threads,
                        shared_bytes_per_block=shared_bytes,
                        works=BlockWorks(n_blocks=n_blocks, **columns),
                        stream=stream, phase=phase)


def row_chunk_grid(columns: dict[str, np.ndarray], rows_per_block: int,
                   name: str, block_threads: int, *, shared_bytes: int = 0,
                   stream: int = 0, phase: str = "calc") -> KernelLaunch:
    """A kernel whose blocks each process ``rows_per_block`` consecutive
    rows; per-row work columns are summed per block.  Row order is the
    matrix's own (no grouping), so heavy rows inflate whichever block they
    land in -- the load-imbalance mechanism of the ungrouped baselines.
    """
    agg = {k: chunk_sums(v, rows_per_block) for k, v in columns.items()}
    return KernelLaunch(name=name, block_threads=block_threads,
                        shared_bytes_per_block=shared_bytes,
                        works=BlockWorks(**agg), stream=stream, phase=phase)
