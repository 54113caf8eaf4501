"""Work-balanced 1-D row partitioning for the distributed driver.

Splitting A by *row count* balances nothing on power-law matrices -- one
dense row can carry more intermediate products than a thousand sparse
ones.  The partitioner instead weighs every row by a modeled byte cost
assembled from the same :mod:`repro.core.work` terms the kernel cost
model uses (streamed bytes of both phases, a byte equivalent for the
latency-bearing scattered loads, and one for the hash arithmetic), then
cuts contiguous prefixes at the devices' weighted shares.

Devices may be heterogeneous: each gets a share of the total work
proportional to its weight (the pool uses memory bandwidth, the
first-order throughput driver of these bandwidth-bound kernels).  The
split is the classic cumulative-sum / ``searchsorted`` prefix cut, so
the per-panel guarantee is

    ``panel_work[i] <= total * w[i] / sum(w) + max_row_work``

-- perfect balance up to the granularity of a single row, which the
property tests pin down.  Panels are half-open row ranges tiling
``[0, n_rows)`` in order; a panel may be empty when a device's share is
smaller than the next row.  The resilience ladder's row panels use the
same cut, :func:`prefix_cut`, at equal shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.work import (hash_flops, scattered_transactions,
                             stream_bytes_numeric, stream_bytes_symbolic)
from repro.sparse.csr import CSRMatrix
from repro.sparse.expansion import intermediate_product_counts
from repro.types import Precision

#: Byte equivalent of one latency-bearing scattered transaction: the
#: bytes the link could have streamed while the round-trip is in flight
#: (P100-scale: ~300 cycles at ~0.5 kB/us of fair-share bandwidth).
LATENCY_EQUIV_BYTES = 64.0

#: Byte equivalent of one hash/index operation (compute is cheap next to
#: memory on these kernels, but dense rows still pay for their probes).
FLOP_EQUIV_BYTES = 0.5


def estimate_row_work(A: CSRMatrix, B: CSRMatrix,
                      precision: Precision | str = Precision.DOUBLE
                      ) -> np.ndarray:
    """Modeled per-row cost of ``A @ B`` in byte equivalents.

    Covers both phases (each row is counted and then calculated), the
    scattered ``rpt_B`` lookups of each, and the hash arithmetic.  The
    output-row size is not known before the symbolic phase, so the
    estimate uses the ``min(products, n_cols)`` upper bound -- exact for
    rows without column collisions, pessimistic (never optimistic) for
    the rest.
    """
    p = Precision.parse(precision)
    nnz_a = A.row_nnz().astype(np.float64)
    nprod = intermediate_product_counts(A, B).astype(np.float64)
    nnz_out = np.minimum(nprod, float(B.n_cols))
    scattered = scattered_transactions(nnz_a)
    flops = hash_flops(nprod)
    return (stream_bytes_symbolic(nnz_a, nprod)
            + stream_bytes_numeric(nnz_a, nprod, nnz_out, p)
            + LATENCY_EQUIV_BYTES * 2.0 * scattered
            + FLOP_EQUIV_BYTES * 2.0 * flops)


@dataclass(frozen=True)
class Partition:
    """A 1-D row split of A across the pool's active devices.

    ``panels[i]`` is the half-open row range assigned to device ``i`` of
    the weight vector; ranges are contiguous, in order, and tile
    ``[0, n_rows)`` exactly (empty panels allowed).
    """

    panels: tuple[tuple[int, int], ...]
    panel_work: tuple[float, ...]    #: modeled byte cost per panel
    weights: tuple[float, ...]       #: device weights the cut used
    total_work: float
    max_row_work: float

    @property
    def n_rows(self) -> int:
        """Rows covered by the partition."""
        return self.panels[-1][1] if self.panels else 0

    def balance_bound(self, i: int) -> float:
        """The guaranteed ceiling of ``panel_work[i]`` (see module doc)."""
        share = self.weights[i] / sum(self.weights)
        return self.total_work * share + self.max_row_work

    def imbalance(self) -> float:
        """max/mean panel work over non-empty panels (1.0 = perfect)."""
        busy = [w for w, (lo, hi) in zip(self.panel_work, self.panels)
                if hi > lo]
        if not busy:
            return 1.0
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean > 0 else 1.0

    def summary(self) -> str:
        """One line per panel, for ``dist-stats`` and debugging."""
        lines = []
        for i, ((lo, hi), w) in enumerate(zip(self.panels, self.panel_work)):
            share = 100.0 * w / self.total_work if self.total_work else 0.0
            lines.append(f"  panel {i}: rows [{lo}, {hi}) "
                         f"({hi - lo} rows, {share:.1f}% of modeled work)")
        lines.append(f"  imbalance (max/mean): {self.imbalance():.3f}")
        return "\n".join(lines)


def prefix_cut(cum: np.ndarray, shares: np.ndarray) -> np.ndarray:
    """The ``len(shares) + 1`` panel bounds cutting the cumulative row
    work ``cum`` (of positive rows) at the prefix targets of ``shares``:
    ``searchsorted`` lands each on the first row whose prefix reaches
    it.  Equal neighbouring bounds are empty panels."""
    n = cum.shape[0]
    targets = cum[-1] * np.cumsum(shares[:-1]) / shares.sum()
    cuts = np.searchsorted(cum, targets, side="left") + 1
    bounds = np.concatenate(([0], np.minimum(cuts, n), [n]))
    return np.maximum.accumulate(bounds)


def partition_rows(A: CSRMatrix, B: CSRMatrix, weights,
                   precision: Precision | str = Precision.DOUBLE
                   ) -> Partition:
    """Cut A's rows into one contiguous panel per device weight, the
    :func:`prefix_cut` of the modeled row work."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0 or np.any(weights <= 0):
        raise ValueError("partition_rows needs a non-empty vector of "
                         "positive device weights")
    n = A.n_rows
    if n == 0:
        zero = (0, 0)
        return Partition(panels=(zero,) * weights.size,
                         panel_work=(0.0,) * weights.size,
                         weights=tuple(weights.tolist()),
                         total_work=0.0, max_row_work=0.0)
    row_work = np.maximum(estimate_row_work(A, B, precision), 1.0)
    cum = np.cumsum(row_work)
    bounds = prefix_cut(cum, weights)
    panels = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    prefix = np.concatenate(([0.0], cum))
    work = [float(prefix[hi] - prefix[lo]) for lo, hi in panels]
    return Partition(panels=tuple(panels), panel_work=tuple(work),
                     weights=tuple(weights.tolist()),
                     total_work=float(cum[-1]),
                     max_row_work=float(row_work.max()))
