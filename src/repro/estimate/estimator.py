"""Sampled per-row nnz(C) upper bounds for the estimated symbolic phase.

The exact symbolic phase hashes every intermediate product; its cost is
proportional to ``sum(row_products)`` on every cold run.  The estimator
instead draws ``samples`` A-nonzeros per row (with replacement, from a
deterministic splitmix64 stream), reads only the *length* of each
sampled B row, and scales the sample mean back up:

    P_hat = nnz_a(i) * mean(nnz_b(sampled cols))

``P_hat`` estimates the row's intermediate-product count; multiplying by
``1 + margin`` and clamping to the true product count (nnz(C) can never
exceed it) yields the per-row upper bound used for grouping and output
allocation.  Rows with ``nnz_a <= samples`` are not sampled at all --
their exact product count is already on hand from Alg. 2 and is itself a
valid bound, so short rows can never violate.

A *violation* (true nnz above the bound) is detected when a numeric hash
table fills; the recovery recount is the Group-0 shared-table retry's
kernel (:func:`repro.core.symbolic.global_recount_kernel`) on
global-memory tables sized by the true product count -- so the
functional result is always exact and bit-identical to
``symbolic='exact'``, only the modeled timeline changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.count_products import BLOCK_THREADS, chunk_sums
from repro.gpu.kernel import BlockWorks, KernelLaunch
from repro.sparse.expansion import intermediate_product_counts

#: Sampled B-row lengths per estimated row (the OCEAN default regime:
#: enough draws that the relative error of the mean is small for the
#: heavy rows that dominate the symbolic cost).
DEFAULT_SAMPLES = 32

#: Confidence margin applied to the scaled sample mean.  25% over the
#: point estimate keeps bound violations rare on the Table II classes
#: while still allocating far below the worst-case product count.
DEFAULT_MARGIN = 0.25

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, lane: np.ndarray, draw: int) -> np.ndarray:
    """Vectorized splitmix64 stream: one u64 per ``lane`` element.

    The ``(seed, lane, draw)`` triple fully determines each output --
    the same stream discipline as :func:`repro.bench.datasets.dataset_rng`
    and the serve layer's backoff jitter, so estimates are bit-stable
    across processes.  All arithmetic wraps silently in uint64.
    """
    with np.errstate(over="ignore"):
        x = (np.uint64(seed) * _MIX2
             + lane.astype(np.uint64) * _GAMMA
             + np.uint64(draw + 1) * _MIX1)
        x ^= x >> np.uint64(30)
        x *= _MIX1
        x ^= x >> np.uint64(27)
        x *= _MIX2
        x ^= x >> np.uint64(31)
    return x


@dataclass(frozen=True)
class RowEstimate:
    """Per-row nnz(C) upper bounds from one estimator pass."""

    bound: np.ndarray        #: per-row upper bound on nnz(C) (int64)
    sampled: np.ndarray      #: bool mask of rows actually sampled
    samples: int             #: draws per sampled row
    margin: float            #: confidence margin applied to the estimate
    seed: int                #: splitmix64 stream seed

    @property
    def sampled_rows(self) -> int:
        return int(self.sampled.sum())

    @property
    def exact_rows(self) -> int:
        return int(self.sampled.shape[0] - self.sampled.sum())

    def violations(self, row_nnz: np.ndarray) -> np.ndarray:
        """Bool mask of rows whose true nnz exceeds the bound."""
        return np.asarray(row_nnz, dtype=np.int64) > self.bound


def estimate_row_nnz(A, B, *, samples: int = DEFAULT_SAMPLES,
                     margin: float = DEFAULT_MARGIN,
                     seed: int = 0) -> RowEstimate:
    """Estimate per-row nnz(C) upper bounds for ``C = A @ B``.

    Rows with at most ``samples`` nonzeros take their exact product
    count (a valid bound: distinct columns never exceed products); the
    rest get ``ceil((1 + margin) * nnz_a * mean_sampled(nnz_b))``,
    clamped to the product count.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if margin < 0.0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    nnz_a = A.row_nnz().astype(np.int64)
    nnz_b = B.row_nnz().astype(np.int64)
    row_products = intermediate_product_counts(A, B).astype(np.int64)

    sampled = nnz_a > samples
    bound = row_products.copy()
    rows = np.nonzero(sampled)[0]
    if rows.shape[0]:
        d = nnz_a[rows].astype(np.uint64)
        start = A.rpt[rows].astype(np.int64)
        acc = np.zeros(rows.shape[0], dtype=np.int64)
        for j in range(samples):
            pos = (splitmix64(seed, rows, j) % d).astype(np.int64)
            acc += nnz_b[A.col[start + pos]]
        p_hat = nnz_a[rows].astype(np.float64) * acc / float(samples)
        est = np.ceil((1.0 + margin) * p_hat).astype(np.int64)
        bound[rows] = np.minimum(est, row_products[rows])
    return RowEstimate(bound=bound, sampled=sampled, samples=int(samples),
                       margin=float(margin), seed=int(seed))


def estimate_sample_kernel(nnz_a: np.ndarray, samples: int,
                           *, stream: int = 0,
                           phase: str = "count") -> KernelLaunch:
    """Kernel launch charging the sampling pass over all rows.

    One thread per row: the ``rpt_A`` pair, ``min(nnz_a, samples)``
    scattered ``col_A[pos]`` + ``rpt_B`` pair lookups (each draw touches
    one random A slot and one random B row pointer), the splitmix64
    arithmetic, and the 4-byte bound store.  Crucially independent of
    the *product* count -- that is the whole saving over the exact hash
    count kernels.
    """
    nnz_a = np.asarray(nnz_a, dtype=np.float64)
    draws = np.minimum(nnz_a, float(samples))
    works = BlockWorks(flops=chunk_sums(8.0 * draws + 4.0, BLOCK_THREADS),
                       gmem_coalesced_bytes=chunk_sums(
                           np.full(nnz_a.shape[0], 8.0 + 4.0), BLOCK_THREADS),
                       gmem_random=chunk_sums(2.0 * draws, BLOCK_THREADS))
    return KernelLaunch(name="estimate_sample", block_threads=BLOCK_THREADS,
                        shared_bytes_per_block=0, works=works, stream=stream,
                        phase=phase)
