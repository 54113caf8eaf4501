"""Estimation-based symbolic phase (OCEAN-style, arXiv 2604.19004).

Instead of the exact count kernels of Figure 1 steps (3)-(4), a sampled
row-product estimator produces per-row nnz(C) *upper bounds* with a
confidence margin; rows are grouped and the output allocated from the
bounds, and the rare rows whose bound is violated are recounted exactly
on global tables by the Group-0 retry's kernel,
:func:`repro.core.symbolic.global_recount_kernel`.
Deterministic: the sample positions come from a splitmix64 stream of
``(seed, row, draw)``, so two runs -- and two processes -- estimate
identically.
"""

from repro.estimate.estimator import (DEFAULT_MARGIN, DEFAULT_SAMPLES,
                                      RowEstimate, estimate_row_nnz,
                                      estimate_sample_kernel, splitmix64)

__all__ = [
    "DEFAULT_MARGIN",
    "DEFAULT_SAMPLES",
    "RowEstimate",
    "estimate_row_nnz",
    "estimate_sample_kernel",
    "splitmix64",
]
