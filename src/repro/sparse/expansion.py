"""Vectorized expansion of intermediate products.

``C = A @ B`` over CSR generates one *intermediate product*
``a_ik * b_kj`` per (nonzero of A, nonzero of the matching B row) pair.
This module materializes those products as flat arrays -- the "expansion"
phase of the ESC algorithm and the workhorse of the reference SpGEMM.  It is
also where Alg. 2 of the paper (per-row intermediate-product counts) lives.

The expansion is fully vectorized: no Python-level loop over rows.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import ShapeMismatchError
from repro.types import INDEX_DTYPE


def check_multiplicable(A, B) -> None:
    """Raise unless ``A @ B`` is shape-compatible."""
    if A.n_cols != B.n_rows:
        raise ShapeMismatchError(
            f"cannot multiply {A.shape} by {B.shape}: inner dimensions differ")


def intermediate_product_counts(A, B) -> np.ndarray:
    """Per-row intermediate product counts of ``A @ B`` (paper Alg. 2).

    ``counts[i] = sum over nonzeros a_ik of row i of nnz(B row k)``.

    Requires only ``rpt_A``, ``col_A`` and ``rpt_B`` -- the same inputs the
    paper's kernel reads -- and is the upper bound on each output row's nnz.
    """
    check_multiplicable(A, B)
    b_row_nnz = np.diff(B.rpt)                     # nnz of every B row
    per_nonzero = b_row_nnz[A.col]                 # one count per A nonzero
    counts = np.zeros(A.n_rows, dtype=INDEX_DTYPE)
    nz_rows = np.diff(A.rpt) > 0
    starts = A.rpt[:-1][nz_rows]
    if starts.size:
        counts[nz_rows] = np.add.reduceat(per_nonzero, starts)
    return counts


class Expansion(NamedTuple):
    """Flat arrays of all intermediate products of ``A @ B``.

    Attributes
    ----------
    rows: output-row index of each product.
    cols: output-column index of each product (``col_B`` of the B entry).
    vals: ``a_ik * b_kj`` for each product.
    row_counts: per-row product counts (Alg. 2 result), for grouping/stats.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    row_counts: np.ndarray

    @property
    def n_products(self) -> int:
        """Total number of intermediate products."""
        return int(self.rows.shape[0])


def expand_products(A, B, *, with_values: bool = True) -> Expansion:
    """Materialize every intermediate product of ``A @ B``.

    For each nonzero ``a_ik`` (position ``j`` in A's arrays) the products
    against B row ``k = col_A[j]`` occupy a contiguous run.  The flat index
    into B's arrays for the ``t``-th product of run ``j`` is
    ``rpt_B[k] + t``; runs are laid out back to back.

    ``with_values=False`` skips the value multiply (symbolic-only callers).
    """
    check_multiplicable(A, B)
    b_row_nnz = np.diff(B.rpt)
    run_len = b_row_nnz[A.col]                       # products per A nonzero
    total = int(run_len.sum())
    row_counts = np.zeros(A.n_rows, dtype=INDEX_DTYPE)
    nz_rows = np.diff(A.rpt) > 0
    starts = A.rpt[:-1][nz_rows]
    if starts.size:
        row_counts[nz_rows] = np.add.reduceat(run_len, starts)

    if total == 0:
        empty_i = np.empty(0, dtype=INDEX_DTYPE)
        empty_v = np.empty(0, dtype=A.dtype)
        return Expansion(empty_i, empty_i.copy(),
                         empty_v if with_values else empty_v, row_counts)

    # position of each product within its run: global arange minus the
    # repeated run start offset
    run_offsets = np.concatenate(([0], np.cumsum(run_len)[:-1]))
    within = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(run_offsets, run_len)
    b_flat = np.repeat(B.rpt[A.col], run_len) + within   # index into B arrays

    a_rows = np.repeat(np.arange(A.n_rows, dtype=INDEX_DTYPE), np.diff(A.rpt))
    rows = np.repeat(a_rows, run_len)
    cols = B.col[b_flat]
    if with_values:
        vals = np.repeat(A.val, run_len) * B.val[b_flat]
    else:
        vals = np.empty(0, dtype=A.dtype)
    return Expansion(rows, cols, vals, row_counts)


class SortRecipe(NamedTuple):
    """The value-independent part of one expansion + contraction.

    For a fixed pair of sparsity patterns, the lexsort permutation, the
    duplicate-run boundaries and the output-CSR structure never change --
    only the multiplied values do.  A recipe captures all of it, so a
    later multiply with fresh values on the same patterns reduces to a
    gather, an elementwise multiply and one ``np.add.reduceat``
    (:func:`values_from_recipe`), bit-identical to re-running
    :func:`expand_products` + :func:`contract` from scratch.

    Attributes
    ----------
    a_idx / b_idx: per intermediate product (in (row, col)-sorted order),
        the flat index of the contributing A and B nonzero.
    starts: ``reduceat`` boundaries of the duplicate runs.
    rpt / col: the output-CSR structure.
    row_counts: Alg. 2 per-row product counts.
    shape: output shape.
    """

    a_idx: np.ndarray
    b_idx: np.ndarray
    starts: np.ndarray
    rpt: np.ndarray
    col: np.ndarray
    row_counts: np.ndarray
    shape: tuple[int, int]

    @property
    def n_products(self) -> int:
        """Total intermediate products."""
        return int(self.a_idx.shape[0])

    def nbytes(self) -> int:
        """Host memory retained by the recipe (cache accounting)."""
        return sum(int(a.nbytes) for a in
                   (self.a_idx, self.b_idx, self.starts, self.rpt,
                    self.col, self.row_counts))


def _fused_key_dtype(n_rows: int, n_cols: int):
    """Narrowest integer dtype holding every ``row * n_cols + col`` key of
    an ``n_rows x n_cols`` output, or ``None`` when int64 might overflow."""
    cells = n_rows * n_cols
    if cells < 2**31:
        return np.int32
    return np.int64 if cells < 2**62 else None


def build_sort_recipe(A, B) -> SortRecipe:
    """Capture the sort/merge structure of ``A @ B`` (values untouched).

    The per-product A index is position ``j`` repeated over run ``j``'s
    length and the B index is the same ``b_flat`` the expansion gathers;
    both are then permuted by the (row, col) sort that :func:`contract`
    would apply, so gathering values through them and reducing at
    ``starts`` reproduces the contraction exactly.

    Products are emitted row by row, so one stable argsort of the fused
    key ``row * n_cols + col`` equals ``lexsort((cols, rows))``.  The
    row part is built once per A nonzero and repeated once; the key is
    int32 whenever every value fits, which halves the sort's traffic.
    """
    check_multiplicable(A, B)
    n_rows, n_cols = A.n_rows, B.n_cols
    shape = (n_rows, n_cols)
    b_row_nnz = np.diff(B.rpt)
    run_len = b_row_nnz[A.col]
    total = int(run_len.sum())
    row_counts = np.zeros(n_rows, dtype=INDEX_DTYPE)
    a_row_nnz = np.diff(A.rpt)
    nz_rows = a_row_nnz > 0
    a_starts = A.rpt[:-1][nz_rows]
    if a_starts.size:
        row_counts[nz_rows] = np.add.reduceat(run_len, a_starts)

    empty_i = np.empty(0, dtype=INDEX_DTYPE)
    if total == 0:
        rpt = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
        return SortRecipe(empty_i, empty_i.copy(), empty_i.copy(), rpt,
                          empty_i.copy(), row_counts, shape)

    run_offsets = np.concatenate(([0], np.cumsum(run_len)[:-1]))
    b_flat = np.arange(total, dtype=INDEX_DTYPE)
    b_flat += np.repeat(B.rpt[A.col] - run_offsets, run_len)

    kdt = _fused_key_dtype(n_rows, n_cols)
    if kdt is not None:
        row_key = np.repeat(np.arange(n_rows, dtype=kdt) * kdt(n_cols),
                            a_row_nnz)
        key = np.repeat(row_key, run_len)
        key += B.col.astype(kdt, copy=False)[b_flat]
        order = np.argsort(key, kind="stable")
        key = key[order]
        boundary = key[1:] != key[:-1]
    else:   # pragma: no cover - needs a >2^31-column matrix
        rows = np.repeat(np.repeat(np.arange(n_rows, dtype=INDEX_DTYPE),
                                   a_row_nnz), run_len)
        cols = B.col[b_flat]
        order = np.lexsort((cols, rows))
        r, c = rows[order], cols[order]
        boundary = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.concatenate(([0], np.flatnonzero(boundary) + 1))
    b_idx = b_flat[order]
    a_idx = np.repeat(np.arange(A.col.shape[0], dtype=INDEX_DTYPE),
                      run_len)[order]
    out_col = B.col[b_idx[starts]]
    # every output row opens a run where its products begin
    prod_rpt = np.concatenate(([0], np.cumsum(row_counts)))
    rpt = np.searchsorted(starts, prod_rpt).astype(INDEX_DTYPE, copy=False)
    return SortRecipe(a_idx, b_idx, starts, rpt, out_col, row_counts, shape)


#: Products per replay chunk.  A replay's per-product temporaries never
#: exceed it (256 KiB of float64), so malloc recycles them from its heap:
#: a whole-recipe temporary (3 MiB for E16's iterate) is served from
#: fresh pages, and re-faulted on every call, whenever the heap holds no
#: free block that large.
REPLAY_CHUNK = 1 << 15


def values_from_recipe(recipe: SortRecipe, A, B) -> np.ndarray:
    """Output values (float64) of ``A @ B`` along a captured recipe.

    Bit-identical to the :func:`expand_products` + :func:`contract` pair:
    the same value pairs are multiplied in the same operand dtype, cast
    to float64, and reduced over the same boundaries in the same order --
    only the lexsort itself is skipped.  The replay walks the recipe in
    chunks of whole duplicate runs, about :data:`REPLAY_CHUNK` products
    each, and ``reduceat`` reduces each run alone either way.
    """
    starts = recipe.starts
    n_runs = starts.shape[0]
    out = np.empty(n_runs, dtype=np.float64)
    # a chunk ends before the first run that starts REPLAY_CHUNK or more
    # products past its own first run (starts[r0] == p0, so r1 > r0)
    r0 = p0 = 0
    while r0 < n_runs:
        r1 = int(np.searchsorted(starts, p0 + REPLAY_CHUNK))
        p1 = int(starts[r1]) if r1 < n_runs else recipe.n_products
        v = (A.val[recipe.a_idx[p0:p1]] * B.val[recipe.b_idx[p0:p1]]).astype(
            np.float64, copy=False)
        np.add.reduceat(v, starts[r0:r1] - p0, out=out[r0:r1])
        r0, p0 = r1, p1
    return out


def contract(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
             shape: tuple[int, int], dtype: np.dtype):
    """Sort products by (row, col) and sum duplicates into canonical CSR.

    The "S" and "C" of ESC.  Returns a :class:`~repro.sparse.csr.CSRMatrix`.
    """
    from repro.sparse.csr import CSRMatrix

    n_rows = shape[0]
    if rows.shape[0] == 0:
        m = CSRMatrix.empty(shape)
        m.val = m.val.astype(dtype)
        return m
    order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], vals[order]
    new_run = np.empty(r.shape[0], dtype=bool)
    new_run[0] = True
    new_run[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(new_run)
    out_val = np.add.reduceat(v.astype(np.float64), starts).astype(dtype)
    out_col = c[starts]
    counts = np.bincount(r[starts], minlength=n_rows)
    rpt = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=rpt[1:])
    return CSRMatrix(rpt, out_col, out_val, shape, check=False)


def symbolic_row_nnz(A, B) -> np.ndarray:
    """Exact output nnz per row of ``A @ B`` (duplicates merged), vectorized.

    Used as an oracle for the hash-based symbolic phase: counts distinct
    columns per output row via a sorted unique over the expansion.
    """
    exp = expand_products(A, B, with_values=False)
    if exp.n_products == 0:
        return np.zeros(A.n_rows, dtype=INDEX_DTYPE)
    order = np.lexsort((exp.cols, exp.rows))
    r, c = exp.rows[order], exp.cols[order]
    new_run = np.empty(r.shape[0], dtype=bool)
    new_run[0] = True
    new_run[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    return np.bincount(r[new_run], minlength=A.n_rows).astype(INDEX_DTYPE)
