"""Vectorized expansion of intermediate products.

``C = A @ B`` over CSR generates one *intermediate product*
``a_ik * b_kj`` per (nonzero of A, nonzero of the matching B row) pair.
This module materializes those products as flat arrays -- the "expansion"
phase of the ESC algorithm and the workhorse of the reference SpGEMM.  It is
also where Alg. 2 of the paper (per-row intermediate-product counts) lives.

The expansion is fully vectorized: no Python-level loop over rows.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from repro.errors import ShapeMismatchError
from repro.sparse.coo import sort_pairs
from repro.sparse.csr import CSRMatrix, segment_sums
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
    # one count per A nonzero: the nnz of the B row it selects
    return segment_sums(np.diff(B.rpt)[A.col], A.rpt)


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
    run_len = np.diff(B.rpt)[A.col]                  # products per A nonzero
    total = int(run_len.sum())
    row_counts = segment_sums(run_len, A.rpt)

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
    only the multiplied values do.  A recipe captures them in one of two
    states:

    * *cold* -- the output structure and the row counts alone, as the
      cold pass (:func:`build_sort_recipe`) leaves them beside the values
      it sums; ``a_idx``, ``b_idx`` and ``starts`` are ``None``;
    * *indexed* -- also the gather indices (:func:`index_sort_recipe`),
      so a later multiply with fresh values on the same patterns reduces
      to a gather, an elementwise multiply and the run sums
      (:func:`values_from_recipe`), bit-identical to re-running
      :func:`expand_products` + :func:`contract` from scratch.

    An indexed recipe stores its products in *replay order*.  As indexed
    it keeps the sorted order: every run sits in the ``reduceat``
    section and the output needs no scatter.  :func:`lay_out_for_replay`
    moves the short runs of well-populated lengths ahead of that section
    into length-class blocks; the recipe store lays out every recipe it
    indexes.

    Attributes
    ----------
    rpt / col: the output-CSR structure.
    row_counts: Alg. 2 per-row product counts.
    shape: output shape.
    a_idx / b_idx: per intermediate product, in replay order, the flat
        index of the contributing A and B nonzero; ``None`` when cold.
    starts: ``reduceat`` boundaries of the runs in the ``reduceat``
        section (positions in ``a_idx``); ``None`` when cold.
    blocks: the short blocks ahead of the ``reduceat`` section, as
        ``(run length, runs)`` pairs in replay order.
    run_order: output position of each run in replay order; ``None``
        while replay order is output order.
    """

    rpt: np.ndarray
    col: np.ndarray
    row_counts: np.ndarray
    shape: tuple[int, int]
    a_idx: np.ndarray | None = None
    b_idx: np.ndarray | None = None
    starts: np.ndarray | None = None
    blocks: tuple[tuple[int, int], ...] = ()
    run_order: np.ndarray | None = None

    @property
    def n_products(self) -> int:
        """Total intermediate products."""
        return int(self.row_counts.sum())

    def nbytes(self) -> int:
        """Host memory retained by the recipe (cache accounting)."""
        arrays = (self.rpt, self.col, self.row_counts, self.a_idx,
                  self.b_idx, self.starts, self.run_order)
        return sum(int(a.nbytes) for a in arrays if a is not None)


#: Products per row panel of a recipe build.  Every per-product
#: temporary of the build is one panel long, so malloc recycles them
#: from its heap instead of faulting in fresh whole-recipe arrays.
BUILD_PANEL = 1 << 16


def _column_keys(B, longest_row: int
                 ) -> tuple[np.ndarray, int, np.ndarray | None]:
    """Sort keys of B's columns, their count and the columns they stand
    for: the columns themselves (``None``: a key is its column), or,
    when a one-row panel of ``longest_row`` products could not fit a
    column above its product index in 63 bits, each column's rank among
    B's distinct columns (the same order, so the same recipe)."""
    if B.n_cols <= 1 << (63 - (longest_row - 1).bit_length()):
        return B.col, B.n_cols, None
    distinct = np.unique(B.col)
    return (np.searchsorted(distinct, B.col), int(distinct.shape[0]),
            distinct)


def _row_panels(prod_rpt: np.ndarray, n_keys: int
                ) -> Iterator[tuple[int, int, int]]:
    """The row panels ``(r0, r1, bits)`` of a recipe build.

    ``prod_rpt`` is the per-row product pointer.  A panel holds at most
    :data:`BUILD_PANEL` products (a longer row is a panel alone) and no
    more rows than keep its ``(r1 - r0) * n_keys`` keys above ``bits``
    bits of product index within 63 bits; panels of no products are
    skipped.
    """
    total = int(prod_rpt[-1])
    r0 = p0 = 0
    while p0 < total:
        r1 = int(np.searchsorted(prod_rpt, p0 + BUILD_PANEL, "right")) - 1
        r1 = max(r1, r0 + 1)
        bits = (int(prod_rpt[r1]) - p0 - 1).bit_length()
        r1 = min(r1, r0 + max(1, (1 << (63 - bits)) // n_keys))
        p1 = int(prod_rpt[r1])
        if p1 > p0:
            # a capped panel is shorter: a one-row panel needs its own width
            yield r0, r1, (p1 - p0 - 1).bit_length()
        r0, p0 = r1, p1


class _ProductRows(NamedTuple):
    """Where the products of ``A @ B`` sit and how a panel keys them."""

    run_len: np.ndarray          #: products per A nonzero
    row_counts: np.ndarray       #: Alg. 2 counts
    prod_rpt: np.ndarray         #: per-row product pointer
    col_key: np.ndarray          #: sort key of each B nonzero's column
    n_keys: int                  #: distinct column keys
    columns: np.ndarray | None   #: the column of each key; None: itself


def _product_rows(A, B) -> _ProductRows:
    """The row layout and column keys every recipe build starts from."""
    check_multiplicable(A, B)
    run_len = np.diff(B.rpt)[A.col]
    row_counts = segment_sums(run_len, A.rpt)
    prod_rpt = np.zeros(A.n_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(row_counts, out=prod_rpt[1:])
    keys = _column_keys(B, int(row_counts.max(initial=1)))
    return _ProductRows(run_len, row_counts, prod_rpt, *keys)


def _sorted_panels(A, B, rows: _ProductRows) -> Iterator[tuple]:
    """Each row panel of ``A @ B`` sorted as ``contract`` sorts it, as
    ``(r0, r1, j0, j1, b_flat, order, keys, first)``: its rows and A
    nonzeros, each product's B nonzero in expansion order, the
    expansion position of each sorted product, the sorted panel-local
    keys and the panel position of each run's first product.

    Products are emitted row by row and the sort never crosses a row,
    so A's rows are cut into panels (:func:`_row_panels`).  Each
    product's int64 word holds its panel-local key
    ``(row - r0) * n_keys + column key`` above its index in the panel,
    so the words are distinct and one in-place sort of them orders the
    products as ``lexsort((cols, rows))`` does, ties by index: the low
    bits are the permutation and the high bits the sorted keys whose
    changes open the runs.  A column's key is the column itself unless
    B is too wide for that (:func:`_column_keys`).
    """
    run_len, row_counts, prod_rpt, col_key, n_keys, _ = rows
    b_start = B.rpt[A.col]
    for r0, r1, bits in _row_panels(prod_rpt, n_keys):
        p0, p1 = int(prod_rpt[r0]), int(prod_rpt[r1])
        j0, j1 = int(A.rpt[r0]), int(A.rpt[r1])
        lens = run_len[j0:j1]
        index = np.arange(p1 - p0, dtype=INDEX_DTYPE)
        b_flat = np.repeat(b_start[j0:j1] + lens - np.cumsum(lens), lens)
        b_flat += index
        words = col_key[b_flat]
        if r1 - r0 > 1:
            words += np.repeat(np.arange(0, (r1 - r0) * n_keys, n_keys,
                                         dtype=INDEX_DTYPE),
                               row_counts[r0:r1])
        words <<= bits
        words |= index
        words.sort()
        order = words & ((1 << bits) - 1)
        words >>= bits
        opens = np.empty(p1 - p0, dtype=bool)
        opens[0] = True
        np.not_equal(words[1:], words[:-1], out=opens[1:])
        yield r0, r1, j0, j1, b_flat, order, words, np.flatnonzero(opens)


def build_sort_recipe(A, B) -> tuple[SortRecipe, np.ndarray]:
    """The cold pass: the output of ``A @ B`` from one sort per panel.

    Returns the cold recipe (output ``rpt``/``col`` and the row counts)
    and the float64 output values, bit for bit :func:`contract`'s over
    :func:`expand_products`.  Each sorted panel (:func:`_sorted_panels`)
    multiplies its products in expansion order, in the operand dtype as
    the expansion does, permutes them into sorted order, casts them to
    float64 and sums its runs with one ``reduceat``; a run never crosses
    a row, so the panel's sums are the contraction's.  A run's column is
    read off its sorted key, and a row's run count fixes ``rpt``.  No
    per-product array outlives its panel: the gather indices a replay
    needs are the index build's (:func:`index_sort_recipe`).
    """
    rows = _product_rows(A, B)
    n_keys = rows.n_keys
    run_len, prod_rpt = rows.run_len, rows.prod_rpt
    row_runs = np.zeros(A.n_rows, dtype=INDEX_DTYPE)
    # empty heads keep the dtypes of a product with no panels
    keys, sums = [np.empty(0, dtype=INDEX_DTYPE)], [np.empty(0)]
    for r0, r1, j0, j1, b_flat, order, words, first in _sorted_panels(
            A, B, rows):
        runs = np.diff(np.searchsorted(first, prod_rpt[r0:r1 + 1]
                                       - prod_rpt[r0]))
        row_runs[r0:r1] = runs
        key = np.take(words, first)
        if r1 - r0 > 1:
            key -= np.repeat(np.arange(0, (r1 - r0) * n_keys, n_keys,
                                       dtype=INDEX_DTYPE), runs)
        keys.append(key)
        products = np.repeat(A.val[j0:j1], run_len[j0:j1]) * np.take(
            B.val, b_flat)
        sums.append(np.add.reduceat(
            np.take(products, order).astype(np.float64, copy=False), first))
    col = np.concatenate(keys)
    if rows.columns is not None:
        col = rows.columns[col]
    rpt = np.zeros(A.n_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(row_runs, out=rpt[1:])
    return (SortRecipe(rpt, col, rows.row_counts, (A.n_rows, B.n_cols)),
            np.concatenate(sums))


def index_sort_recipe(recipe: SortRecipe, A, B) -> SortRecipe:
    """``recipe`` with the gather indices a replay reads, in sorted order.

    The index build shares the cold pass's panel sort
    (:func:`_sorted_panels`): a product's A index is position ``j``
    repeated over run ``j``'s length and its B index the ``b_flat`` the
    expansion gathers, both permuted by the panel's sort, so gathering
    values through them and reducing at ``starts`` reproduces the
    contraction exactly.  Each panel writes its ``a_idx`` and ``b_idx``
    straight into the output arrays.  The output ``rpt``, ``col`` and
    ``row_counts`` stay ``recipe``'s own arrays, so a plan holding the
    cold entry's structure still holds the indexed recipe's.
    """
    rows = _product_rows(A, B)
    total = int(rows.prod_rpt[-1])
    a_idx = np.empty(total, dtype=INDEX_DTYPE)
    b_idx = np.empty(total, dtype=INDEX_DTYPE)
    starts = [np.empty(0, dtype=INDEX_DTYPE)]
    for r0, r1, j0, j1, b_flat, order, _, first in _sorted_panels(A, B,
                                                                  rows):
        p0, p1 = int(rows.prod_rpt[r0]), int(rows.prod_rpt[r1])
        # order is a permutation, so "clip" never clips; the default
        # "raise" would gather into a buffer and copy it out
        np.take(b_flat, order, out=b_idx[p0:p1], mode="clip")
        np.take(np.repeat(np.arange(j0, j1, dtype=INDEX_DTYPE),
                          rows.run_len[j0:j1]),
                order, out=a_idx[p0:p1], mode="clip")
        starts.append(first + p0)
    return recipe._replace(a_idx=a_idx, b_idx=b_idx,
                           starts=np.concatenate(starts))


#: Products per replay chunk.  A replay's per-product temporaries never
#: exceed it (256 KiB of float64), so malloc recycles them from its heap:
#: a whole-recipe temporary (3 MiB for E16's iterate) is served from
#: fresh pages, and re-faulted on every call, whenever the heap holds no
#: free block that large.
REPLAY_CHUNK = 1 << 15

#: Longest duplicate run a laid-out recipe sums with whole-array adds.
#: ``reduceat`` sums a run as its first product plus NumPy's pairwise sum
#: of the rest, and the pairwise sum adds sequentially below 8 elements.
#: Up to 8 products, ``head + ((v1 + v2) + v3 ...)`` is therefore
#: ``reduceat``'s own order; longer runs stay with ``reduceat``.  That
#: order is NumPy's, not its API: the recipe tests pin it and name the
#: NumPy version on a mismatch.
SHORT_RUN = 8

#: Fewest runs of one length that get blocks.  A block costs about ten
#: NumPy calls whatever its size (~10 us on a 2-vCPU x86-64 host, where
#: a blocked run saves ~10-20 ns over ``reduceat``), so smaller classes
#: stay with ``reduceat``.
MIN_CLASS_RUNS = 512


def lay_out_for_replay(recipe: SortRecipe) -> SortRecipe:
    """``recipe`` re-laid so that replays sum short runs by length class.

    A length of 1 to :data:`SHORT_RUN` products with at least
    :data:`MIN_CLASS_RUNS` runs is a blocked class; every other run
    stays with ``reduceat``.  One stable radix argsort of the uint8
    classes orders the runs.  The runs of each blocked class fill blocks
    of at most :data:`REPLAY_CHUNK` products; a block of ``m`` runs of
    length ``L`` holds product ``k`` of its ``j``-th run at ``k * m + j``,
    so every row of its ``(L, m)`` view is one product of each run.  The
    other runs follow in output order, bounded by ``starts``.  One
    permutation of ``a_idx`` and ``b_idx`` applies it all; the output
    structure stays the same arrays.  The scatter back to output order
    moves every run, so unless blocked runs are more than half of them
    the recipe keeps its arrays and replays in sorted order.
    """
    starts = recipe.starts
    n_products = recipe.a_idx.shape[0]
    lengths = np.diff(starts, append=n_products)
    length_class = np.minimum(lengths, SHORT_RUN + 1).astype(np.uint8)
    per_class = np.bincount(length_class, minlength=SHORT_RUN + 2)
    blocked = per_class >= MIN_CLASS_RUNS
    blocked[[0, SHORT_RUN + 1]] = False
    if 2 * per_class[blocked].sum() <= lengths.shape[0]:
        return recipe
    # unblocked short runs join the longer ones in the reduceat section
    per_class[~blocked] = 0
    length_class = np.where(blocked, np.arange(SHORT_RUN + 2),
                            SHORT_RUN + 1).astype(np.uint8)[length_class]
    run_order = np.argsort(length_class, kind="stable")
    perm = np.empty(n_products, dtype=INDEX_DTYPE)
    blocks = []
    r = p = 0
    for length in range(1, SHORT_RUN + 1):
        end = r + int(per_class[length])
        step = max(1, REPLAY_CHUNK // length)
        for r0 in range(r, end, step):
            runs = run_order[r0:min(r0 + step, end)]
            q = p + length * runs.shape[0]
            np.add.outer(np.arange(length), starts[runs],
                         out=perm[p:q].reshape(length, -1))
            blocks.append((length, int(runs.shape[0])))
            p = q
        r = end
    rest = run_order[r:]
    rest_lengths = lengths[rest]
    rest_starts = p + np.cumsum(rest_lengths) - rest_lengths
    perm[p:] = np.arange(p, n_products) + np.repeat(
        starts[rest] - rest_starts, rest_lengths)
    return recipe._replace(a_idx=recipe.a_idx[perm], b_idx=recipe.b_idx[perm],
                           starts=rest_starts, blocks=tuple(blocks),
                           run_order=run_order)


def _products(recipe: SortRecipe, A, B, p0: int, p1: int) -> np.ndarray:
    """Products ``p0:p1`` (replay order) in the operand dtype, as float64."""
    return (A.val[recipe.a_idx[p0:p1]] * B.val[recipe.b_idx[p0:p1]]).astype(
        np.float64, copy=False)


def values_from_recipe(recipe: SortRecipe, A, B) -> np.ndarray:
    """Output values (float64) of ``A @ B`` along an indexed recipe.

    Bit-identical to the :func:`expand_products` + :func:`contract` pair:
    the same value pairs are multiplied in the same operand dtype, cast
    to float64 and summed run by run in ``reduceat``'s order -- only the
    lexsort itself is skipped.  A short block of runs (a laid-out
    recipe) is summed as ``head + ((v1 + v2) + v3 ...)``, one whole-row
    add per product, which is ``reduceat``'s order for runs of at most
    :data:`SHORT_RUN` products; IEEE addition commutes except in which
    of two NaNs it keeps, so the few runs that sum to NaN are summed
    again by ``reduceat``.  The ``reduceat`` section is walked in chunks
    of whole runs, about :data:`REPLAY_CHUNK` products each, and
    ``reduceat`` reduces each run alone either way.  One scatter puts a
    laid-out recipe's runs back in output order.
    """
    out = np.empty(recipe.col.shape[0], dtype=np.float64)
    r = p = 0
    for length, runs in recipe.blocks:
        q = p + length * runs
        v = _products(recipe, A, B, p, q).reshape(length, runs)
        sums = out[r:r + runs]
        if length == 1:
            sums[:] = v[0]
        else:
            # a new array past two products: v stays whole for the re-sum
            tail = v[1] if length == 2 else v[1] + v[2]
            for row in v[3:]:
                tail += row
            np.add(v[0], tail, out=sums)
            nan = np.flatnonzero(np.isnan(sums))
            if nan.size:
                # which of two NaNs a sum keeps follows the operand order
                # of the compiled add, so NaN runs are summed by reduceat
                sums[nan] = np.add.reduceat(
                    v[:, nan].T.ravel(), np.arange(0, nan.size * length, length))
        r, p = r + runs, q
    # the reduceat section: its first run is output slot r, product p; a
    # chunk ends before the first run that starts REPLAY_CHUNK or more
    # products past its own first run (starts[k0] == p0, so k1 > k0)
    starts = recipe.starts
    n_rest = starts.shape[0]
    k0, p0 = 0, p
    while k0 < n_rest:
        k1 = int(np.searchsorted(starts, p0 + REPLAY_CHUNK))
        p1 = int(starts[k1]) if k1 < n_rest else recipe.a_idx.shape[0]
        np.add.reduceat(_products(recipe, A, B, p0, p1), starts[k0:k1] - p0,
                        out=out[r + k0:r + k1])
        k0, p0 = k1, p1
    if recipe.run_order is None:
        return out
    in_order = np.empty_like(out)
    in_order[recipe.run_order] = out
    return in_order


def contract(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
             shape: tuple[int, int], dtype: np.dtype):
    """Sort products by (row, col) and sum duplicates into canonical CSR.

    The "S" and "C" of ESC: :func:`~repro.sparse.coo.sort_pairs`, then
    each run summed in float64 and cast to ``dtype``.  Returns a
    :class:`~repro.sparse.csr.CSRMatrix`.
    """
    if rows.shape[0] == 0:
        m = CSRMatrix.empty(shape)
        m.val = m.val.astype(dtype)
        return m
    order, starts, rpt = sort_pairs(rows, cols, shape[0])
    out_val = np.add.reduceat(vals[order].astype(np.float64, copy=False),
                              starts).astype(dtype)
    return CSRMatrix(rpt, cols[order[starts]], out_val, shape, check=False)


def symbolic_row_nnz(A, B) -> np.ndarray:
    """Exact output nnz per row of ``A @ B`` (duplicates merged), vectorized.

    Used as an oracle for the hash-based symbolic phase: counts distinct
    columns per output row with the pair sort over the expansion.
    """
    exp = expand_products(A, B, with_values=False)
    _, _, rpt = sort_pairs(exp.rows, exp.cols, A.n_rows)
    return np.diff(rpt)
