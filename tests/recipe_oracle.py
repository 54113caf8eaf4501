"""The order and the cold pass of a sort recipe, from the expansion and
the pair sort: the recipe tests' oracle.

:func:`recipe_order` lists the intermediate products of ``A @ B`` as
:func:`~repro.sparse.expansion.expand_products` emits them, each with
the flat index of its A and B nonzero, and orders them with
:func:`~repro.sparse.coo.sort_pairs`, a stable ``lexsort`` on
``(row, col)``: equal pairs keep their expansion order.
:func:`cold_pass` sums the expansion's values along that order.  Both
sort the whole product at once and share no code with the row-panel
build, so ``repro.sparse.expansion.index_sort_recipe`` must return
:func:`recipe_order`'s ``a_idx``, ``b_idx`` and ``starts`` byte for byte
(:func:`assert_recipe_order`), and ``build_sort_recipe`` must return
:func:`cold_pass`'s ``rpt``, ``col`` and values (:func:`assert_cold_pass`).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import sort_pairs
from repro.sparse.expansion import expand_products
from repro.types import INDEX_DTYPE


def recipe_order(A, B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a_idx, b_idx, starts)`` of the recipe of ``A @ B``."""
    exp = expand_products(A, B, with_values=False)
    run_len = np.diff(B.rpt)[A.col]
    a_flat = np.repeat(np.arange(A.nnz, dtype=INDEX_DTYPE), run_len)
    # the t-th product of A nonzero j reads B nonzero rpt_B[col_A[j]] + t
    run_start = np.cumsum(run_len) - run_len
    b_flat = np.arange(exp.n_products, dtype=INDEX_DTYPE) + np.repeat(
        B.rpt[A.col] - run_start, run_len)
    assert np.array_equal(B.col[b_flat], exp.cols)
    order, starts, _ = sort_pairs(exp.rows, exp.cols, A.n_rows)
    return a_flat[order], b_flat[order], starts


def cold_pass(A, B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rpt, col, values)`` of ``A @ B``: the expansion's products in
    the operand dtype, sorted, cast to float64 and summed run by run by
    one whole-product ``reduceat`` (:func:`~repro.sparse.expansion.
    contract` before its cast to the run precision)."""
    exp = expand_products(A, B)
    if exp.n_products == 0:
        return (np.zeros(A.n_rows + 1, dtype=INDEX_DTYPE),
                np.empty(0, dtype=INDEX_DTYPE), np.empty(0))
    order, starts, rpt = sort_pairs(exp.rows, exp.cols, A.n_rows)
    values = np.add.reduceat(exp.vals[order].astype(np.float64, copy=False),
                             starts)
    return rpt, exp.cols[order[starts]], values


def _assert_bytes(got, want, field) -> None:
    assert got.dtype == want.dtype, field
    assert got.tobytes() == want.tobytes(), field


def assert_recipe_order(recipe, A, B) -> None:
    """Assert that ``recipe``'s ``a_idx``, ``b_idx`` and ``starts`` are
    :func:`recipe_order`'s, byte for byte and dtype for dtype."""
    for field, want in zip(("a_idx", "b_idx", "starts"), recipe_order(A, B)):
        _assert_bytes(getattr(recipe, field), want, field)


def assert_cold_pass(recipe, values, A, B) -> None:
    """Assert that the cold pass's ``recipe`` and ``values`` are
    :func:`cold_pass`'s ``rpt``, ``col`` and values, byte for byte and
    dtype for dtype (NaN payloads included)."""
    with np.errstate(invalid="ignore", over="ignore"):   # inf - inf
        want = cold_pass(A, B)
    for field, got, w in zip(("rpt", "col", "values"),
                             (recipe.rpt, recipe.col, values), want):
        _assert_bytes(got, w, field)
