"""The order of a sort recipe, from the expansion and the pair sort: the
recipe tests' oracle.

:func:`recipe_order` lists the intermediate products of ``A @ B`` as
:func:`~repro.sparse.expansion.expand_products` emits them, each with
the flat index of its A and B nonzero, and orders them with
:func:`~repro.sparse.coo.sort_pairs`, a stable ``lexsort`` on
``(row, col)``: equal pairs keep their expansion order.  It sorts the
whole product at once and shares no code with the row-panel build, so
``repro.sparse.expansion.build_sort_recipe`` must return its
``a_idx``, ``b_idx`` and ``starts`` byte for byte
(:func:`assert_recipe_order`).
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


def assert_recipe_order(recipe, A, B) -> None:
    """Assert that ``recipe``'s ``a_idx``, ``b_idx`` and ``starts`` are
    :func:`recipe_order`'s, byte for byte and dtype for dtype."""
    for field, want in zip(("a_idx", "b_idx", "starts"), recipe_order(A, B)):
        got = getattr(recipe, field)
        assert got.dtype == want.dtype, field
        assert got.tobytes() == want.tobytes(), field
