"""Tests for the expansion machinery (Alg. 2 counts, ESC expansion,
contraction, sort recipes, symbolic nnz oracle)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ShapeMismatchError
from repro.sparse import expansion, generators
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.expansion import (REPLAY_CHUNK, SHORT_RUN,
                                    build_sort_recipe, contract,
                                    expand_products, index_sort_recipe,
                                    intermediate_product_counts,
                                    lay_out_for_replay, symbolic_row_nnz,
                                    values_from_recipe)

from tests.conftest import to_scipy
from tests.recipe_oracle import assert_cold_pass, assert_recipe_order


def brute_force_counts(A, B):
    """Literal Algorithm 2."""
    counts = np.zeros(A.n_rows, dtype=np.int64)
    for i in range(A.n_rows):
        for j in range(int(A.rpt[i]), int(A.rpt[i + 1])):
            k = int(A.col[j])
            counts[i] += int(B.rpt[k + 1] - B.rpt[k])
    return counts


class TestIntermediateProductCounts:
    def test_matches_brute_force(self, small_random):
        expected = brute_force_counts(small_random, small_random)
        got = intermediate_product_counts(small_random, small_random)
        np.testing.assert_array_equal(got, expected)

    def test_rectangular(self, rng):
        A = generators.random_csr(15, 25, 5, rng=rng)
        B = generators.random_csr(25, 10, 3, rng=rng)
        np.testing.assert_array_equal(
            intermediate_product_counts(A, B), brute_force_counts(A, B))

    def test_tiny_known(self, tiny):
        # row 0 of tiny has cols {0, 2}; rows 0 and 2 of tiny have 2 nnz each
        counts = intermediate_product_counts(tiny, tiny)
        assert counts[0] == tiny.row_nnz()[0] + tiny.row_nnz()[2]

    def test_empty_rows_zero(self):
        A = CSRMatrix.empty((4, 4))
        np.testing.assert_array_equal(
            intermediate_product_counts(A, A), np.zeros(4))

    def test_shape_mismatch(self, tiny, rng):
        B = generators.random_csr(9, 9, 2, rng=rng)
        with pytest.raises(ShapeMismatchError):
            intermediate_product_counts(tiny, B)

    def test_identity_counts_equal_nnz_per_row(self, small_random):
        eye = CSRMatrix.identity(small_random.n_cols)
        np.testing.assert_array_equal(
            intermediate_product_counts(small_random, eye),
            small_random.row_nnz())


class TestExpandProducts:
    def test_total_matches_counts(self, small_random):
        exp = expand_products(small_random, small_random)
        assert exp.n_products == int(exp.row_counts.sum())
        np.testing.assert_array_equal(
            exp.row_counts,
            intermediate_product_counts(small_random, small_random))

    def test_contracted_expansion_equals_scipy(self, small_random):
        exp = expand_products(small_random, small_random)
        C = contract(exp.rows, exp.cols, exp.vals, small_random.shape,
                     small_random.dtype)
        expected = to_scipy(small_random) @ to_scipy(small_random)
        np.testing.assert_allclose(C.to_dense(), expected.toarray(),
                                   rtol=1e-12)

    def test_symbolic_only_skips_values(self, small_random):
        exp = expand_products(small_random, small_random, with_values=False)
        assert exp.vals.shape[0] == 0
        assert exp.rows.shape[0] == exp.n_products

    def test_empty_product(self):
        A = CSRMatrix.empty((3, 3))
        exp = expand_products(A, A)
        assert exp.n_products == 0

    def test_products_grouped_by_row(self, small_banded):
        exp = expand_products(small_banded, small_banded)
        # rows array is non-decreasing (products emitted row by row)
        assert np.all(np.diff(exp.rows) >= 0)


class TestContract:
    def test_sums_duplicates(self):
        rows = np.array([0, 0, 1])
        cols = np.array([1, 1, 0])
        vals = np.array([2.0, 3.0, 4.0])
        C = contract(rows, cols, vals, (2, 2), np.dtype(np.float64))
        assert C.nnz == 2
        assert C.to_dense()[0, 1] == 5.0

    def test_empty(self):
        C = contract(np.empty(0, np.int64), np.empty(0, np.int64),
                     np.empty(0), (2, 2), np.dtype(np.float64))
        assert C.nnz == 0

    def test_output_canonical(self, rng):
        n = 30
        rows = rng.integers(0, n, 300)
        cols = rng.integers(0, n, 300)
        C = contract(rows, cols, rng.random(300), (n, n), np.dtype(np.float64))
        assert C.is_canonical()

    def test_float32_accumulates_in_double(self):
        # large + tiny + tiny in float32 would lose the tinies if summed
        # in input precision; contract accumulates in float64
        rows = np.zeros(3, dtype=np.int64)
        cols = np.zeros(3, dtype=np.int64)
        vals = np.array([1.0, 2.0 ** -20, 2.0 ** -20], dtype=np.float32)
        C = contract(rows, cols, vals, (1, 1), np.dtype(np.float32))
        assert C.val[0] == np.float32(1.0 + 2.0 ** -19)


class TestSymbolicRowNnz:
    def test_matches_scipy_pattern(self, small_random):
        expected = (to_scipy(small_random) @ to_scipy(small_random)).tocsr()
        got = symbolic_row_nnz(small_random, small_random)
        np.testing.assert_array_equal(got, np.diff(expected.indptr))

    def test_at_most_products(self, small_banded):
        nnz = symbolic_row_nnz(small_banded, small_banded)
        prods = intermediate_product_counts(small_banded, small_banded)
        assert np.all(nnz <= prods)

    def test_empty(self):
        A = CSRMatrix.empty((3, 3))
        np.testing.assert_array_equal(symbolic_row_nnz(A, A), np.zeros(3))


def _with_empty_rows_and_zeros(rng, shape, nnz_per_row):
    """Every third row empty and a quarter of the values explicit zeros."""
    dense = generators.random_csr(*shape, nnz_per_row, rng=rng).to_dense()
    dense[::3] = 0.0
    M = CSRMatrix.from_dense(dense)
    val = np.where(np.arange(M.nnz) % 4 == 0, 0.0, M.val)
    return CSRMatrix(M.rpt, M.col, val, M.shape)


def _sparse_square(n, coords):
    """An ``n x n`` matrix holding 1.5 at each (row, col) in ``coords``."""
    rows, cols = np.array(coords).T
    return COOMatrix(rows, cols, np.full(len(coords), 1.5), (n, n)).to_csr()


def _scrambled(rng, shape, max_row, *, repeats):
    """A matrix whose rows list their columns in random order and, with
    ``repeats``, repeat some: valid CSR, but not canonical."""
    n_rows, n_cols = shape
    rows = [rng.integers(0, n_cols, length) if repeats
            else rng.permutation(n_cols)[:length]
            for length in rng.integers(0, max_row + 1, n_rows)]
    rpt = np.concatenate(([0], np.cumsum([r.shape[0] for r in rows])))
    return CSRMatrix(rpt, np.concatenate(rows),
                     rng.standard_normal(int(rpt[-1])), shape)


@st.composite
def scrambled_pairs(draw, max_dim=10, max_row=8):
    """``(A, B, panel)``: rows in any column order, repeats included, B's
    columns spread over up to ``2^59`` times its drawn width (past the
    width whose columns fit a word beside the product index), a
    :data:`~repro.sparse.expansion.BUILD_PANEL` to build with, and
    either precision."""
    n, k, m = (draw(st.integers(1, max_dim)) for _ in range(3))
    spread = draw(st.sampled_from([1, 2**30, 2**59]))

    def operand(n_rows, n_cols, scale):
        rows = draw(st.lists(st.lists(st.integers(0, n_cols - 1),
                                      max_size=max_row),
                             min_size=n_rows, max_size=n_rows))
        rpt = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
        col = np.array([c * scale for r in rows for c in r], dtype=np.int64)
        val = draw(hnp.arrays(np.float64, col.shape[0],
                              elements=st.floats(-1e6, 1e6)))
        return CSRMatrix(rpt, col, val, (n_rows, n_cols * scale))

    panel = draw(st.sampled_from([1, 5, 64, expansion.BUILD_PANEL]))
    precision = draw(st.sampled_from(["single", "double"]))
    return (operand(n, k, 1).astype(precision),
            operand(k, m, spread).astype(precision), panel)


def assert_same_bytes(got, want, run_lengths, what):
    """Byte equality of two value arrays.  A failure names the first
    mismatching run's length and the NumPy version: the short-run sums
    rely on ``reduceat``'s order (the head, then a sequential sum of the
    tail below 8 elements), so a failure on one CI leg alone points at
    its NumPy rather than at the program."""
    assert got.dtype == want.dtype and got.shape == want.shape, what
    unit = f"u{want.dtype.itemsize}"
    bad = np.flatnonzero(got.view(unit) != want.view(unit))
    assert bad.size == 0, (
        f"{what}: {bad.size} of {want.size} values differ, the first in a "
        f"run of {run_lengths[bad[0]]} products (NumPy {np.__version__})")


#: Value kinds of the boundary operands' rows, one product per entry:
#: wide magnitudes (the order of the adds shows), negative zeros only,
#: mixed signed zeros, infinities of both signs, NaNs of two payloads
#: and signs, and exact cancellation.
_KINDS = ("wide", "neg_zero", "zeros", "inf", "nan", "cancel")

_NAN_A = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]
_NAN_B = np.array([0xFFF8000000000456], dtype=np.uint64).view(np.float64)[0]


def _row_values(kind, length, rng):
    if kind == "wide":
        return rng.standard_normal(length) * 10.0 ** rng.integers(-12, 13,
                                                                 length)
    if kind == "neg_zero":
        return np.full(length, -0.0)
    if kind == "zeros":
        return np.where(rng.random(length) < 0.5, 0.0, -0.0)
    v = rng.standard_normal(length)
    if kind == "inf":
        v[rng.integers(length)] = np.inf
        if length > 1 and length % 2:
            v[rng.integers(length)] = -np.inf
    elif kind == "nan":
        v[rng.integers(length)] = _NAN_A
        v[rng.integers(length)] = _NAN_B
    else:   # cancel
        v = np.resize([1e16, 1.0, -1e16, -1.0], length) * rng.choice(
            [1.0, 3.0], length)
    return v


#: B's columns: each scales a whole run alike (so cancellation stays
#: exact and zeros keep their sign) but rounds it differently.
_SCALES = (1.0, 1.1, 1.3, 0.7)


def run_length_operands(lengths, precision):
    """``A @ B`` whose duplicate runs take each length in ``lengths`` (a
    length listed twice gets twice the runs) four times per value kind:
    A's row ``(length, kind)`` holds ``length`` nonzeros, and B is dense
    with one constant per column."""
    rng = np.random.default_rng(2017)
    k = max(lengths)
    rows = [(np.arange(n), _row_values(kind, n, rng))
            for n in lengths for kind in _KINDS]
    rpt = np.concatenate(([0], np.cumsum([n for n in lengths
                                          for _ in _KINDS])))
    A = CSRMatrix(rpt, np.concatenate([c for c, _ in rows]),
                  np.concatenate([v for _, v in rows]), (len(rows), k))
    B = CSRMatrix.from_dense(np.tile(_SCALES, (k, 1)))
    return A.astype(precision), B.astype(precision)


@st.composite
def operand_pairs(draw, max_dim=12, max_nnz=60):
    """``(A, B)`` of one precision whose values mix wide magnitudes with
    signed zeros, infinities and NaNs, empty operands included."""
    n, k, m = (draw(st.integers(1, max_dim)) for _ in range(3))
    precision = draw(st.sampled_from(["single", "double"]))
    value = st.one_of(st.floats(-1e30, 1e30),
                      st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))

    def operand(rows, cols):
        nnz = draw(st.integers(0, min(max_nnz, rows * cols)))
        cells = draw(hnp.arrays(np.int64, nnz, elements=st.integers(
            0, rows * cols - 1), unique=True))
        vals = draw(hnp.arrays(np.float64, nnz, elements=value))
        return COOMatrix(cells // cols, cells % cols, vals,
                         (rows, cols)).to_csr().astype(precision)

    return operand(n, k), operand(k, m)


def _product_rpt(recipe):
    """The per-row product pointer a recipe build cuts its panels on."""
    return np.concatenate(([0], np.cumsum(recipe.row_counts)))


def _indexed(A, B):
    """The cold pass's recipe and values, and the recipe indexed."""
    cold, values = build_sort_recipe(A, B)
    return cold, values, index_sort_recipe(cold, A, B)


class TestSortRecipe:
    """The cold pass returns ``contract(expand_products(...))`` bit for
    bit, and its indexed recipe replays it."""

    @staticmethod
    def _assert_replays_contraction(A, B):
        with np.errstate(invalid="ignore", over="ignore"):   # inf - inf
            cold, values, recipe = _indexed(A, B)
            exp = expand_products(A, B)
            C = contract(exp.rows, exp.cols, exp.vals, (A.n_rows, B.n_cols),
                         A.dtype)
            replayed = values_from_recipe(recipe, A, B)
        assert cold.shape == recipe.shape == C.shape
        assert cold.rpt.dtype == cold.col.dtype == np.int64
        assert cold.a_idx is cold.b_idx is cold.starts is None
        assert_cold_pass(cold, values, A, B)
        assert cold.rpt.tobytes() == C.rpt.tobytes()
        assert cold.col.tobytes() == C.col.tobytes()
        assert values.astype(A.dtype).tobytes() == C.val.tobytes()
        np.testing.assert_array_equal(cold.row_counts, exp.row_counts)
        # the index build keeps the cold entry's structure arrays
        assert recipe.rpt is cold.rpt and recipe.col is cold.col
        assert recipe.row_counts is cold.row_counts
        assert recipe.a_idx.dtype == recipe.b_idx.dtype == np.int64
        assert_recipe_order(recipe, A, B)
        assert replayed.tobytes() == values.tobytes()
        return cold, recipe

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_square(self, small_random, precision):
        A = small_random.astype(precision)
        self._assert_replays_contraction(A, A)

    def test_rectangular(self, rng):
        A = generators.random_csr(37, 53, 6, rng=rng)
        B = generators.random_csr(53, 19, 4, rng=rng)
        self._assert_replays_contraction(A, B)

    def test_empty_rows_and_explicit_zeros(self, rng):
        A = _with_empty_rows_and_zeros(rng, (40, 70), 7)
        B = _with_empty_rows_and_zeros(rng, (70, 30), 5)
        assert np.any(A.val == 0.0) and np.any(A.row_nnz() == 0)
        self._assert_replays_contraction(A, B)

    def test_no_products(self, rng):
        A = generators.random_csr(6, 8, 3, rng=rng)
        self._assert_replays_contraction(A, CSRMatrix.empty((8, 5)))

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((0, 5), (5, 3)), ((0, 0), (0, 0)), ((4, 0), (0, 3))])
    def test_no_rows_or_no_inner_dimension(self, a_shape, b_shape):
        self._assert_replays_contraction(CSRMatrix.empty(a_shape),
                                         CSRMatrix.empty(b_shape))

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("panel", [1, 5, 64, expansion.BUILD_PANEL])
    def test_nan_inf_and_exact_cancellation(self, precision, panel,
                                            monkeypatch):
        # duplicate runs of 1 to 40 products holding NaNs of two payloads,
        # infinities of both signs, signed zeros and exact cancellation:
        # the cold pass sums each run in the oracle's order, payloads too
        monkeypatch.setattr(expansion, "BUILD_PANEL", panel)
        A, B = run_length_operands(range(1, 41), precision)
        self._assert_replays_contraction(A, B)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(operand_pairs())
    def test_any_operands(self, pair):
        self._assert_replays_contraction(*pair)

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("chunk", [1, 4, 50])
    def test_chunked_replay(self, rng, chunk, precision, monkeypatch):
        # B has 3 columns, so duplicate runs (~8 products) outgrow the
        # small chunks and chunks of 50 hold several runs
        A = generators.random_csr(30, 40, 12, rng=rng).astype(precision)
        B = generators.random_csr(40, 3, 2, rng=rng).astype(precision)
        monkeypatch.setattr(expansion, "REPLAY_CHUNK", chunk)
        assert build_sort_recipe(A, B)[0].n_products > chunk
        self._assert_replays_contraction(A, B)

    @pytest.mark.parametrize("n", [46340, 46341])
    def test_squares_across_the_int32_boundary(self, n):
        # 46340^2 < 2^31 <= 46341^2: the corner products reach the
        # largest key n*n - 1 of a one-panel build, past an int32 on
        # the wide side
        A = _sparse_square(n, [(0, n - 1), (1, 1), (n - 2, 0),
                               (n - 1, 0), (n - 1, n - 1)])
        self._assert_replays_contraction(A, A)

    @pytest.mark.parametrize("n_products, n_cols, ranked", [
        (2, 2**62, False),        # 62 key bits + 1 index bit = 63
        (2, 2**62 + 1, True),     # 63 + 1 = 64
        (3, 2**61, False),        # 61 + 2 = 63
        (3, 2**61 + 1, True),     # 62 + 2 = 64
    ])
    def test_one_row_panel_word_width(self, n_products, n_cols, ranked):
        # one A row over B rows of one product each, alternating between
        # B's last and first columns: past 63 bits B's columns are keyed
        # by rank, or the last column's words would wrap negative
        A = CSRMatrix(np.array([0, n_products]), np.arange(n_products),
                      np.arange(1.0, n_products + 1), (1, n_products))
        B = CSRMatrix(np.arange(n_products + 1),
                      np.resize([n_cols - 1, 0], n_products),
                      np.linspace(1.5, 2.5, n_products), (n_products, n_cols))
        col_key, n_keys, columns = expansion._column_keys(B, n_products)
        if ranked:
            assert n_keys == 2
            np.testing.assert_array_equal(col_key,
                                          np.resize([1, 0], n_products))
            np.testing.assert_array_equal(columns, [0, n_cols - 1])
        else:
            assert col_key is B.col and n_keys == n_cols
            assert columns is None
        recipe, _ = self._assert_replays_contraction(A, B)
        assert list(expansion._row_panels(_product_rpt(recipe), n_keys)) == [
            (0, 1, (n_products - 1).bit_length())]

    @pytest.mark.parametrize("n_cols, panels", [
        (2**60, [(0, 2, 2)]),                  # 61 key bits + 2 = 63
        (2**60 + 1, [(0, 1, 1), (1, 2, 1)]),   # 62 + 2 = 64: split
        # split to one row, a panel takes its own index width: 62 + 1
        (2**62, [(0, 1, 1), (1, 2, 1)]),
    ])
    def test_multi_row_panel_word_width(self, n_cols, panels):
        # two A rows of two products each, B's last column before its
        # first: a panel of both rows keys row 1's last column at
        # 2 * n_cols - 1, which must fit above 2 index bits
        A = CSRMatrix(np.array([0, 2, 4]), np.array([0, 1, 1, 0]),
                      np.arange(1.0, 5.0), (2, 2))
        B = CSRMatrix(np.array([0, 1, 2]), np.array([n_cols - 1, 0]),
                      np.array([1.5, 2.5]), (2, n_cols))
        col_key, n_keys, columns = expansion._column_keys(B, 2)
        assert col_key is B.col and columns is None
        recipe, _ = self._assert_replays_contraction(A, B)
        assert list(expansion._row_panels(_product_rpt(recipe),
                                          n_keys)) == panels

    @pytest.mark.parametrize("n_cols", [7, 2**62 + 5])
    def test_no_argsort(self, rng, n_cols):
        # the words are distinct, so any sort gives the stable order: the
        # build needs no argsort, at any width
        A = _scrambled(rng, (30, 12), 9, repeats=True)
        B = _scrambled(rng, (12, 7), 5, repeats=False)
        B = CSRMatrix(B.rpt, B.col * (n_cols // 7), B.val, (12, n_cols))

        def refuse(*args, **kwargs):
            raise AssertionError("argsort or lexsort called")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "argsort", refuse)
            mp.setattr(np, "lexsort", refuse)
            cold, values, recipe = _indexed(A, B)
        assert_cold_pass(cold, values, A, B)
        assert_recipe_order(recipe, A, B)

    @pytest.mark.parametrize("panel", [1, expansion.BUILD_PANEL])
    @pytest.mark.parametrize("n_cols", [2**31 // 3, 2**31 // 3 + 1, 2**31,
                                        2**31 + 1, 2**62 - 1, 2**62 + 5])
    def test_wide_b(self, n_cols, panel, monkeypatch):
        # A (3 x 2) @ B (2 x n_cols), products in B's first and last
        # columns: 3 * (2^31 // 3) cells still fit an int32 key, 2^31
        # columns do on a one-row panel, and 2^62 + 5 columns overflow
        # an int64 key unless each row is a panel
        monkeypatch.setattr(expansion, "BUILD_PANEL", panel)
        A = CSRMatrix(np.array([0, 2, 3, 5]), np.array([0, 1, 1, 0, 1]),
                      np.arange(1.0, 6.0), (3, 2))
        B = CSRMatrix(np.array([0, 2, 3]), np.array([0, n_cols - 1,
                                                     n_cols - 1]),
                      np.array([1.5, 2.5, 3.5]), (2, n_cols))
        self._assert_replays_contraction(A, B)

    @pytest.mark.parametrize("panel", [1, 5, 64])
    def test_row_panels_build_the_one_panel_recipe(self, rng, panel,
                                                   monkeypatch):
        # rows longer than a panel, empty rows at the cuts (panels of no
        # products) and a rectangular A @ B with B not A: the default
        # panel holds all ~1,300 products, and every cut gives its bytes
        A = _with_empty_rows_and_zeros(rng, (60, 70), 7)
        B = _with_empty_rows_and_zeros(rng, (70, 30), 5)
        whole_cold, whole_values, whole = _indexed(A, B)
        assert whole.n_products <= expansion.BUILD_PANEL
        monkeypatch.setattr(expansion, "BUILD_PANEL", panel)
        cold, values, cut = _indexed(A, B)
        pairs = [(getattr(cut, f), getattr(whole, f))
                 for f in ("a_idx", "b_idx", "starts")]
        pairs += [(getattr(cold, f), getattr(whole_cold, f))
                  for f in ("rpt", "col", "row_counts")]
        pairs.append((values, whole_values))
        for got, want in pairs:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        self._assert_replays_contraction(A, B)

    @pytest.mark.parametrize("panel", [1, 5, 64, expansion.BUILD_PANEL])
    def test_ties_broken_by_product_index(self, rng, panel, monkeypatch):
        # A's rows repeat columns and list them out of order, B's rows are
        # out of order: equal (row, col) pairs then come from different A
        # nonzeros, and only their expansion order ranks them
        monkeypatch.setattr(expansion, "BUILD_PANEL", panel)
        A = _scrambled(rng, (60, 15), 9, repeats=True)
        B = _scrambled(rng, (15, 40), 8, repeats=False)
        assert not A.is_canonical() and not B.is_canonical()
        self._assert_replays_contraction(A, B)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scrambled_pairs())
    def test_any_scrambled_operands(self, drawn):
        A, B, panel = drawn
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(expansion, "BUILD_PANEL", panel)
            self._assert_replays_contraction(A, B)


class TestReplayLayout:
    """A laid-out recipe replays the same bytes as the recipe it came from
    and as :func:`contract`, at every length-class boundary."""

    @staticmethod
    def _assert_layout_replays_bytes(A, B):
        with np.errstate(invalid="ignore", over="ignore"):   # inf - inf
            _, cold_values, fresh = _indexed(A, B)
            laid = lay_out_for_replay(fresh)
            exp = expand_products(A, B)
            C = contract(exp.rows, exp.cols, exp.vals, fresh.shape, A.dtype)
            want = values_from_recipe(fresh, A, B)
            got = values_from_recipe(laid, A, B)
        lengths = np.diff(fresh.starts, append=fresh.n_products)
        assert_same_bytes(want.astype(A.dtype), C.val, lengths,
                          "fresh recipe vs contract")
        assert_same_bytes(cold_values, want, lengths,
                          "cold pass vs fresh recipe")
        assert_same_bytes(got, want, lengths, "laid-out vs fresh recipe")
        assert laid.rpt is fresh.rpt and laid.col is fresh.col
        assert laid.row_counts is fresh.row_counts
        return fresh, laid

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("chunk", [REPLAY_CHUNK, 64, 1])
    def test_every_run_length_to_300(self, precision, chunk, monkeypatch):
        # 1-300 crosses the short-run limit (8/9) and the pairwise sum's
        # unrolled (16/17) and blocked (128/129/130) boundaries; the
        # short lengths repeat so that every short class is blocked
        monkeypatch.setattr(expansion, "REPLAY_CHUNK", chunk)
        A, B = run_length_operands(
            [*range(1, 301)] + [*range(1, SHORT_RUN + 1)] * 40, precision)
        fresh, laid = self._assert_layout_replays_bytes(A, B)
        lengths = np.diff(fresh.starts, append=fresh.n_products)
        assert set(lengths.tolist()) == set(range(1, 301))
        assert [n for n, _ in laid.blocks] == sorted(
            n for n, _ in laid.blocks)
        assert all(1 <= n <= SHORT_RUN and (n * runs <= chunk or runs == 1)
                   for n, runs in laid.blocks)
        n_short = int((lengths <= SHORT_RUN).sum())
        assert sum(runs for _, runs in laid.blocks) == n_short
        assert laid.starts.shape[0] == lengths.shape[0] - n_short
        np.testing.assert_array_equal(np.sort(laid.run_order),
                                      np.arange(lengths.shape[0]))

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_random_operands(self, rng, precision):
        A = generators.random_csr(2000, 60, 9, rng=rng).astype(precision)
        B = generators.random_csr(60, 5, 2, rng=rng).astype(precision)
        assert self._assert_layout_replays_bytes(A, B)[1].blocks

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(operand_pairs())
    def test_any_operands(self, pair):
        with pytest.MonkeyPatch.context() as mp:   # block every class
            mp.setattr(expansion, "MIN_CLASS_RUNS", 1)
            self._assert_layout_replays_bytes(*pair)

    def test_small_classes_stay_with_reduceat(self):
        # 30 x 24 runs of one product are blocked, 10 x 24 of two are not
        A, B = run_length_operands([1] * 30 + [2] * 10, "double")
        fresh, laid = self._assert_layout_replays_bytes(A, B)
        assert [n for n, _ in laid.blocks] == [1]
        assert laid.starts.shape[0] == 240

    def test_long_run_majority_keeps_its_arrays(self):
        # 600 blocked runs are fewer than half of all: the scatter back to
        # output order would cost more than the blocks save
        A, B = run_length_operands([1] * 25 + [*range(9, 41)], "double")
        fresh, laid = self._assert_layout_replays_bytes(A, B)
        assert laid.blocks == () and laid.run_order is None
        assert laid.a_idx is fresh.a_idx and laid.starts is fresh.starts

    def test_no_products(self, rng):
        A = generators.random_csr(6, 8, 3, rng=rng)
        fresh, laid = self._assert_layout_replays_bytes(
            A, CSRMatrix.empty((8, 5)))
        assert laid.blocks == () and laid.run_order is None
        assert laid.a_idx is fresh.a_idx

    def test_only_long_runs_keep_their_arrays(self):
        A, B = run_length_operands(range(SHORT_RUN + 1, 40), "double")
        fresh, laid = self._assert_layout_replays_bytes(A, B)
        assert laid.blocks == () and laid.run_order is None
        assert laid.a_idx is fresh.a_idx and laid.starts is fresh.starts

    def test_nbytes_counts_the_run_order(self, small_banded):
        fresh = _indexed(small_banded, small_banded)[2]
        laid = lay_out_for_replay(fresh)
        assert laid.nbytes() == (fresh.nbytes() + laid.run_order.nbytes
                                 - fresh.starts.nbytes + laid.starts.nbytes)
