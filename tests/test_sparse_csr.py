"""Tests for the CSR container."""

import numpy as np
import pytest

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.sparse.csr import CSRMatrix
from repro.types import Precision

from tests.conftest import to_scipy


def make(rpt, col, val, shape, **kw):
    return CSRMatrix(np.asarray(rpt), np.asarray(col),
                     np.asarray(val, dtype=np.float64), shape, **kw)


class TestConstruction:
    def test_basic(self):
        m = make([0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0], (2, 3))
        assert m.n_rows == 2 and m.n_cols == 3 and m.nnz == 3

    def test_row_pointer_wrong_length(self):
        with pytest.raises(SparseFormatError, match="rpt has shape"):
            make([0, 1], [0], [1.0], (2, 2))

    def test_row_pointer_not_monotone(self):
        with pytest.raises(SparseFormatError, match="monotone"):
            make([0, 2, 1, 2], [0, 1], [1.0, 2.0], (3, 2))

    def test_column_out_of_range(self):
        with pytest.raises(SparseFormatError, match="column indices"):
            make([0, 1], [5], [1.0], (1, 2))

    def test_negative_column(self):
        with pytest.raises(SparseFormatError, match="column indices"):
            make([0, 1], [-1], [1.0], (1, 2))

    def test_col_val_length_mismatch(self):
        with pytest.raises(SparseFormatError, match="lengths differ"):
            make([0, 2], [0, 1], [1.0], (1, 2))

    def test_rpt_end_mismatch(self):
        with pytest.raises(SparseFormatError, match="nnz"):
            make([0, 3], [0, 1], [1.0, 2.0], (1, 2))

    def test_check_false_skips_validation(self):
        m = make([0, 5], [0], [1.0], (1, 2), check=False)  # inconsistent
        assert m.nnz == 1

    def test_integer_values_upcast_to_float64(self):
        m = CSRMatrix(np.array([0, 1]), np.array([0]), np.array([3]), (1, 1))
        assert m.dtype == np.float64


class TestProperties:
    def test_row_nnz(self, tiny):
        np.testing.assert_array_equal(tiny.row_nnz(), [2, 1, 2, 2])

    def test_row_slice(self, tiny):
        cols, vals = tiny.row_slice(0)
        np.testing.assert_array_equal(cols, [0, 2])
        np.testing.assert_array_equal(vals, [2.0, 1.0])

    def test_iter_rows(self, tiny):
        rows = list(tiny.iter_rows())
        assert len(rows) == 4
        np.testing.assert_array_equal(rows[3][0], [1, 3])

    def test_precision_detection(self, tiny):
        assert tiny.precision is Precision.DOUBLE
        assert tiny.astype("single").precision is Precision.SINGLE

    def test_device_bytes(self, tiny):
        # 5 rpt words + 7 entries of (4 + 8) bytes
        assert tiny.device_bytes() == 5 * 4 + 7 * 12
        assert tiny.device_bytes("single") == 5 * 4 + 7 * 8

    def test_repr(self, tiny):
        assert "CSRMatrix" in repr(tiny) and "nnz=7" in repr(tiny)


class TestConversions:
    def test_dense_round_trip(self, tiny):
        rebuilt = CSRMatrix.from_dense(tiny.to_dense())
        assert rebuilt.allclose(tiny)

    def test_to_coo_round_trip(self, small_random):
        assert small_random.to_coo().to_csr().allclose(small_random)

    def test_from_dense_drops_zeros(self):
        m = CSRMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert m.nnz == 1

    def test_from_dense_rejects_1d(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix.from_dense(np.zeros(3))

    def test_astype_preserves_structure(self, small_random):
        s = small_random.astype("single")
        np.testing.assert_array_equal(s.rpt, small_random.rpt)
        np.testing.assert_array_equal(s.col, small_random.col)
        assert s.val.dtype == np.float32

    def test_empty(self):
        m = CSRMatrix.empty((3, 5))
        assert m.nnz == 0 and m.shape == (3, 5)
        assert np.all(m.to_dense() == 0)

    def test_identity(self):
        eye = CSRMatrix.identity(4)
        np.testing.assert_array_equal(eye.to_dense(), np.eye(4))


class TestTranspose:
    def test_matches_dense(self, small_random):
        np.testing.assert_allclose(small_random.transpose().to_dense(),
                                   small_random.to_dense().T)

    def test_double_transpose_identity(self, small_banded):
        assert small_banded.transpose().transpose().allclose(small_banded)

    def test_transpose_is_canonical(self, small_random):
        assert small_random.transpose().is_canonical()

    def test_rectangular(self, rng):
        from repro.sparse.generators import random_csr

        m = random_csr(10, 30, 4, rng=rng)
        t = m.transpose()
        assert t.shape == (30, 10)
        np.testing.assert_allclose(t.to_dense(), m.to_dense().T)


class TestArithmetic:
    def test_matvec_matches_dense(self, small_random, rng):
        x = rng.random(small_random.n_cols)
        np.testing.assert_allclose(small_random.matvec(x),
                                   small_random.to_dense() @ x)

    def test_matvec_empty_rows(self):
        m = CSRMatrix.empty((4, 4))
        np.testing.assert_array_equal(m.matvec(np.ones(4)), np.zeros(4))

    def test_matvec_shape_error(self, tiny):
        with pytest.raises(ShapeMismatchError):
            tiny.matvec(np.ones(9))

    def test_scale_rows(self, tiny):
        d = np.array([1.0, 2.0, 3.0, 4.0])
        scaled = tiny.scale_rows(d)
        np.testing.assert_allclose(scaled.to_dense(),
                                   np.diag(d) @ tiny.to_dense())

    def test_scale_rows_shape_error(self, tiny):
        with pytest.raises(ShapeMismatchError):
            tiny.scale_rows(np.ones(2))

    def test_matmul_operator(self, tiny):
        product = tiny @ tiny
        expected = to_scipy(tiny) @ to_scipy(tiny)
        np.testing.assert_allclose(product.to_dense(), expected.toarray())


class TestCanonical:
    def test_sorted_input_is_canonical(self, small_banded):
        assert small_banded.is_canonical()

    def test_unsorted_detected_and_fixed(self):
        m = make([0, 2], [1, 0], [5.0, 7.0], (1, 2))
        assert not m.is_canonical()
        c = m.canonicalize()
        assert c.is_canonical()
        np.testing.assert_array_equal(c.col, [0, 1])
        np.testing.assert_array_equal(c.val, [7.0, 5.0])

    def test_duplicates_merged_by_canonicalize(self):
        m = make([0, 3], [1, 1, 0], [1.0, 2.0, 4.0], (1, 2))
        c = m.canonicalize()
        assert c.nnz == 2
        np.testing.assert_array_equal(c.val, [4.0, 3.0])

    def test_empty_matrix_canonical(self):
        assert CSRMatrix.empty((5, 5)).is_canonical()

    def test_allclose_detects_value_difference(self, tiny):
        other = CSRMatrix(tiny.rpt, tiny.col, tiny.val * 1.5, tiny.shape)
        assert not tiny.allclose(other)


class TestOwnership:
    """A matrix owns read-only structure arrays; values stay writable."""

    def test_structure_is_read_only_values_writable(self, tiny):
        with pytest.raises(ValueError):
            tiny.rpt[1] = 0
        with pytest.raises(ValueError):
            tiny.col[0] = 3
        tiny.val[:] = 7.0
        assert np.all(tiny.val == 7.0)

    def test_owned_array_is_frozen_in_place(self):
        rpt, col = np.array([0, 1, 2]), np.array([1, 0])
        A = CSRMatrix(rpt, col, np.ones(2), (2, 2))
        assert A.rpt is rpt and A.col is col
        assert not rpt.flags.writeable

    def test_view_of_writable_array_is_copied(self):
        buf = np.array([9, 0, 1, 2, 1, 0])
        A = CSRMatrix(buf[1:4], buf[4:], np.ones(2), (2, 2))
        assert not np.shares_memory(A.rpt, buf)
        assert not np.shares_memory(A.col, buf)
        buf[:] = -1                     # the alias cannot reach A
        np.testing.assert_array_equal(A.rpt, [0, 1, 2])
        np.testing.assert_array_equal(A.col, [1, 0])
        assert buf.flags.writeable      # the caller's buffer is untouched

    def test_row_panel_keeps_views_of_frozen_arrays(self, small_banded):
        panel = small_banded.row_panel(10, 40)
        assert np.shares_memory(panel.col, small_banded.col)
        assert not panel.col.flags.writeable


class TestExtractRows:
    def test_preserves_order_and_repeats(self, small_random):
        idx = [5, 2, 2, 59, 0]
        sub = small_random.extract_rows(idx)
        assert sub.shape == (5, small_random.n_cols)
        np.testing.assert_array_equal(
            sub.to_dense(), small_random.to_dense()[idx])

    def test_matches_row_panel_for_contiguous_range(self, small_banded):
        sub = small_banded.extract_rows(np.arange(10, 40))
        panel = small_banded.row_panel(10, 40)
        np.testing.assert_array_equal(sub.rpt, panel.rpt)
        np.testing.assert_array_equal(sub.col, panel.col)
        np.testing.assert_array_equal(sub.val, panel.val)

    def test_empty_selection(self, tiny):
        sub = tiny.extract_rows([])
        assert sub.shape == (0, tiny.n_cols) and sub.nnz == 0

    def test_out_of_range_rejected(self, tiny):
        with pytest.raises(SparseFormatError, match="out of range"):
            tiny.extract_rows([0, 4])
        with pytest.raises(SparseFormatError, match="out of range"):
            tiny.extract_rows([-1])

    def test_rejects_2d_indices(self, tiny):
        with pytest.raises(SparseFormatError, match="1-D"):
            tiny.extract_rows([[0, 1]])


class TestColPanelHstack:
    def test_col_panel_matches_dense_slice(self, small_random):
        panel = small_random.col_panel(10, 45)
        np.testing.assert_array_equal(
            panel.to_dense(), small_random.to_dense()[:, 10:45])

    def test_round_trip_at_consecutive_boundaries(self, small_banded):
        cuts = [0, 37, 37, 120, small_banded.n_cols]
        parts = [small_banded.col_panel(lo, hi)
                 for lo, hi in zip(cuts, cuts[1:])]
        back = CSRMatrix.hstack(parts)
        assert back.shape == small_banded.shape
        np.testing.assert_array_equal(back.rpt, small_banded.rpt)
        np.testing.assert_array_equal(back.col, small_banded.col)
        np.testing.assert_array_equal(back.val, small_banded.val)

    def test_hstack_preserves_canonical_order(self, small_random):
        parts = [small_random.col_panel(0, 30), small_random.col_panel(30, 60)]
        assert CSRMatrix.hstack(parts).is_canonical()

    def test_col_panel_range_errors(self, tiny):
        with pytest.raises(SparseFormatError, match="out of range"):
            tiny.col_panel(2, 5)
        with pytest.raises(SparseFormatError, match="out of range"):
            tiny.col_panel(-1, 2)

    def test_hstack_row_count_mismatch(self, tiny):
        with pytest.raises(ShapeMismatchError, match="row counts"):
            CSRMatrix.hstack([tiny, tiny.row_panel(0, 2)])

    def test_hstack_empty_list(self):
        with pytest.raises(SparseFormatError, match="zero panels"):
            CSRMatrix.hstack([])


class TestVstackPinned:
    """Regression pins for the preallocated (O(nnz)) vstack rebuild."""

    def test_round_trip_many_panels(self, small_banded):
        cuts = [0, 1, 7, 8, 64, 64, 130, 200]
        parts = [small_banded.row_panel(lo, hi)
                 for lo, hi in zip(cuts[:-1], cuts[1:])]
        back = CSRMatrix.vstack(parts)
        # bit-identical reassembly, including through the empty panel
        np.testing.assert_array_equal(back.rpt, small_banded.rpt)
        np.testing.assert_array_equal(back.col, small_banded.col)
        np.testing.assert_array_equal(back.val, small_banded.val)
        assert back.shape == small_banded.shape

    def test_dtypes_and_offsets_pinned(self, tiny):
        stacked = CSRMatrix.vstack([tiny, tiny, tiny])
        assert stacked.rpt.dtype == tiny.rpt.dtype
        assert stacked.n_rows == 3 * tiny.n_rows
        # each copy's pointer block is the original shifted by k * nnz
        n, nnz = tiny.n_rows, tiny.nnz
        for k in range(3):
            np.testing.assert_array_equal(
                stacked.rpt[k * n:(k + 1) * n + 1] - k * nnz, tiny.rpt)

    def test_all_empty_panels(self):
        empty = CSRMatrix.from_dense(np.zeros((4, 5)))
        stacked = CSRMatrix.vstack([empty, empty])
        assert stacked.shape == (8, 5)
        assert stacked.nnz == 0
        np.testing.assert_array_equal(stacked.rpt, np.zeros(9, dtype=stacked.rpt.dtype))
