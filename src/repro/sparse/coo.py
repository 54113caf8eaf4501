"""Coordinate-format container.

COO is the interchange format: MatrixMarket files, generators, and the ESC
baseline's intermediate triple list all speak COO.  ``to_csr`` performs the
canonical sort-and-contract (duplicates are *summed*, matching MatrixMarket
assembly semantics and the contraction step of the ESC algorithm).  Its
sort, :func:`sort_pairs`, is the one deduplicating ``(row, col)`` sort in
the package: the reference contraction, the distinct-count oracle and
the generators' deduplication all call it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SparseFormatError
from repro.types import INDEX_DTYPE, Precision


def sort_pairs(row: np.ndarray, col: np.ndarray, n_rows: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort ``(row, col)`` pairs and find their runs of equal pairs.

    Returns ``(order, starts, rpt)``: ``order`` sorts the pairs by row,
    then column, stably (equal pairs keep their input order); ``starts``
    are the positions in sorted order where each run of one pair begins;
    and ``rpt`` is the CSR row pointer of the distinct pairs, whose
    columns are ``col[order[starts]]``.  A caller sums its values over
    the runs with ``np.add.reduceat(val[order], starts)``.
    """
    order = np.lexsort((col, row))
    r, c = row[order], col[order]
    new_run = np.empty(order.shape[0], dtype=bool)
    new_run[:1] = True
    np.not_equal(r[1:], r[:-1], out=new_run[1:])
    new_run[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(new_run)
    rpt = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(r[starts], minlength=n_rows), out=rpt[1:])
    return order, starts, rpt


class COOMatrix:
    """A sparse matrix as parallel ``(row, col, val)`` arrays.

    Entries may be unsorted and may contain duplicates; :meth:`to_csr`
    canonicalizes.
    """

    __slots__ = ("row", "col", "val", "shape")

    def __init__(self, row: np.ndarray, col: np.ndarray, val: np.ndarray,
                 shape: tuple[int, int], *, check: bool = True) -> None:
        self.row = np.ascontiguousarray(row, dtype=INDEX_DTYPE)
        self.col = np.ascontiguousarray(col, dtype=INDEX_DTYPE)
        if np.asarray(val).dtype not in (np.float32, np.float64):
            val = np.asarray(val, dtype=np.float64)
        self.val = np.ascontiguousarray(val)
        self.shape = (int(shape[0]), int(shape[1]))
        if check:
            self.validate()

    def validate(self) -> None:
        """Raise :class:`SparseFormatError` on structural problems."""
        n_rows, n_cols = self.shape
        if not (self.row.shape == self.col.shape == self.val.shape):
            raise SparseFormatError(
                f"COO arrays disagree in length: row {self.row.shape}, "
                f"col {self.col.shape}, val {self.val.shape}")
        if self.row.ndim != 1:
            raise SparseFormatError("COO arrays must be one-dimensional")
        if n_rows < 0 or n_cols < 0:
            raise SparseFormatError(f"negative shape {self.shape}")
        if self.nnz:
            if self.row.min(initial=0) < 0 or self.row.max(initial=0) >= n_rows:
                raise SparseFormatError("COO row index out of range")
            if self.col.min(initial=0) < 0 or self.col.max(initial=0) >= n_cols:
                raise SparseFormatError("COO column index out of range")

    @property
    def nnz(self) -> int:
        """Number of stored entries (duplicates counted individually)."""
        return int(self.row.shape[0])

    @property
    def dtype(self) -> np.dtype:
        """Value dtype."""
        return self.val.dtype

    def to_csr(self) -> "CSRMatrix":
        """Sort by (row, col), sum duplicates, emit canonical CSR.

        This is exactly the "sorting" + "contraction" pair of the ESC
        algorithm (Bell et al.), vectorized: a lexicographic sort followed
        by a segmented reduction over runs of equal (row, col).
        """
        if self.nnz == 0:
            return CSRMatrix.empty(self.shape,
                                   Precision.SINGLE if self.dtype == np.float32
                                   else Precision.DOUBLE)
        order, starts, rpt = sort_pairs(self.row, self.col, self.shape[0])
        out_val = np.add.reduceat(self.val[order], starts)
        return CSRMatrix(rpt, self.col[order[starts]],
                         out_val.astype(self.dtype), self.shape, check=False)

    def device_bytes(self, precision: Precision | str | None = None) -> int:
        """Bytes on the simulated device: two 4-byte indices + value per entry."""
        if precision is None:
            p = Precision.SINGLE if self.dtype == np.float32 else Precision.DOUBLE
        else:
            p = Precision.parse(precision)
        return self.nnz * (2 * p.index_bytes + p.value_bytes)

    def __repr__(self) -> str:
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz}, dtype={self.dtype.name})"


from repro.sparse.csr import CSRMatrix  # noqa: E402  (cycle resolved at import tail)
