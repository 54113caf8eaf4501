"""Compressed Sparse Row container.

CSR is the input *and* output format of every algorithm in this package, as
in the paper ("All input and output matrices are stored in CSR format",
Section III).  The container is deliberately minimal: three arrays plus a
shape, with canonicalization helpers.  ``rpt`` follows the paper's naming
(row pointer); ``col`` / ``val`` hold column indices and values.

A matrix *owns* its structure: ``rpt`` and ``col`` are read-only from
construction on, so an array's identity implies its content and the
pattern fingerprint (:func:`repro.sparse.product.pattern_fingerprint`)
is computed once per structure, not once per call.  ``val`` stays
writable -- iterative workloads update values in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.types import INDEX_DTYPE, Precision

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sparse.coo import COOMatrix


def segment_sums(values: np.ndarray, rpt: np.ndarray) -> np.ndarray:
    """Sum of ``values`` over each segment ``rpt[i]:rpt[i + 1]``, in the
    dtype of ``values``; an empty segment sums to zero."""
    out = np.zeros(rpt.shape[0] - 1, dtype=values.dtype)
    nz = rpt[1:] > rpt[:-1]
    starts = rpt[:-1][nz]
    if starts.size:
        out[nz] = np.add.reduceat(values, starts)
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only, copied first if some writable array can
    still reach its memory (a view of a writable base, or of a foreign
    buffer)."""
    base = a.base
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            break
        base = base.base
    if base is not None:
        a = a.copy()
    a.flags.writeable = False
    return a


class CSRMatrix:
    """A sparse matrix in Compressed Sparse Row format.

    Parameters
    ----------
    rpt:
        Row pointer, shape ``(n_rows + 1,)``, monotone, ``rpt[0] == 0`` and
        ``rpt[-1] == nnz``.
    col:
        Column index of each stored entry, shape ``(nnz,)``.
    val:
        Value of each stored entry, shape ``(nnz,)``, float32 or float64.
    shape:
        ``(n_rows, n_cols)``.
    check:
        Validate structural invariants on construction (default True).
        Disable in hot paths that construct provably-valid output.

    ``rpt`` and ``col`` are frozen read-only.  An array that owns its
    data is frozen in place (the caller's reference becomes read-only
    too); a view into a writable array is copied first, so no alias can
    rewrite the structure under a cached fingerprint.  Views of frozen
    arrays (:meth:`row_panel`) are kept as they are.
    """

    __slots__ = ("rpt", "col", "val", "shape")

    def __init__(self, rpt: np.ndarray, col: np.ndarray, val: np.ndarray,
                 shape: tuple[int, int], *, check: bool = True) -> None:
        self.rpt = _frozen(np.ascontiguousarray(rpt, dtype=INDEX_DTYPE))
        self.col = _frozen(np.ascontiguousarray(col, dtype=INDEX_DTYPE))
        if val.dtype not in (np.float32, np.float64):
            val = np.asarray(val, dtype=np.float64)
        self.val = np.ascontiguousarray(val)
        self.shape = (int(shape[0]), int(shape[1]))
        if check:
            from repro.sparse.validate import validate_csr

            validate_csr(self)

    # -- basic properties --------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of columns."""
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.col.shape[0])

    @property
    def dtype(self) -> np.dtype:
        """Value dtype."""
        return self.val.dtype

    @property
    def precision(self) -> Precision:
        """Precision implied by the value dtype."""
        return Precision.SINGLE if self.dtype == np.float32 else Precision.DOUBLE

    def row_nnz(self) -> np.ndarray:
        """Stored entries per row, shape ``(n_rows,)``."""
        return np.diff(self.rpt)

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """``(columns, values)`` views of row ``i``."""
        lo, hi = int(self.rpt[i]), int(self.rpt[i + 1])
        return self.col[lo:hi], self.val[lo:hi]

    # -- device accounting -------------------------------------------------

    def device_bytes(self, precision: Precision | str | None = None) -> int:
        """Bytes this matrix occupies on the simulated device.

        Row pointers and column indices are 4 bytes each on the device
        regardless of the NumPy dtype used functionally; values take 4 or 8
        bytes according to ``precision`` (default: the matrix's own).
        """
        p = self.precision if precision is None else Precision.parse(precision)
        return (self.n_rows + 1) * p.index_bytes + self.nnz * (p.index_bytes + p.value_bytes)

    # -- conversion ---------------------------------------------------------

    def astype(self, precision: Precision | str) -> "CSRMatrix":
        """Copy with values cast to the given precision."""
        p = Precision.parse(precision)
        return CSRMatrix(self.rpt, self.col, self.val.astype(p.value_dtype),
                         self.shape, check=False)

    def to_coo(self) -> "COOMatrix":
        """Convert to COO (row indices expanded from the row pointer)."""
        from repro.sparse.coo import COOMatrix

        rows = np.repeat(np.arange(self.n_rows, dtype=INDEX_DTYPE), self.row_nnz())
        return COOMatrix(rows, self.col.copy(), self.val.copy(), self.shape,
                         check=False)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (intended for small test matrices)."""
        out = np.zeros(self.shape, dtype=self.dtype)
        rows = np.repeat(np.arange(self.n_rows), self.row_nnz())
        # duplicate-safe accumulation so non-canonical inputs densify correctly
        np.add.at(out, (rows, self.col), self.val)
        return out

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build from a dense array, dropping exact zeros."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise SparseFormatError("from_dense expects a 2-D array")
        mask = dense != 0
        counts = mask.sum(axis=1)
        rpt = np.zeros(dense.shape[0] + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=rpt[1:])
        rows, cols = np.nonzero(mask)
        vdtype = dense.dtype if dense.dtype in (np.float32, np.float64) else np.float64
        return cls(rpt, cols.astype(INDEX_DTYPE), dense[rows, cols].astype(vdtype),
                   dense.shape, check=False)

    @classmethod
    def empty(cls, shape: tuple[int, int],
              precision: Precision | str = Precision.DOUBLE) -> "CSRMatrix":
        """An all-zero matrix of the given shape."""
        p = Precision.parse(precision)
        return cls(np.zeros(shape[0] + 1, dtype=INDEX_DTYPE),
                   np.empty(0, dtype=INDEX_DTYPE),
                   np.empty(0, dtype=p.value_dtype), shape, check=False)

    @classmethod
    def identity(cls, n: int,
                 precision: Precision | str = Precision.DOUBLE) -> "CSRMatrix":
        """The ``n x n`` identity matrix."""
        p = Precision.parse(precision)
        return cls(np.arange(n + 1, dtype=INDEX_DTYPE),
                   np.arange(n, dtype=INDEX_DTYPE),
                   np.ones(n, dtype=p.value_dtype), (n, n), check=False)

    # -- row panels (resilient chunked execution) ---------------------------

    def row_panel(self, lo: int, hi: int) -> "CSRMatrix":
        """The horizontal slab of rows ``lo:hi`` as its own CSR matrix.

        Column dimension is preserved, so ``panel @ B`` is well defined;
        ``col``/``val`` are views into this matrix (no copy).
        """
        if not 0 <= lo <= hi <= self.n_rows:
            raise SparseFormatError(
                f"row panel [{lo}, {hi}) out of range for {self.n_rows} rows")
        start, end = int(self.rpt[lo]), int(self.rpt[hi])
        return CSRMatrix(self.rpt[lo:hi + 1] - start, self.col[start:end],
                         self.val[start:end], (hi - lo, self.n_cols),
                         check=False)

    @classmethod
    def vstack(cls, parts: "list[CSRMatrix]") -> "CSRMatrix":
        """Concatenate row panels back into one matrix (inverse of
        splitting via :meth:`row_panel` at consecutive boundaries)."""
        if not parts:
            raise SparseFormatError("vstack of zero panels")
        n_cols = parts[0].n_cols
        if any(p.n_cols != n_cols for p in parts):
            raise ShapeMismatchError(
                f"vstack: column counts differ: {[p.n_cols for p in parts]}")
        n_rows = sum(p.n_rows for p in parts)
        # one preallocated row pointer, each panel's slice written in
        # place with its nnz offset -- no intermediate per-panel arrays
        rpt = np.empty(n_rows + 1, dtype=INDEX_DTYPE)
        rpt[0] = 0
        pos, offset = 1, 0
        for p in parts:
            rpt[pos:pos + p.n_rows] = p.rpt[1:] + offset
            pos += p.n_rows
            offset += p.nnz
        return cls(rpt,
                   np.concatenate([p.col for p in parts]),
                   np.concatenate([p.val for p in parts]),
                   (n_rows, n_cols), check=False)

    # -- canonical form -----------------------------------------------------

    def is_canonical(self) -> bool:
        """True if every row has strictly increasing column indices."""
        if self.nnz == 0:
            return True
        d = np.diff(self.col)
        row_starts = self.rpt[1:-1]
        inner = np.ones(self.nnz - 1, dtype=bool)
        # positions that cross a row boundary are exempt from the ordering check
        boundary = np.unique(row_starts[(row_starts > 0) & (row_starts < self.nnz)]) - 1
        inner[boundary] = False
        return bool(np.all(d[inner] > 0))

    def canonicalize(self) -> "CSRMatrix":
        """Return an equivalent matrix with sorted columns and merged duplicates."""
        from repro.sparse.coo import COOMatrix

        rows = np.repeat(np.arange(self.n_rows, dtype=INDEX_DTYPE), self.row_nnz())
        return COOMatrix(rows, self.col, self.val, self.shape, check=False).to_csr()

    # -- arithmetic helpers (small-scale; algorithms live elsewhere) --------

    def transpose(self) -> "CSRMatrix":
        """Transpose via counting sort over columns (O(nnz + n_cols))."""
        n_rows, n_cols = self.shape
        counts = np.bincount(self.col, minlength=n_cols)
        rpt_t = np.zeros(n_cols + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=rpt_t[1:])
        order = np.argsort(self.col, kind="stable")
        rows = np.repeat(np.arange(n_rows, dtype=INDEX_DTYPE), self.row_nnz())
        return CSRMatrix(rpt_t, rows[order], self.val[order], (n_cols, n_rows),
                         check=False)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix-vector product ``self @ x`` (vectorized SpMV)."""
        x = np.asarray(x)
        if x.shape[0] != self.n_cols:
            raise ShapeMismatchError(
                f"matvec: vector of length {x.shape[0]} against {self.shape}")
        return segment_sums(self.val * x[self.col], self.rpt)

    def __matmul__(self, other: "CSRMatrix") -> "CSRMatrix":
        """Convenience SpGEMM using the reference algorithm."""
        from repro.sparse.reference import spgemm_reference

        return spgemm_reference(self, other)

    # -- comparison / repr ---------------------------------------------------

    def allclose(self, other: "CSRMatrix", rtol: float = 1e-5,
                 atol: float = 1e-8) -> bool:
        """Structural equality and elementwise value closeness (canonical forms)."""
        a, b = self.canonicalize(), other.canonicalize()
        return (a.shape == b.shape
                and np.array_equal(a.rpt, b.rpt)
                and np.array_equal(a.col, b.col)
                and np.allclose(a.val, b.val, rtol=rtol, atol=atol))

    def __repr__(self) -> str:
        return (f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
                f"dtype={self.dtype.name})")
