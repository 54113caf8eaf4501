"""Matrix statistics in the shape of the paper's Table II.

The benchmark datasets carry both the *instance* statistics (of the scaled
synthetic matrix actually multiplied) and the *paper* statistics (full-size
numbers from Table II) so memory accounting can run at true scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sparse.expansion import intermediate_product_counts, symbolic_row_nnz


@dataclass(frozen=True)
class MatrixStats:
    """Row/column/nnz statistics of a matrix and of its square.

    Mirrors the columns of Table II: Row, Non-zero, Nnz/row, Max nnz/row,
    Intermediate product of A^2, Nnz of A^2.
    """

    name: str
    rows: int
    cols: int
    nnz: int
    nnz_per_row_mean: float
    nnz_per_row_max: int
    n_products: int          #: total intermediate products of A @ A (or A @ B)
    nnz_out: int             #: nnz of the product
    row_products: np.ndarray = field(repr=False, compare=False,
                                     default_factory=lambda: np.empty(0, np.int64))
    row_nnz_out: np.ndarray = field(repr=False, compare=False,
                                    default_factory=lambda: np.empty(0, np.int64))

    @property
    def flops(self) -> int:
        """FLOP count of the multiply under the paper's metric (2 * products)."""
        return 2 * self.n_products

    def table_row(self) -> str:
        """One formatted row in the style of Table II."""
        return (f"{self.name:<18} {self.rows:>10,} {self.nnz:>12,} "
                f"{self.nnz_per_row_mean:>8.1f} {self.nnz_per_row_max:>12,} "
                f"{self.n_products:>16,} {self.nnz_out:>14,}")

    @staticmethod
    def table_header() -> str:
        """Header matching :meth:`table_row`."""
        return (f"{'Name':<18} {'Row':>10} {'Non-zero':>12} {'Nnz/row':>8} "
                f"{'Max nnz/row':>12} {'Interm. products':>16} {'Nnz out':>14}")


def compute_stats(A, B=None, name: str = "") -> MatrixStats:
    """Compute :class:`MatrixStats` for ``A @ B`` (default ``B = A``).

    Runs the exact symbolic phase (vectorized oracle), so cost is comparable
    to one SpGEMM; intended for dataset preparation, not hot paths.
    """
    if B is None:
        B = A
    row_nnz = A.row_nnz()
    row_products = intermediate_product_counts(A, B)
    row_nnz_out = symbolic_row_nnz(A, B)
    return MatrixStats(
        name=name or "matrix",
        rows=A.n_rows,
        cols=A.n_cols,
        nnz=A.nnz,
        nnz_per_row_mean=float(A.nnz / max(1, A.n_rows)),
        nnz_per_row_max=int(row_nnz.max(initial=0)),
        n_products=int(row_products.sum()),
        nnz_out=int(row_nnz_out.sum()),
        row_products=row_products.astype(np.int64),
        row_nnz_out=row_nnz_out.astype(np.int64),
    )
