"""Matrix sketches: the cheap structural summary that seeds the tuner.

Grouping and kernel costs depend on the *distribution* of per-row
intermediate products and output nnz, not on the exact pattern, so the
tuner works from a log2-bucketed histogram: for every power-of-two bucket
of the intermediate-product count it records how many rows fall there and
the bucket's total ``nnz(A)`` / products / output nnz.  Two matrices with
the same sketch get the same tuned configuration -- that is what makes
the persistent store reusable across runs -- and :meth:`MatrixSketch.
reconstruct` turns the sketch back into representative per-row arrays
that feed the unmodified symbolic/numeric planners.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.product import recipe_for


@dataclass(frozen=True)
class MatrixSketch:
    """Log2-bucketed row histogram of one SpGEMM instance.

    ``buckets[k]`` covers rows whose intermediate-product count has
    ``bit_length() == k`` (bucket 0 holds product-free rows); each row of
    the ``(K, 4)`` array stores ``(rows, sum_nnz_a, sum_products,
    sum_nnz_out)`` for its bucket.
    """

    shape: tuple[int, int]
    nnz_a: int
    nnz_b: int
    buckets: np.ndarray            #: (K, 4) int64, K = max bit_length + 1

    @property
    def n_rows(self) -> int:
        return int(self.buckets[:, 0].sum())

    @property
    def n_products(self) -> int:
        return int(self.buckets[:, 2].sum())

    @property
    def nnz_out(self) -> int:
        return int(self.buckets[:, 3].sum())

    def digest(self) -> str:
        """Stable hex digest keying the tuning store.

        Covers the shapes, input nnz and the full bucket table, so any
        structural change -- not just a size change -- invalidates cached
        tuning results.
        """
        h = hashlib.sha256()
        h.update(np.asarray([*self.shape, self.nnz_a, self.nnz_b],
                            dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.buckets, dtype=np.int64).tobytes())
        return h.hexdigest()[:16]

    def reconstruct(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Representative per-row ``(nnz_a, products, nnz_out)`` arrays.

        Every bucket's rows are replaced by its mean row (rounded up, so
        a bucket never collapses below the grouping boundary its real
        rows sat above).  The arrays are what the symbolic/numeric
        planners consume; they have ``n_rows`` entries in bucket order,
        which is fine because grouping is order-free.
        """
        rows = self.buckets[:, 0]
        out = []
        for col in (1, 2, 3):
            means = np.zeros(rows.shape[0], dtype=np.float64)
            np.divide(self.buckets[:, col], np.maximum(rows, 1),
                      out=means, where=rows > 0)
            out.append(np.repeat(np.ceil(means).astype(np.int64), rows))
        return out[0], out[1], out[2]


def sketch_matrix(A: CSRMatrix, B: CSRMatrix) -> MatrixSketch:
    """Sketch the product ``A @ B``.

    Reads the per-row product counts and the output structure off the
    pattern's sort recipe (:func:`repro.sparse.product.recipe_for`), the
    one the multiply itself uses, so sketching a seen pattern costs one
    histogram: no values are computed or hashed.  On an unseen pattern
    the read runs the cold pass into the full-result cache, which the
    tuned multiply then hits.
    """
    recipe = recipe_for(A, B)
    row_products = recipe.row_counts.astype(np.int64)
    row_nnz_a = A.row_nnz().astype(np.int64)
    row_nnz_out = np.diff(recipe.rpt).astype(np.int64)

    # bucket index = bit_length of the product count (0 for empty rows)
    k = np.zeros(row_products.shape[0], dtype=np.int64)
    pos = row_products > 0
    k[pos] = np.floor(np.log2(row_products[pos])).astype(np.int64) + 1
    n_buckets = int(k.max(initial=0)) + 1
    buckets = np.zeros((n_buckets, 4), dtype=np.int64)
    np.add.at(buckets[:, 0], k, 1)
    np.add.at(buckets[:, 1], k, row_nnz_a)
    np.add.at(buckets[:, 2], k, row_products)
    np.add.at(buckets[:, 3], k, row_nnz_out)
    return MatrixSketch(shape=(A.n_rows, B.n_cols), nnz_a=A.nnz, nnz_b=B.nnz,
                        buckets=buckets)
