"""Cached functional products and the one home of operand hashing.

Every algorithm in this package computes the same functional result (the
canonical ``C = A @ B``) and the same per-row statistics; only the *cost
accounting* differs.  On this reproduction's CPU substrate the expansion +
contraction is by far the most expensive functional step, so two stores
sit in front of it:

* a full-result cache keyed by operand identity + value content, serving
  byte-for-byte repeats (the benchmark suites' pattern: four algorithms
  squaring one matrix);
* the *recipe store*: one :class:`~repro.sparse.expansion.SortRecipe` per
  pair of sparsity patterns, keyed by :func:`pattern_digest`.  A recipe
  is everything value-independent about a product -- the sort
  permutation, the duplicate-run boundaries and the output structure --
  so a seen pattern costs a gather + multiply + ``reduceat`` instead of
  the dominant stable sort, bit-identical by construction (the recipe
  tests hold it to the expansion + contraction behind
  :func:`~repro.sparse.reference.spgemm_reference`).  Fresh-value
  iterates, plan-cache replays (:func:`repro.engine.plan.replay_values`,
  which pass the digest their plan key already carries) and the tuner's
  sketch all read it.

Operand hashing lives here and nowhere else.  :func:`pattern_digest` is
the only code that hashes structure bytes and :func:`_val_tag` the only
code that hashes values.  The ownership contract makes the pattern half
cheap: a :class:`~repro.sparse.csr.CSRMatrix` owns read-only ``rpt`` and
``col`` arrays, so a structure array's identity implies its content, and
:func:`pattern_fingerprint` memoizes the digest by array identity.  A
warm iterate -- fresh values on a seen structure -- hashes no structure
at all; the plan key, the recipe store, the tuner's sketch, the serving
layer's coalescing key and the distributed layer's resident-B check all
read the memo.  Values stay writable, so value tags are never memoized.

The recipe store is an LRU bounded by host bytes
(:data:`RECIPE_BUDGET_BYTES`, sized from measured working sets); a
recipe larger than the whole budget is kept alone as the newest entry.

Both stores are invisible in the simulated timings (which are derived
from the work model, not from wall-clock).  Values are accumulated in
float64 once and cast per requested precision; the device algorithms
would accumulate in their own precision with nondeterministic ordering,
so tests compare values with tolerance anyway (see DESIGN.md section 6).
"""

from __future__ import annotations

import hashlib
import weakref
from typing import NamedTuple

import numpy as np

from repro import perf
from repro.sparse.csr import CSRMatrix
from repro.sparse.expansion import (SortRecipe, build_sort_recipe,
                                    values_from_recipe)
from repro.types import Precision

#: Maximum retained operand pairs (strong references).  Sized to hold the
#: benchmark suite's working set so figure benchmarks do not recompute the
#: functional product for every algorithm.
_CACHE_CAPACITY = 16

_cache = perf.LRUCache(_CACHE_CAPACITY)

#: Host-byte budget of the recipe store.  Measured working sets: a
#: 2-device serving pool cycles 18 solver-panel recipes (2.56 MiB in
#: all) past never-reused graph panels of ~100-120 KiB; the E16 iterate's
#: recipe is 8.01 MiB and one MCL run adds 7 more (2.78 MiB), so under
#: ~10.8 MiB that loop rebuilds recipes every round.  16 MiB cost the
#: serving benchmark 3% peak RSS, 64 MiB 23%.
RECIPE_BUDGET_BYTES = 16 << 20

_recipes = perf.LRUCache(RECIPE_BUDGET_BYTES, size=SortRecipe.nbytes)

#: Retained pattern fingerprints.  An entry is a digest and weak
#: references (a few hundred bytes) and keeps no operand alive; evicting
#: the entry of a still-live structure costs one more hash, nothing else.
_FINGERPRINT_CAPACITY = 256

_fingerprints = perf.LRUCache(_FINGERPRINT_CAPACITY)


class ProductResult(NamedTuple):
    """Functional product of one operand pair (values in float64)."""

    anchors: tuple               #: strong refs keeping the id()-key valid
    row_products: np.ndarray     #: Alg. 2 counts per row (int64)
    C: CSRMatrix                 #: canonical product, float64 values

    @property
    def n_products(self) -> int:
        """Total intermediate products."""
        return int(self.row_products.sum())

    @property
    def row_nnz(self) -> np.ndarray:
        """Output nnz per row."""
        return self.C.row_nnz()


def _val_tag(val: np.ndarray) -> bytes:
    """Content fingerprint of a value array (dtype + bytes).

    Identity alone is not enough: values stay writable, and iterative
    workloads update them in place or rebuild the value array on a
    shared structure (same rpt/col objects), so an ``id()``-only key
    would replay the previous iterate's product.  Hashing is O(nnz) --
    noise next to the O(products) expansion it guards."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(val.dtype).encode())
    h.update(np.ascontiguousarray(val).tobytes())
    return h.digest()


def value_tags(A: CSRMatrix, B: CSRMatrix | None = None) -> tuple[bytes, ...]:
    """:func:`_val_tag` of each operand's values; a value array shared by
    both operands (``A @ A``) is hashed once."""
    a_tag = _val_tag(A.val)
    if B is None:
        return (a_tag,)
    return a_tag, (a_tag if B.val is A.val else _val_tag(B.val))


def _key(A: CSRMatrix, B: CSRMatrix) -> tuple:
    """Cache key: structure arrays by identity, values by content.

    Repeated runs of the same matrix object (the benchmark suite's
    pattern) hit; value-only updates on a shared structure miss the
    full-result cache (and land on the recipe store), keeping the
    functional layer exact."""
    return (id(A.rpt), id(A.col), id(B.rpt), id(B.col), *value_tags(A, B))


def pattern_digest(A: CSRMatrix, B: CSRMatrix | None = None) -> str:
    """BLAKE2b digest of the operand sparsity patterns.

    Hashes the *contents* of ``rpt_A``/``col_A``/``rpt_B``/``col_B`` plus
    both shapes (only ``A``'s when ``B`` is omitted), so precision casts
    (which share the structure arrays) and value-only updates map to the
    same key, while any structural change -- even one moved nonzero --
    changes it.  The only code that hashes structure bytes; callers go
    through the memo, :func:`pattern_fingerprint`.
    """
    h = hashlib.blake2b(digest_size=16)
    for m in (A,) if B is None else (A, B):
        h.update(np.int64(m.n_rows).tobytes())
        h.update(np.int64(m.n_cols).tobytes())
        h.update(np.ascontiguousarray(m.rpt).tobytes())
        h.update(np.ascontiguousarray(m.col).tobytes())
    return h.hexdigest()


def pattern_fingerprint(A: CSRMatrix, B: CSRMatrix | None = None) -> str:
    """:func:`pattern_digest` of the operands, computed once per structure.

    The memo keys on the identity of the structure arrays and on the
    shapes.  That is sound because :class:`~repro.sparse.csr.CSRMatrix`
    freezes ``rpt``/``col`` at construction: a live array's identity
    implies its content.  Weak references validate each hit, so the
    memo keeps no operand alive and an ``id()`` reused after collection
    never hits.  Matrices whose structure was swapped for a writable
    array after construction are hashed on every call.
    """
    mats = (A,) if B is None else (A, B)
    arrays = [a for m in mats for a in (m.rpt, m.col)]
    if any(a.flags.writeable for a in arrays):
        return pattern_digest(A, B)
    key = (*map(id, arrays), *(m.shape for m in mats))
    hit = _fingerprints.get(key)
    if hit is not None and all(r() is a for r, a in zip(hit[0], arrays)):
        return hit[1]
    digest = pattern_digest(A, B)
    _fingerprints.put(key, (tuple(map(weakref.ref, arrays)), digest))
    return digest


def recipe_for(A: CSRMatrix, B: CSRMatrix,
               digest: str | None = None) -> SortRecipe:
    """The sort recipe for the operand *patterns*, from the recipe store.

    ``digest`` is :func:`pattern_digest` of ``(A, B)`` when the caller
    already holds it (a plan key carries it); otherwise it comes from
    the memo, :func:`pattern_fingerprint`.  Content keying plus the
    ownership contract (read-only structure arrays) makes staleness
    impossible: a different pattern is a different array, hence a
    different digest.  The returned arrays are shared by every product
    computed from the same pattern; the output matrix built on them
    freezes them like any other structure.
    """
    if digest is None:
        digest = pattern_fingerprint(A, B)
    recipe = _recipes.get(digest)
    if recipe is None:
        recipe = build_sort_recipe(A, B)
        _recipes.put(digest, recipe)
    return recipe


def compute_product(A: CSRMatrix, B: CSRMatrix) -> ProductResult:
    """The memoized expansion + contraction of ``A @ B``."""
    key = _key(A, B)
    hit = _cache.get(key)
    if hit is not None and hit.anchors[0] is A.rpt:
        return hit
    recipe = recipe_for(A, B)
    C = CSRMatrix(recipe.rpt, recipe.col, values_from_recipe(recipe, A, B),
                  recipe.shape, check=False)
    result = ProductResult(anchors=(A.rpt, A.col, B.rpt, B.col),
                           row_products=recipe.row_counts.astype(np.int64),
                           C=C)
    _cache.put(key, result)
    return result


def product_for(A: CSRMatrix, B: CSRMatrix,
                precision: Precision) -> tuple[np.ndarray, CSRMatrix]:
    """``(row_products, C)`` with C's values cast to ``precision``."""
    r = compute_product(A, B)
    C = CSRMatrix(r.C.rpt, r.C.col, r.C.val.astype(precision.value_dtype),
                  r.C.shape, check=False)
    return r.row_products, C


@perf.register_cache_clearer
def clear_cache() -> None:
    """Drop all cached products, recipes and pattern fingerprints (tests
    and memory-sensitive callers)."""
    _cache.clear()
    _recipes.clear()
    _fingerprints.clear()
