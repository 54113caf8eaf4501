"""Linear-probing hash table -- Algorithm 5 of the paper.

Three layers, all agreeing with each other (cross-validated in the tests):

* :class:`HashTable` -- an exact, stateful implementation of Alg. 5 with
  the paper's hash function ``(key * HASH_SCAL) % t_size``, linear probing
  and per-operation probe counting.  The atomicCAS of the CUDA kernel
  becomes a plain compare-and-set (single-threaded semantics; the *count*
  of CAS attempts is preserved for costing).
* :func:`simulate_insertions` -- batch form over a key array, returning the
  distinct-key count and the exact total probe count.
* :func:`expected_probes` -- Knuth's linear-probing estimate used by the
  cost model at scale, validated against the exact simulation.

A classical property used by the tests: for linear probing with a fixed
hash function, the *set of occupied slots* after inserting a set of keys is
independent of insertion order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import HashTableError
from repro.types import HASH_EMPTY, HASH_SCAL


class HashTable:
    """Exact Alg. 5 table: keys are non-negative ints, optional value slot.

    Parameters
    ----------
    size:
        Table size; must be a power of two (the paper restricts sizes to
        powers of two so the modulus is a bit mask).
    with_values:
        Allocate the value column used by the numeric phase.
    scal:
        Hash-function multiplier (the paper's ``HASH_SCAL`` = 107 unless
        a tuned :class:`~repro.core.params.ParamOverrides` replaces it).
    """

    def __init__(self, size: int, *, with_values: bool = False,
                 scal: int = HASH_SCAL) -> None:
        if size < 1 or size & (size - 1):
            raise HashTableError(f"table size {size} is not a power of two")
        self.size = int(size)
        self.scal = int(scal)
        self.keys = np.full(self.size, HASH_EMPTY, dtype=np.int64)
        self.values = np.zeros(self.size, dtype=np.float64) if with_values else None
        self.count = 0            #: distinct keys stored
        self.probes = 0           #: total probe loop iterations (cost metric)
        self.cas_attempts = 0     #: atomicCAS executions

    def insert(self, key: int, value: float = 0.0) -> bool:
        """Insert ``key`` (accumulating ``value`` if present); True if new.

        Follows Alg. 5 literally: hash, then linear probing; occupied slot
        with a different key advances ``(hash + 1) % t_size``.  Raises
        :class:`HashTableError` if the table is full and the key absent.
        """
        if key < 0:
            raise HashTableError(f"negative key {key}")
        h = (key * self.scal) % self.size
        for _ in range(self.size):
            self.probes += 1
            slot = self.keys[h]
            if slot == key:
                if self.values is not None:
                    self.values[h] += value
                return False
            if slot == HASH_EMPTY:
                self.cas_attempts += 1
                self.keys[h] = key          # single-threaded CAS always wins
                self.count += 1
                if self.values is not None:
                    self.values[h] += value
                return True
            h = (h + 1) % self.size
        raise HashTableError(
            f"table of size {self.size} overflowed inserting key {key}")

    def lookup(self, key: int) -> float | None:
        """Value stored for ``key`` (None when absent / no value column)."""
        h = (key * self.scal) % self.size
        for _ in range(self.size):
            slot = self.keys[h]
            if slot == key:
                return float(self.values[h]) if self.values is not None else 0.0
            if slot == HASH_EMPTY:
                return None
            h = (h + 1) % self.size
        return None

    def occupied_slots(self) -> np.ndarray:
        """Indices of occupied slots, ascending."""
        return np.flatnonzero(self.keys != HASH_EMPTY)

    def extract_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """The gather + sort of the numeric phase: ``(keys, values)`` by key.

        Mirrors Section III-C: occupied entries are gathered and ordered by
        ascending column index.
        """
        occ = self.occupied_slots()
        keys = self.keys[occ]
        order = np.argsort(keys, kind="stable")
        vals = (self.values[occ][order] if self.values is not None
                else np.zeros(occ.shape[0]))
        return keys[order], vals


def simulate_insertions(keys: np.ndarray, size: int) -> tuple[int, int]:
    """Insert all ``keys`` into a fresh table; return ``(distinct, probes)``.

    Exact but Python-looped: used by tests and by small-instance cost
    audits, not in the vectorized hot path.
    """
    t = HashTable(size)
    for k in keys:
        t.insert(int(k))
    return t.count, t.probes


def simulate_insertions_rows(keys: np.ndarray, row_ptr: np.ndarray,
                             size: int, *,
                             scal: int = HASH_SCAL
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Exact Alg. 5 insertion of many rows' keys, one fresh table per row.

    ``keys[row_ptr[i]:row_ptr[i+1]]`` are row ``i``'s keys.  Returns the
    per-row ``(distinct, probes)`` arrays, identical to running
    :func:`simulate_insertions` on each row separately -- the tests
    property-check that.  The vectorization is *across* rows: all rows
    insert their ``t``-th key in lockstep, and within one insertion the
    unresolved rows advance their probe cursors together.  Within a row
    the insertions stay strictly sequential (probing depends on every
    earlier insertion of the same row, so per-row order is load-bearing).

    Raises :class:`HashTableError` exactly when the per-row simulation
    would: some insertion probing all ``size`` slots without placing its
    key (the hash-table-full fault boundary).
    """
    if size < 1 or size & (size - 1):
        raise HashTableError(f"table size {size} is not a power of two")
    keys = np.asarray(keys, dtype=np.int64)
    row_ptr = np.asarray(row_ptr, dtype=np.int64)
    if keys.size and keys.min() < 0:
        raise HashTableError(f"negative key {int(keys.min())}")
    n_rows = row_ptr.shape[0] - 1
    lens = np.diff(row_ptr)
    distinct = np.zeros(n_rows, dtype=np.int64)
    probes = np.zeros(n_rows, dtype=np.int64)
    if n_rows == 0 or keys.size == 0:
        return distinct, probes
    table = np.full((n_rows, size), HASH_EMPTY, dtype=np.int64)
    for t in range(int(lens.max())):
        rows = np.flatnonzero(lens > t)
        k = keys[row_ptr[rows] + t]
        h = (k * scal) % size
        pending = np.arange(rows.shape[0])
        for _ in range(size):
            slot = table[rows[pending], h[pending]]
            probes[rows[pending]] += 1
            hit = slot == k[pending]
            empty = slot == HASH_EMPTY
            place = pending[empty]
            if place.size:
                table[rows[place], h[place]] = k[place]
                distinct[rows[place]] += 1
            pending = pending[~(hit | empty)]
            if pending.size == 0:
                break
            h[pending] = (h[pending] + 1) % size
        if pending.size:
            raise HashTableError(
                f"table of size {size} overflowed inserting key "
                f"{int(k[pending[0]])}")
    return distinct, probes


def expected_probes(n_total: float | np.ndarray, n_distinct: float | np.ndarray,
                    size: float | np.ndarray) -> np.ndarray:
    """Expected total probe count for hashing ``n_total`` keys with
    ``n_distinct`` distinct values into a table of ``size`` slots.

    Knuth's classic linear-probing result: with load factor
    ``a = n_distinct / size``, the average number of probes of a successful
    search -- which also equals the average cost of the insertion that
    placed each key -- is ``(1 + 1/(1 - a)) / 2``.  Duplicate keys perform
    a successful search at the same expected cost.  The load factor is the
    *final* one, which overestimates early cheap inserts slightly; the
    cross-validation test bounds the error.  ``a`` is clamped at 0.9375
    (15/16, the worst legal numeric-phase fill) to keep the estimate
    finite at full tables.
    """
    n_total = np.asarray(n_total, dtype=np.float64)
    n_distinct = np.asarray(n_distinct, dtype=np.float64)
    size = np.asarray(size, dtype=np.float64)
    alpha = np.minimum(np.divide(n_distinct, np.maximum(size, 1.0)), 0.9375)
    per_key = 0.5 * (1.0 + 1.0 / (1.0 - alpha))
    return n_total * per_key


def expected_cas(n_distinct: float | np.ndarray,
                 size: float | np.ndarray) -> np.ndarray:
    """Expected atomicCAS attempts: one winning CAS per distinct key plus a
    contention allowance growing with the load factor (concurrent warps
    racing for the same empty slot retry; see Alg. 5's ``old != -1`` path).
    """
    n_distinct = np.asarray(n_distinct, dtype=np.float64)
    size = np.asarray(size, dtype=np.float64)
    alpha = np.minimum(np.divide(n_distinct, np.maximum(size, 1.0)), 0.9375)
    return n_distinct * (1.0 + alpha)
