"""Hash-table tests: exact Alg. 5 semantics and the probe estimator."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hashtable import (HashTable, expected_cas, expected_probes,
                                  simulate_insertions,
                                  simulate_insertions_rows)
from repro.errors import HashTableError
from repro.types import HASH_SCAL

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestAlgorithm5Semantics:
    def test_new_key_inserted(self):
        t = HashTable(16)
        assert t.insert(5) is True
        assert t.count == 1

    def test_duplicate_key_found_not_inserted(self):
        t = HashTable(16)
        t.insert(5)
        assert t.insert(5) is False
        assert t.count == 1

    def test_initial_slot_matches_paper_hash(self):
        t = HashTable(16)
        t.insert(3)
        assert t.keys[(3 * HASH_SCAL) % 16] == 3

    def test_linear_probing_on_collision(self):
        t = HashTable(16)
        # keys 0 and 16 collide: (k * 107) % 16 identical
        t.insert(0)
        t.insert(16)
        h = (16 * HASH_SCAL) % 16
        assert t.keys[h] == 0            # first owner keeps the slot
        assert t.keys[(h + 1) % 16] == 16

    def test_wraparound_probing(self):
        t = HashTable(4)
        for k in (0, 4, 8, 12):          # all hash to slot 0
            t.insert(k)
        assert t.count == 4
        assert set(t.keys.tolist()) == {0, 4, 8, 12}

    def test_full_table_overflow_raises(self):
        t = HashTable(4)
        for k in (0, 4, 8, 12):
            t.insert(k)
        with pytest.raises(HashTableError, match="overflow"):
            t.insert(1)

    def test_full_table_lookup_of_present_key_ok(self):
        t = HashTable(4)
        for k in (0, 4, 8, 12):
            t.insert(k)
        assert t.insert(8) is False      # present: no overflow

    def test_negative_key_rejected(self):
        with pytest.raises(HashTableError, match="negative"):
            HashTable(8).insert(-1)

    def test_non_pow2_size_rejected(self):
        with pytest.raises(HashTableError, match="power of two"):
            HashTable(12)

    def test_value_accumulation(self):
        t = HashTable(16, with_values=True)
        t.insert(3, 1.5)
        t.insert(3, 2.5)
        assert t.lookup(3) == 4.0

    def test_lookup_absent(self):
        t = HashTable(16, with_values=True)
        t.insert(1, 1.0)
        assert t.lookup(2) is None

    def test_extract_sorted(self):
        t = HashTable(16, with_values=True)
        for k, v in [(9, 1.0), (2, 2.0), (40, 3.0)]:
            t.insert(k, v)
        keys, vals = t.extract_sorted()
        np.testing.assert_array_equal(keys, [2, 9, 40])
        np.testing.assert_array_equal(vals, [2.0, 1.0, 3.0])

    def test_load_factor(self):
        t = HashTable(8)
        t.insert(1)
        t.insert(2)
        assert t.load_factor == 0.25


class TestOrderInvariance:
    """Classic linear-probing property: the occupied-slot set and the total
    displacement do not depend on insertion order."""

    @pytest.mark.parametrize("seed", range(5))
    def test_occupied_set_order_independent(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.choice(1000, size=40, replace=False)
        t1 = HashTable(64)
        t2 = HashTable(64)
        for k in keys:
            t1.insert(int(k))
        for k in rng.permutation(keys):
            t2.insert(int(k))
        np.testing.assert_array_equal(np.sort(t1.occupied_slots()),
                                      np.sort(t2.occupied_slots()))

    @pytest.mark.parametrize("seed", range(5))
    def test_total_probes_order_independent(self, seed):
        rng = np.random.default_rng(100 + seed)
        keys = rng.choice(500, size=30, replace=False)
        _, p1 = simulate_insertions(keys, 64)
        _, p2 = simulate_insertions(rng.permutation(keys), 64)
        assert p1 == p2

    def test_distinct_count_with_duplicates(self, rng):
        keys = rng.integers(0, 50, 200)
        distinct, _ = simulate_insertions(keys, 128)
        assert distinct == np.unique(keys).shape[0]


class TestProbeEstimator:
    @pytest.mark.parametrize("load", [0.1, 0.3, 0.5, 0.7])
    def test_estimator_tracks_exact_simulation(self, load):
        """Knuth's formula within 25% of the measured probe count."""
        size = 1024
        n = int(size * load)
        rng = np.random.default_rng(42)
        measured = []
        for _ in range(5):
            keys = rng.choice(100000, size=n, replace=False)
            _, probes = simulate_insertions(keys, size)
            measured.append(probes)
        est = float(expected_probes(n, n, size))
        avg = np.mean(measured)
        assert est == pytest.approx(avg, rel=0.25)

    def test_duplicates_scale_linearly(self):
        one = float(expected_probes(100, 50, 256))
        two = float(expected_probes(200, 50, 256))
        assert two == pytest.approx(2 * one)

    def test_load_clamped_at_full(self):
        assert np.isfinite(expected_probes(100, 300, 256))

    def test_vectorized(self):
        out = expected_probes(np.array([10.0, 20.0]), np.array([5.0, 10.0]),
                              np.array([64.0, 64.0]))
        assert out.shape == (2,)
        assert out[1] > out[0]

    def test_expected_cas_bounds(self):
        # at least one CAS per distinct key, at most 2x
        for n in (10, 100, 200):
            c = float(expected_cas(n, 256))
            assert n <= c <= 2 * n


class TestHashProbeProperty:
    """Batched Alg. 5 probe counts == per-row simulation."""

    @SETTINGS
    @given(rows=st.lists(st.lists(st.integers(min_value=0, max_value=63),
                                  min_size=0, max_size=20),
                         min_size=1, max_size=12),
           size_exp=st.integers(min_value=2, max_value=6))
    def test_rows_match_per_row(self, rows, size_exp):
        size = 1 << size_exp
        keys = np.asarray([k for row in rows for k in row], dtype=np.int64)
        row_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=row_ptr[1:])

        try:
            expect = [simulate_insertions(np.asarray(row, dtype=np.int64),
                                          size) for row in rows]
        except HashTableError:
            with pytest.raises(HashTableError):
                simulate_insertions_rows(keys, row_ptr, size)
            return

        distinct, probes = simulate_insertions_rows(keys, row_ptr, size)
        assert np.array_equal(distinct, np.asarray([e[0] for e in expect]))
        assert np.array_equal(probes, np.asarray([e[1] for e in expect]))

    @SETTINGS
    @given(row=st.lists(st.integers(min_value=0, max_value=31),
                        min_size=1, max_size=16),
           size_exp=st.integers(min_value=2, max_value=5))
    def test_single_row_matches_table(self, row, size_exp):
        """One-row batch == an actual HashTable insertion sequence."""
        size = 1 << size_exp
        keys = np.asarray(row, dtype=np.int64)
        row_ptr = np.asarray([0, len(row)], dtype=np.int64)
        table = HashTable(size)
        try:
            for k in row:
                table.insert(int(k))
        except HashTableError:
            with pytest.raises(HashTableError):
                simulate_insertions_rows(keys, row_ptr, size)
            return
        distinct, probes = simulate_insertions_rows(keys, row_ptr, size)
        assert int(distinct[0]) == table.count
        assert int(probes[0]) == table.probes
