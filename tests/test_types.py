"""Tests for repro.types: precision model and helpers."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.types import (HASH_EMPTY, HASH_SCAL, Precision, next_pow2,
                         next_pow2_array)


class TestPrecision:
    def test_parse_strings(self):
        assert Precision.parse("single") is Precision.SINGLE
        assert Precision.parse("double") is Precision.DOUBLE
        assert Precision.parse("SINGLE") is Precision.SINGLE

    def test_parse_passthrough(self):
        assert Precision.parse(Precision.DOUBLE) is Precision.DOUBLE

    def test_parse_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown precision"):
            Precision.parse("half")

    def test_value_dtypes(self):
        assert Precision.SINGLE.value_dtype == np.float32
        assert Precision.DOUBLE.value_dtype == np.float64

    def test_value_bytes(self):
        assert Precision.SINGLE.value_bytes == 4
        assert Precision.DOUBLE.value_bytes == 8

    def test_index_bytes_always_four(self):
        assert Precision.SINGLE.index_bytes == 4
        assert Precision.DOUBLE.index_bytes == 4

    def test_hash_entry_bytes_matches_paper(self):
        # Section III-D: 12 bytes per double-precision numeric entry
        assert Precision.DOUBLE.hash_entry_bytes == 12
        assert Precision.SINGLE.hash_entry_bytes == 8


class TestNextPow2:
    @pytest.mark.parametrize("n,expected", [
        (0, 1), (1, 1), (2, 2), (3, 4), (4, 4), (5, 8),
        (4096, 4096), (4097, 8192), (1 << 20, 1 << 20), ((1 << 20) + 1, 1 << 21),
    ])
    def test_values(self, n, expected):
        assert next_pow2(n) == expected

    def test_result_is_power_of_two_and_bounds(self):
        for n in range(1, 2000, 7):
            p = next_pow2(n)
            assert p >= n
            assert p & (p - 1) == 0
            assert p < 2 * n or n <= 1


class TestNextPow2Property:

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ns=st.lists(st.integers(min_value=0, max_value=2**40),
                       min_size=1, max_size=200))
    def test_array_matches_scalar(self, ns):
        got = next_pow2_array(np.asarray(ns, dtype=np.int64))
        assert got.tolist() == [next_pow2(n) for n in ns]


def test_hash_constants():
    assert HASH_EMPTY == -1          # column indices are >= 0 (Alg. 5)
    assert HASH_SCAL == 107          # nsparse's multiplier
