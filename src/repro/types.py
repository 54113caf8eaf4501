"""Shared scalar types and the single/double precision model.

The paper evaluates every experiment in both single and double precision;
precision affects (a) the value dtype of the matrices, (b) the bytes per
hash-table entry (4-byte column key + 4- or 8-byte value), and therefore the
largest hash table that fits a 48 KB shared-memory block, and (c) the
arithmetic throughput of the device (the P100 has a 1:2 DP:SP ratio).

Functional arrays use ``int64`` indices for safety in NumPy; the *device
accounting* (memory usage, bytes moved) always uses the 4-byte indices a
real CUDA implementation would, via :attr:`Precision.index_bytes`.
"""

from __future__ import annotations

import enum
from dataclasses import Field, fields
from typing import Any, ClassVar

import numpy as np

#: dtype used for row pointers and column indices in functional arrays.
INDEX_DTYPE = np.int64

#: Sentinel stored in hash tables for an empty slot (column indices are >= 0).
HASH_EMPTY = -1

#: Multiplicative constant of the paper's hash function (Alg. 5).  The value
#: 107 matches the released nsparse implementation.
HASH_SCAL = 107


class Precision(enum.Enum):
    """Floating-point precision of an SpGEMM computation."""

    SINGLE = "single"
    DOUBLE = "double"

    @property
    def value_dtype(self) -> np.dtype:
        """NumPy dtype of matrix values at this precision."""
        return np.dtype(np.float32) if self is Precision.SINGLE else np.dtype(np.float64)

    @property
    def value_bytes(self) -> int:
        """Bytes per matrix value on the device (4 or 8)."""
        return 4 if self is Precision.SINGLE else 8

    @property
    def index_bytes(self) -> int:
        """Bytes per column index / row pointer on the device (always 4)."""
        return 4

    @property
    def hash_entry_bytes(self) -> int:
        """Bytes per *numeric-phase* hash table entry: key + value.

        Section III-D: "In double precision, the hash tables need 8 bytes
        for each value data, and 4 bytes for each column index", i.e. 12
        bytes per entry; 8 bytes in single precision.
        """
        return self.index_bytes + self.value_bytes

    @classmethod
    def parse(cls, value: "Precision | str") -> "Precision":
        """Coerce ``'single'`` / ``'double'`` / :class:`Precision` to an enum."""
        if isinstance(value, Precision):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"unknown precision {value!r}; expected 'single' or 'double'"
            ) from None


def next_pow2(n: int) -> int:
    """Smallest power of two >= ``n`` (>= 1).

    The paper sets every hash-table size to a power of two so the expensive
    modulus in Alg. 5 becomes a bit mask (Section III-D).
    """
    if n <= 1:
        return 1
    return 1 << (int(n - 1).bit_length())


def next_pow2_array(n: "np.ndarray") -> "np.ndarray":
    """Elementwise :func:`next_pow2` (int64), without a Python loop.

    The classic bit-smear: subtract one, OR in every right-shift down to
    32 bits, add one -- each element becomes the smallest power of two
    covering it.  Values below one clamp to one like the scalar form.
    ``tests/test_types.py`` property-checks the equivalence.
    """
    v = np.maximum(np.asarray(n, dtype=np.int64), 1) - 1
    for shift in (1, 2, 4, 8, 16, 32):
        v |= v >> shift
    return v + 1


class TunableParams:
    """The tunable-parameter protocol shared by every family's param type.

    A subclass is a frozen dataclass whose fields all default to
    ``None`` = "keep the built-in value" (the GPU's
    :class:`~repro.core.params.ParamOverrides`, the tile family's
    :class:`~repro.tile.params.TileParams`, the CPU's
    :class:`~repro.cpu.params.CPUParams`), and which decodes its own
    store entries in ``from_dict``.  The autotuner, the plan-cache keys
    and the persistent tuning store read every family through these
    four methods.
    """

    #: set on every subclass by ``@dataclass``
    __dataclass_fields__: ClassVar[dict[str, Field[Any]]]

    def is_default(self) -> bool:
        """True when no field deviates from the built-in defaults."""
        return not self.switches()

    def switches(self) -> tuple:
        """Canonical ``((field, value), ...)`` of the *set* fields only,
        sorted by name -- folded into plan-cache keys, so a tuned and an
        untuned run of the same pattern never share a plan."""
        return tuple(sorted(
            (f.name, getattr(self, f.name)) for f in fields(self)
            if getattr(self, f.name) is not None))

    def to_dict(self) -> dict:
        """JSON-representable form (set fields only; round-trips through
        ``from_dict``)."""
        return dict(self.switches())

    def describe(self) -> str:
        """Compact human-readable form (``default`` when nothing is set)."""
        if self.is_default():
            return "default"
        return " ".join(f"{k}={v}" for k, v in self.switches())
