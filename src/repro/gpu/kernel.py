"""Kernel launch descriptors and per-block work accounting.

A *kernel* in the simulator is a grid of thread blocks, each described by a
:class:`WorkEstimate` (or, vectorized, one row of a :class:`BlockWorks`)
counting the operations the block performs:

* ``flops`` -- arithmetic operations (multiply-adds counted as 2);
* ``shared_ops`` -- shared-memory word accesses (loads + stores);
* ``shared_atomics`` -- shared-memory atomicCAS attempts (incl. retries);
* ``gmem_coalesced_bytes`` -- global traffic from coalesced streaming
  (row pointers read in order, CSR rows written out, ...);
* ``gmem_random`` -- *transaction count* of scattered global accesses
  (B-row fetches through ``col_A``, global hash probes); each costs one
  ``transaction_bytes``-sized transaction plus latency;
* ``gmem_atomics`` -- global atomic operations;
* ``serial_cycles`` -- critical-path cycles that no amount of occupancy can
  hide (e.g. the serial probe/fetch chain of a single PWARP handling one
  row); charged verbatim, neither stretched by co-residency nor divided by
  warp-level parallelism.

Algorithms build these counts from the same per-row quantities the real
CUDA kernels touch; :mod:`repro.gpu.cost` converts them into cycles.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

import numpy as np

from repro.errors import DeviceConfigError

_WORK_FIELDS = ("flops", "shared_ops", "shared_atomics",
                "gmem_coalesced_bytes", "gmem_random", "gmem_atomics",
                "serial_cycles")


@dataclass
class WorkEstimate:
    """Operation counts for a single thread block (scalar form)."""

    flops: float = 0.0
    shared_ops: float = 0.0
    shared_atomics: float = 0.0
    gmem_coalesced_bytes: float = 0.0
    gmem_random: float = 0.0
    gmem_atomics: float = 0.0
    serial_cycles: float = 0.0

    def __add__(self, other: "WorkEstimate") -> "WorkEstimate":
        return WorkEstimate(**{f.name: getattr(self, f.name) + getattr(other, f.name)
                               for f in fields(self)})

    def scaled(self, k: float) -> "WorkEstimate":
        """All counts multiplied by ``k``."""
        return WorkEstimate(**{f.name: getattr(self, f.name) * k
                               for f in fields(self)})


class BlockWorks:
    """Vectorized work estimates: one entry per thread block of a kernel.

    Columns are float64 arrays of equal length ``n_blocks``.  Construct with
    keyword arrays (missing columns default to zeros) or from a list of
    :class:`WorkEstimate`.
    """

    __slots__ = tuple(_WORK_FIELDS) + ("n_blocks",)

    def __init__(self, n_blocks: int | None = None, **columns: np.ndarray) -> None:
        sizes = {np.asarray(v).shape[0] for v in columns.values()}
        if n_blocks is None:
            if not sizes:
                raise ValueError("BlockWorks needs n_blocks or at least one column")
            n_blocks = sizes.pop()
            sizes.add(n_blocks)
        if sizes - {n_blocks}:
            raise ValueError(f"column lengths {sizes} disagree with n_blocks={n_blocks}")
        self.n_blocks = int(n_blocks)
        for name in _WORK_FIELDS:
            col = columns.get(name)
            if col is None:
                arr = np.zeros(self.n_blocks, dtype=np.float64)
            else:
                arr = np.ascontiguousarray(col, dtype=np.float64)
            setattr(self, name, arr)
        unknown = set(columns) - set(_WORK_FIELDS)
        if unknown:
            raise ValueError(f"unknown work columns: {sorted(unknown)}")

    def totals(self) -> WorkEstimate:
        """Sum over all blocks (for aggregate traffic statistics)."""
        return WorkEstimate(**{name: float(getattr(self, name).sum())
                               for name in _WORK_FIELDS})

    def __len__(self) -> int:
        return self.n_blocks


@dataclass
class KernelLaunch:
    """One kernel launch: configuration plus per-block work.

    ``stream`` follows CUDA semantics in the scheduler: launches on the same
    stream serialize in issue order; launches on different streams may
    overlap.  ``phase`` tags the launch for the paper's execution-time
    breakdown ('setup' / 'count' / 'calc').
    """

    name: str
    block_threads: int
    shared_bytes_per_block: int
    works: BlockWorks
    stream: int = 0
    phase: str = "calc"
    tag: str = ""

    def __post_init__(self) -> None:
        if self.block_threads <= 0:
            raise DeviceConfigError(f"kernel {self.name}: non-positive block size")
        if len(self.works) == 0:
            raise DeviceConfigError(f"kernel {self.name}: empty grid")

    @property
    def n_blocks(self) -> int:
        """Grid size in blocks."""
        return len(self.works)

    def work_digest(self) -> bytes:
        """Content digest of the launch configuration and work columns.

        Computed once and cached on the instance: launches are immutable
        by contract (plans reuse them across replays and the scheduler
        never mutates them), so the digest is stable.  The scheduler's
        phase memo folds it into its key.
        """
        d = getattr(self, "_work_digest", None)
        if d is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(f"{self.name}|{self.block_threads}|"
                     f"{self.shared_bytes_per_block}|{self.stream}|"
                     f"{self.phase}|{self.tag}|".encode())
            for col in _WORK_FIELDS:
                h.update(getattr(self.works, col).tobytes())
            d = self._work_digest = h.digest()
        return d
