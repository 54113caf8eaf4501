"""Per-group kernel parameters -- the generator behind the paper's Table I.

Section III-D describes the construction; this module implements it as an
algorithm over a :class:`~repro.gpu.device.DeviceSpec` so the same code
reproduces Table I for the P100 and produces sensible tables for other
devices:

1. The largest shared-memory hash table: the numeric-phase table stores a
   4-byte key plus an 8-byte double value per entry, so
   ``t_max = pow2_floor(max_shared_per_block / 12) = 4096`` on the P100.
   The group owning it (Group 1) covers output rows with
   ``t_max/2 < nnz <= t_max`` and uses the maximum block size (1024).
   Symbolic-phase tables have no value column, so their sizes and the
   grouping thresholds on intermediate products are exactly doubled.
2. Each subsequent group halves the table and the block size, doubling the
   nominal concurrent blocks per SM ("#TB"), until #TB reaches the
   hardware cap (32); that last TB/ROW group absorbs every remaining row
   above the PWARP boundary.
3. Rows with ``nnz <= warp_size/2`` (16) -- equivalently at most
   ``warp_size`` (32) intermediate products -- go to the PWARP/ROW group:
   4 threads per row, 512-thread blocks.
4. Group 0 takes rows *larger* than ``t_max``: its hash tables live in
   global memory (two-phase shared-try/global-retry in the symbolic
   phase).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AlgorithmError, DeviceConfigError
from repro.gpu.device import DeviceSpec
from repro.types import TunableParams, next_pow2

#: Number of threads cooperating on one row in PWARP/ROW.  Section III-B:
#: a preliminary sweep over 1/2/4/8/16 threads found 4 stably best; the
#: width sweep benchmark (E10) reproduces that experiment.
PWARP_WIDTH = 4

#: Thread-block size of the PWARP/ROW kernels (Table I, Group 6).
PWARP_BLOCK_THREADS = 512

#: Symbolic-phase per-row table entries in the PWARP group (>= the 32-product
#: group boundary).
PWARP_TABLE_SYMBOLIC = 32

#: Numeric-phase per-row table entries in the PWARP group (>= the 16-nnz
#: group boundary).
PWARP_TABLE_NUMERIC = 16

#: Valid values of a symbolic-phase choice: the proposal's ``symbolic``
#: switch, :attr:`ParamOverrides.symbolic` and ``SpGEMMOptions.symbolic``.
SYMBOLIC_MODES = ("exact", "estimate")

ASSIGN_TB = "TB/ROW"
ASSIGN_PWARP = "PWARP/ROW"
ASSIGN_GLOBAL = "TB/ROW(global)"


def pow2_floor(n: int) -> int:
    """Largest power of two <= ``n`` (n >= 1)."""
    if n < 1:
        raise ValueError(f"pow2_floor of {n}")
    return 1 << (int(n).bit_length() - 1)


@dataclass(frozen=True)
class ParamOverrides(TunableParams):
    """Tuned deviations from the paper's Table I construction.

    Every field defaults to ``None`` = "keep the Section III-D value";
    the autotuner (:mod:`repro.tune`) searches over these and
    :func:`build_group_table` applies them.  Overrides only move grouping
    boundaries and kernel shapes -- the functional result is unchanged,
    which is what lets tuned configs stay bit-identical to the reference
    oracle.

    t_max:
        Cap on the largest numeric-phase shared table (entries; rounded
        down to a power of two).  Smaller caps route more large rows to
        Group 0's global tables but shrink every shared table, raising
        occupancy.
    pwarp_width:
        Threads cooperating on one row in the PWARP/ROW group.
    pwarp_nnz_max:
        The PWARP/TB boundary: rows with at most this many output nnz
        (twice as many intermediate products) take the PWARP path.
    max_block_threads:
        Starting block size of the TB/ROW halving ladder (Table I's
        Group 1); rounded down to a power of two, floored at the warp.
    symbolic:
        ``'estimate'`` replaces the exact count phase with the sampled
        estimator of :mod:`repro.estimate` (``'exact'`` forces the
        paper's count kernels); any other string raises
        :class:`~repro.errors.AlgorithmError`.  A string, not a table
        input: :func:`build_group_table` ignores it, but it participates
        in :meth:`switches` so plan-cache keys partition estimated vs
        exact plans and the autotuner can search it as an axis.
    """

    t_max: int | None = None
    pwarp_width: int | None = None
    pwarp_nnz_max: int | None = None
    max_block_threads: int | None = None
    symbolic: str | None = None

    def __post_init__(self) -> None:
        if self.symbolic is not None and self.symbolic not in SYMBOLIC_MODES:
            raise AlgorithmError(
                f"unknown symbolic mode {self.symbolic!r} "
                f"in overrides (expected one of {list(SYMBOLIC_MODES)})")

    @classmethod
    def from_dict(cls, d: dict) -> "ParamOverrides":
        """Inverse of :meth:`to_dict`; unknown keys raise ``TypeError``,
        a value of the wrong kind ``ValueError`` or ``TypeError``, an
        unknown symbolic mode :class:`~repro.errors.AlgorithmError`."""
        return cls(**{k: (str(v) if k == "symbolic" else int(v))
                      for k, v in d.items()})


@dataclass(frozen=True)
class GroupParams:
    """Kernel configuration of one row group (one line of Table I).

    Thresholds are inclusive bounds; ``None`` upper bound means unbounded
    (Group 0).  ``table_*`` are entry counts (powers of two); Group 0's
    shared sizes are the *first-phase try* sizes, its real tables being
    sized per row in global memory.
    """

    gid: int
    assignment: str
    min_products: int
    max_products: int | None
    min_nnz: int
    max_nnz: int | None
    block_threads: int
    nominal_blocks_per_sm: int       #: the "#TB" column of Table I
    table_symbolic: int              #: symbolic-phase table entries
    table_numeric: int               #: numeric-phase table entries
    pwarp_width: int = 0             #: threads per row (PWARP groups only)

    @property
    def uses_global_table(self) -> bool:
        """True for Group 0 (tables in device memory)."""
        return self.assignment == ASSIGN_GLOBAL

    @property
    def rows_per_block(self) -> int:
        """Rows processed by one thread block (1 for TB/ROW)."""
        if self.assignment == ASSIGN_PWARP:
            return self.block_threads // self.pwarp_width
        return 1

    def table_row(self) -> str:
        """Format as one row of Table I."""
        prod = (f"{self.min_products}-" if self.max_products is None
                else f"{self.min_products}-{self.max_products}")
        nnz = (f"{self.min_nnz}-" if self.max_nnz is None
               else f"{self.min_nnz}-{self.max_nnz}")
        assign = "TB/ROW" if self.uses_global_table else self.assignment
        return (f"{self.gid:>8} {prod:>16} {nnz:>14} {assign:>10} "
                f"{self.block_threads:>11} {self.nominal_blocks_per_sm:>5}")


@dataclass(frozen=True)
class GroupTable:
    """The full group table for a device (Table I for the P100)."""

    device_name: str
    groups: tuple[GroupParams, ...]   #: ordered by gid (0 = largest rows)

    def __iter__(self):
        return iter(self.groups)

    def __len__(self) -> int:
        return len(self.groups)

    def __getitem__(self, gid: int) -> GroupParams:
        return self.groups[gid]

    @property
    def pwarp_group(self) -> GroupParams:
        """The PWARP/ROW group (largest gid)."""
        return self.groups[-1]

    @property
    def max_shared_table_symbolic(self) -> int:
        """Largest shared symbolic table (Group 1's) -- the Group 0 try size."""
        return self.groups[1].table_symbolic

    @property
    def max_shared_table_numeric(self) -> int:
        """Largest shared numeric table (Group 1's)."""
        return self.groups[1].table_numeric

    def render(self) -> str:
        """Human-readable Table I."""
        head = (f"{'Group ID':>8} {'(3) products':>16} {'(6) nnz':>14} "
                f"{'Assignment':>10} {'Block size':>11} {'#TB':>5}")
        return "\n".join([head] + [g.table_row() for g in self.groups])


def build_group_table(device: DeviceSpec,
                      uniform_tb: bool = False,
                      overrides: ParamOverrides | None = None) -> GroupTable:
    """Derive the group table for ``device`` per Section III-D.

    Table sizing uses the double-precision entry layout (4-byte key +
    8-byte value = 12 bytes), as the paper does when deriving Table I; the
    same group structure is used for single precision (where the numeric
    tables simply occupy less shared memory, raising occupancy).

    ``uniform_tb=True`` disables the halving scheme: every TB/ROW group
    keeps the maximum block size and table size.  This is the ablation of
    the paper's central Table I design choice -- "This enables to
    increase the number of concurrently executing thread blocks on each
    SM" (Section III-D); with uniform configs, small rows run in
    oversized blocks with oversized tables and occupancy collapses.

    ``overrides`` (a :class:`ParamOverrides`, typically from the
    autotuner) replaces individual Table I construction inputs; its
    ``pwarp_width`` sets the threads-per-row of the PWARP group, which
    is also how the Section III-B width sweep (1/2/4/8/16) runs.
    Invalid combinations raise :class:`~repro.errors.DeviceConfigError`,
    so the tuner can discard infeasible candidates.
    """
    ov = overrides or ParamOverrides()
    pwarp_width = PWARP_WIDTH if ov.pwarp_width is None else ov.pwarp_width
    if pwarp_width < 1 or pwarp_width > device.warp_size:
        raise DeviceConfigError(f"pwarp width {pwarp_width} out of range")
    entry_bytes = 12  # key (4) + double value (8)
    t_max = pow2_floor(device.max_shared_per_block // entry_bytes)
    if ov.t_max is not None:
        t_max = min(t_max, pow2_floor(max(1, ov.t_max)))
    if t_max < 2 * device.warp_size:
        raise DeviceConfigError(
            f"{device.name}: shared memory too small for hash SpGEMM"
            + (f" (t_max override {ov.t_max})" if ov.t_max else ""))

    pwarp_nnz_max = device.warp_size // 2        # 16 on the P100
    if ov.pwarp_nnz_max is not None:
        pwarp_nnz_max = int(ov.pwarp_nnz_max)
    if not 1 <= pwarp_nnz_max <= t_max // 2:
        raise DeviceConfigError(
            f"pwarp boundary {pwarp_nnz_max} out of range [1, {t_max // 2}]")

    max_threads = device.max_threads_per_block
    if ov.max_block_threads is not None:
        max_threads = pow2_floor(
            min(max_threads, max(device.warp_size, ov.max_block_threads)))

    tb_groups: list[GroupParams] = []
    table = t_max
    threads = max_threads
    gid = 1
    while True:
        nominal = min(device.max_threads_per_sm // threads,
                      device.max_blocks_per_sm)
        last = nominal >= device.max_blocks_per_sm or table // 2 <= pwarp_nnz_max
        min_nnz = pwarp_nnz_max + 1 if last else table // 2 + 1
        tb_groups.append(GroupParams(
            gid=gid,
            assignment=ASSIGN_TB,
            min_products=2 * min_nnz - 1 if last else table + 1,
            max_products=2 * table,
            min_nnz=min_nnz,
            max_nnz=table,
            block_threads=threads,
            nominal_blocks_per_sm=nominal,
            table_symbolic=2 * table,
            table_numeric=table,
        ))
        if last:
            break
        table //= 2
        threads = max(device.warp_size, threads // 2)
        gid += 1

    if uniform_tb:
        tb_groups = [GroupParams(
            gid=g.gid, assignment=g.assignment,
            min_products=g.min_products, max_products=g.max_products,
            min_nnz=g.min_nnz, max_nnz=g.max_nnz,
            block_threads=max_threads,
            nominal_blocks_per_sm=min(
                device.max_threads_per_sm // max_threads,
                device.max_blocks_per_sm),
            table_symbolic=2 * t_max, table_numeric=t_max)
            for g in tb_groups]

    group0 = GroupParams(
        gid=0,
        assignment=ASSIGN_GLOBAL,
        min_products=2 * t_max + 1,
        max_products=None,
        min_nnz=t_max + 1,
        max_nnz=None,
        block_threads=max_threads,
        nominal_blocks_per_sm=min(
            device.max_threads_per_sm // max_threads,
            device.max_blocks_per_sm),
        table_symbolic=2 * t_max,   # first-phase shared try size
        table_numeric=t_max,
    )

    # at narrow widths a full 512-thread block would hold more per-row
    # tables than shared memory allows; cap rows-per-block at 256
    pwarp_threads = min(PWARP_BLOCK_THREADS, 256 * pwarp_width)
    # a tuned boundary above the default needs proportionally larger
    # per-row tables to keep the load factor of Table I; the default
    # boundary keeps the paper's fixed table even on wide-warp devices
    pwarp_numeric = (PWARP_TABLE_NUMERIC if ov.pwarp_nnz_max is None
                     else max(PWARP_TABLE_NUMERIC, next_pow2(pwarp_nnz_max)))
    pwarp = GroupParams(
        gid=tb_groups[-1].gid + 1,
        assignment=ASSIGN_PWARP,
        min_products=0,
        max_products=2 * pwarp_nnz_max,
        min_nnz=0,
        max_nnz=pwarp_nnz_max,
        block_threads=pwarp_threads,
        nominal_blocks_per_sm=min(
            device.max_threads_per_sm // pwarp_threads,
            device.max_blocks_per_sm),
        table_symbolic=max(PWARP_TABLE_SYMBOLIC, 2 * pwarp_numeric),
        table_numeric=pwarp_numeric,
        pwarp_width=pwarp_width,
    )

    # fix the last TB group's product lower bound to sit just above PWARP's
    groups = (group0, *tb_groups, pwarp)
    fixed = []
    for g in groups:
        if g.assignment == ASSIGN_TB and g.max_nnz == tb_groups[-1].max_nnz:
            g = GroupParams(**{**g.__dict__,
                               "min_products": 2 * pwarp_nnz_max + 1})
        fixed.append(g)
    return GroupTable(device_name=device.name, groups=tuple(fixed))
