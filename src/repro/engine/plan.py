"""Pattern-keyed SpGEMM plans: what a plan-cache replay charges.

The paper's two-phase design pays the symbolic phase -- product counting,
row grouping, the per-group hash counting kernels and the row-pointer
scan -- on *every* multiply, even though the phase depends only on the
operands' sparsity *patterns*.  Application workloads (AMG Galerkin
products on a fixed mesh, Markov-clustering iterations after the pattern
stabilizes, repeated graph powers) multiply matrices whose patterns
repeat across calls with fresh values.

:class:`SpGEMMPlan` is the one plan record of both cacheable leaves (the
proposal and ``tile``).  It holds what a replay charges: the output-CSR
structure, the cold run's captured calc kernels, the calc working
buffer, the grouping and table records a replay re-emits (built on the
first observed replay), and the plan's device-resident footprint.
:meth:`SpGEMMPlan.replay` is the one replay body.  :class:`PlanKey` is
the cache key: a BLAKE2b digest of the four pattern arrays plus the
algorithm identity (name and ablation switches), device and precision,
all of which change the captured kernels.  The digest comes from
:func:`~repro.sparse.product.pattern_fingerprint`, computed once per
operand structure: a warm iterate (fresh values on a seen structure)
builds its key without hashing anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import PlanMismatchError
from repro.sparse.csr import CSRMatrix
from repro.sparse.product import (pattern_digest, pattern_fingerprint,
                                  recipe_values)

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.gpu.device import DeviceSpec
    from repro.gpu.kernel import KernelLaunch
    from repro.types import Precision

__all__ = ["pattern_digest", "PlanKey", "PlanCapture", "SpGEMMPlan",
           "make_key", "replay_values"]


@dataclass(frozen=True)
class PlanKey:
    """Hashable identity of one cached plan.

    ``switches`` is the algorithm's configuration tuple (the proposal's
    ablation flags): two engines with different switches must not share
    plans, because the captured grouping and kernels differ.
    """

    digest: str          #: :func:`pattern_digest` of the operand patterns
    algorithm: str       #: registry name of the planning algorithm
    switches: tuple      #: algorithm configuration, ``(name, value)`` pairs
    device: str          #: device model name
    precision: str       #: 'single' | 'double'

    def label(self) -> str:
        """Short human-readable form for events and stats tables."""
        return f"{self.algorithm}/{self.precision}/{self.digest[:12]}"


def make_key(A: CSRMatrix, B: CSRMatrix, algorithm, device: "DeviceSpec",
             precision: Precision) -> PlanKey:
    """Build the cache key for one multiply through ``algorithm``."""
    return PlanKey(digest=pattern_fingerprint(A, B), algorithm=algorithm.name,
                   switches=getattr(algorithm, "plan_switches", tuple)(),
                   device=device.name, precision=precision.value)


class PlanCapture:
    """Mutable sink handed to a cold run to collect its symbolic outcome.

    The leaf run fills :attr:`plan` at the end of a successful multiply
    (:meth:`record`); ``None`` afterwards means the run aborted before
    the symbolic phase completed (nothing cacheable).
    """

    def __init__(self, key: PlanKey) -> None:
        self.key = key
        self.plan: SpGEMMPlan | None = None

    def record(self, ctx, prod, **replay) -> None:
        """Capture a finished cold run: ``prod`` is its product, ``ctx``
        its context, ``replay`` what the leaf's cost plan returned."""
        C = prod.C
        self.plan = SpGEMMPlan(
            key=self.key, shape=C.shape, n_products=prod.n_products,
            nnz_out=C.nnz, c_rpt=C.rpt, c_col=C.col,
            symbolic_seconds=(ctx.phase_seconds.get("setup", 0.0)
                              + ctx.phase_seconds.get("count", 0.0)),
            **replay)


@dataclass
class SpGEMMPlan:
    """What a replay of one multiply charges, keyed by operand pattern.

    Everything here is a pure function of (pattern, algorithm switches,
    device, precision) -- exactly the fields of :class:`PlanKey` -- so a
    replay on new values skips the setup and count phases entirely and
    re-runs the captured calc kernels (the scheduler never mutates a
    launch).  The leaf's resident artifacts (group-row arrays and counts,
    or tiled operands and the pair list) plus the output-CSR structure
    are what a production cache would keep on the device; their footprint
    (:meth:`device_bytes`) is what the cache budget meters.
    """

    key: PlanKey
    shape: tuple[int, int]           #: output shape (rows of A, cols of B)
    n_products: int                  #: total intermediate products
    nnz_out: int                     #: output nonzeros
    c_rpt: np.ndarray                #: output row pointer
    c_col: np.ndarray                #: output column indices (sorted)
    symbolic_seconds: float          #: setup+count time of the cold run
    calc_kernels: list["KernelLaunch"]  #: the calc-phase launches
    work_name: str | None            #: calc working buffer (None: none)
    work_bytes: int                  #: its size
    #: builds the ``(kind, name, records)`` triples a replay re-emits
    records: Callable[[], list] = field(repr=False)
    aux_bytes: int                   #: leaf artifacts kept beside rpt/col
    _records: list | None = field(default=None, init=False, repr=False)

    @property
    def n_rows(self) -> int:
        """Rows of the output (= rows of A)."""
        return int(self.shape[0])

    def device_bytes(self) -> int:
        """Device-resident footprint of the cached plan: the leaf's
        artifacts and the output-CSR structure (``rpt_C`` + ``col_C``);
        the value array is *not* part of the plan -- it is recomputed
        per replay."""
        return (self.aux_bytes
                + 4 * (self.n_rows + 1)          # rpt_C
                + 4 * int(self.nnz_out))         # col_C

    def validate(self, A: CSRMatrix, B: CSRMatrix) -> None:
        """Cheap structural check that the plan still fits the operands."""
        if (A.n_rows, B.n_cols) != self.shape:
            raise PlanMismatchError(
                f"plan {self.key.label()} shaped {self.shape} cannot serve "
                f"operands {A.shape} x {B.shape}")

    def replay(self, ctx, A: CSRMatrix, B: CSRMatrix, *,
               use_streams: bool) -> CSRMatrix:
        """The one replay body, on a ``numeric_only`` context whose
        inputs are already resident: the plan joins them, the values are
        recomputed on the cached structure, the re-emitted records go
        out, and only the value array, the working buffer and the calc
        kernels are charged."""
        ctx.alloc_resident("plan_cache", self.device_bytes())
        # fresh values on the cached structure (raises PlanMismatchError
        # if the pattern behind the digest changed under us)
        C = replay_values(self, A, B, ctx.precision)
        ctx.note_stats(n_products=self.n_products, nnz_out=self.nnz_out)
        if ctx.observed:
            if self._records is None:
                self._records = self.records()
            for kind, name, records in self._records:
                ctx.emit_each(kind, name, records)
        # the output malloc is values-only: rpt/col live in the plan
        ctx.alloc("C_values",
                  int(self.nnz_out) * ctx.precision.value_dtype.itemsize,
                  phase="malloc")
        work = (None if self.work_name is None else
                ctx.alloc(self.work_name, self.work_bytes, phase="calc"))
        ctx.run("calc", self.calc_kernels, use_streams=use_streams)
        if work is not None:
            ctx.free(work)
        return C


def replay_values(plan, A: CSRMatrix, B: CSRMatrix,
                  precision: Precision) -> CSRMatrix:
    """Output of a plan-cache hit: fresh values on the plan's structure.

    The engine built ``plan.key`` from these very operands, so
    ``plan.key.digest`` *is* their :func:`pattern_digest`: the sort
    recipe comes straight from the recipe store under it (indexed and
    laid out for replay on the pattern's second value computation,
    which a plan's first replay is; re-sorted only if the store evicted
    it) and the values are one gather + multiply + the run sums -- no
    pattern rehash, no value hashing, no full-result cache.  A caller replaying a plan outside the engine must keep the
    same precondition: on operands of another pattern the gather would
    follow the plan's recipe.  The output structure must equal the
    cached one, else :class:`~repro.errors.PlanMismatchError`; the check
    is free when the recipe is the one the cold run's structure came
    from (the index build keeps the cold entry's arrays).  Structure arrays are read-only, so the check is safety code:
    it fires only if the ownership contract was broken (a structure
    array written through an alias that predates the matrix, or its
    write flag switched back on).
    """
    recipe, val = recipe_values(A, B, plan.key.digest)
    rpt, col = recipe.rpt, recipe.col
    if not ((rpt is plan.c_rpt and col is plan.c_col)
            or (np.array_equal(rpt, plan.c_rpt)
                and np.array_equal(col, plan.c_col))):
        raise PlanMismatchError(
            f"plan {plan.key.label()}: output structure deviates from "
            f"the cached pattern (a structure array written despite the "
            f"read-only contract?)")
    # ``val`` is fresh, never a cached array, so the cast need not copy
    return CSRMatrix(plan.c_rpt, plan.c_col,
                     val.astype(precision.value_dtype, copy=False),
                     plan.shape, check=False)
