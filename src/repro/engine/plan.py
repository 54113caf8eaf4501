"""Pattern-keyed SpGEMM plans: the cacheable symbolic outcome of a run.

The paper's two-phase design pays the symbolic phase -- product counting,
row grouping, the per-group hash counting kernels and the row-pointer
scan -- on *every* multiply, even though the phase depends only on the
operands' sparsity *patterns*.  Application workloads (AMG Galerkin
products on a fixed mesh, Markov-clustering iterations after the pattern
stabilizes, repeated graph powers) multiply matrices whose patterns
repeat across calls with fresh values.

:class:`SpGEMMPlan` captures everything the symbolic phase produced --
per-row product and nnz counts, both :class:`~repro.core.grouping.
GroupAssignment`\\ s, the Group-0 table sizes and the output-CSR
structure -- so a later call with the same pattern replays only the
numeric phase.  :class:`PlanKey` is the cache key: a BLAKE2b digest of
the four pattern arrays plus the algorithm identity (name and ablation
switches), device and precision, all of which change the captured
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import perf
from repro.errors import PlanMismatchError
from repro.sparse.csr import CSRMatrix
from repro.sparse.expansion import contract, expand_products, values_from_recipe
from repro.sparse.product import pattern_digest, recipe_for

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.core.grouping import GroupAssignment
    from repro.core.numeric import NumericPlan
    from repro.gpu.device import DeviceSpec
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
    return PlanKey(digest=pattern_digest(A, B), algorithm=algorithm.name,
                   switches=getattr(algorithm, "plan_switches", tuple)(),
                   device=device.name, precision=precision.value)


class PlanCapture:
    """Mutable sink handed to a cold run to collect its symbolic outcome.

    The planning algorithm fills :attr:`plan` at the end of a successful
    multiply; ``None`` afterwards means the run aborted before the
    symbolic phase completed (nothing cacheable).
    """

    def __init__(self, key: PlanKey) -> None:
        self.key = key
        self.plan: SpGEMMPlan | None = None


@dataclass
class SpGEMMPlan:
    """The symbolic outcome of one multiply, keyed by operand pattern.

    Everything here is a pure function of (pattern, algorithm switches,
    device, precision) -- exactly the fields of :class:`PlanKey` -- so a
    replay on new values can skip the setup and count phases entirely.
    The group-row arrays, per-row counts and output-CSR structure are the
    artifacts a production cache would keep device-resident; their
    footprint (:meth:`device_bytes`) is what the cache budget meters.
    """

    key: PlanKey
    shape: tuple[int, int]           #: output shape (rows of A, cols of B)
    n_products: int                  #: total intermediate products
    nnz_out: int                     #: output nonzeros
    row_products: np.ndarray         #: Alg. 2 per-row product counts
    row_nnz: np.ndarray              #: symbolic per-row output nnz
    sym_groups: "GroupAssignment"    #: grouping by products (step (2))
    num_groups: "GroupAssignment"    #: grouping by output nnz (step (6))
    c_rpt: np.ndarray                #: output row pointer
    c_col: np.ndarray                #: output column indices (sorted)
    symbolic_seconds: float          #: setup+count time of the cold run
    sym_global_table_bytes: int = 0  #: Group-0 symbolic retry tables
    #: cached numeric kernel plan (lazily built; pure function of the key)
    _numeric_plan: "NumericPlan | None" = field(default=None, repr=False)

    @property
    def n_rows(self) -> int:
        """Rows of the output (= rows of A)."""
        return int(self.shape[0])

    def device_bytes(self) -> int:
        """Device-resident footprint of the cached plan.

        Both group-row arrays, the per-row nnz vector, and the output-CSR
        structure (``rpt_C`` + ``col_C``); the value array is *not* part
        of the plan -- it is recomputed per replay.
        """
        return (self.sym_groups.device_bytes()
                + self.num_groups.device_bytes()
                + 4 * (self.n_rows + 1)          # row_nnz
                + 4 * (self.n_rows + 1)          # rpt_C
                + 4 * int(self.nnz_out))         # col_C

    def num_group_stats(self) -> list[dict]:
        """Numeric grouping decisions, for re-emission on replay."""
        return self.num_groups.stats(self.row_nnz)

    def validate(self, A: CSRMatrix, B: CSRMatrix) -> None:
        """Cheap structural check that the plan still fits the operands."""
        if (A.n_rows, B.n_cols) != self.shape:
            raise PlanMismatchError(
                f"plan {self.key.label()} shaped {self.shape} cannot serve "
                f"operands {A.shape} x {B.shape}")

    def numeric_plan(self, A: CSRMatrix, precision: Precision,
                     device: "DeviceSpec") -> "NumericPlan":
        """The numeric-phase kernel plan, built once and reused.

        ``plan_numeric`` reads only pattern-derived quantities (``A``'s
        per-row nnz, the cached grouping and counts), so the result is
        stable across replays; the scheduler never mutates launches.
        """
        if self._numeric_plan is None:
            from repro.core.numeric import plan_numeric

            self._numeric_plan = plan_numeric(
                A, self.num_groups, self.row_products, self.row_nnz,
                precision, device)
        return self._numeric_plan


def replay_values(plan, A: CSRMatrix, B: CSRMatrix,
                  precision: Precision) -> CSRMatrix:
    """Output of a plan-cache hit: fresh values on the plan's structure.

    Serves every plan type carrying ``key``/``shape``/``c_rpt``/``c_col``
    (:class:`SpGEMMPlan` and :class:`repro.tile.algorithm.TilePlan`).
    The engine built ``plan.key`` from these very operands, so
    ``plan.key.digest`` *is* their :func:`pattern_digest`: the sort
    recipe comes straight from the recipe store under it (rebuilt only
    if the store evicted it) and the values are one gather + multiply +
    ``reduceat`` -- no pattern rehash, no value hashing, no full-result
    cache.  A caller replaying a plan outside the engine must keep the
    same precondition: on operands of another pattern the gather would
    follow the plan's recipe.  ``REPRO_SCALAR_CORE=1`` re-runs the full
    expansion + contraction instead.  Either way the output structure
    must equal the cached one, else
    :class:`~repro.errors.PlanMismatchError`; the check is free when the
    recipe is the one the cold run's structure came from.
    """
    if perf.scalar_core_enabled():
        exp = expand_products(A, B, with_values=True)
        C = contract(exp.rows, exp.cols,
                     exp.vals.astype(np.float64, copy=False),
                     plan.shape, np.dtype(np.float64))
        rpt, col, val = C.rpt, C.col, C.val
    else:
        recipe = recipe_for(A, B, plan.key.digest)
        rpt, col = recipe.rpt, recipe.col
        val = values_from_recipe(recipe, A, B)
    if not ((rpt is plan.c_rpt and col is plan.c_col)
            or (np.array_equal(rpt, plan.c_rpt)
                and np.array_equal(col, plan.c_col))):
        raise PlanMismatchError(
            f"plan {plan.key.label()}: output structure deviates from "
            f"the cached pattern (operands mutated in place?)")
    # ``val`` is fresh, never a cached array, so the cast need not copy
    return CSRMatrix(plan.c_rpt, plan.c_col,
                     val.astype(precision.value_dtype, copy=False),
                     plan.shape, check=False)
