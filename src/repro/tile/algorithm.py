"""``TileSpGEMM`` -- the tile algorithm and its cacheable plan.

The run choreography mirrors :class:`~repro.core.spgemm.HashSpGEMM` so
every upstream layer (engine plan cache, resilience ladder, autotuner,
``dist`` pools, serving) composes unchanged:

1. *setup*: CSR -> :class:`~repro.tile.format.TiledCSR` conversion of
   both operands (A and B on separate streams), charged to the modeled
   timeline like pem-spgemm's ``csr2tile`` kernels;
2. *count*: step 1 (tile-pair matching via occupancy masks) and step 2
   (per-C-tile accumulator selection by density) -- the tile family's
   symbolic phase -- then the host sync that sizes the output;
3. the output ``cudaMalloc``;
4. *calc*: step 3 (numeric tile products into shared-memory
   accumulators, **no global atomics**) plus tiled -> CSR assembly.

The functional result always comes from the shared
:func:`~repro.sparse.product.product_for` cache, so ``tile`` is
bit-identical to the reference oracle by construction -- only the
modeled time and memory differ from the hash family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.base import SpGEMMAlgorithm, SpGEMMResult
from repro.engine.plan import replay_values
from repro.errors import PlanMismatchError
from repro.gpu.device import P100, DeviceSpec
from repro.gpu.faults import FaultPlan
from repro.gpu.kernel import KernelLaunch
from repro.obs import events as OBS
from repro.sparse.csr import CSRMatrix
from repro.sparse.product import product_for
from repro.tile.params import TileParams
from repro.tile.plan import build_pipeline_kernels, tile_size_for, tile_stats
from repro.types import Precision


@dataclass
class TilePlan:
    """The cacheable symbolic outcome of one tile multiply.

    Pattern-pure by construction: the tiled metadata (tile index,
    offsets, masks, the entry permutation) and the matched-pair
    structure depend only on the operand patterns, so a replay with
    fresh values skips conversion, matching and selection entirely and
    re-runs only the step-3 kernels.  Fresh operand values reach the
    resident tiled payloads with the operand upload (outside the
    measured region, like the CSR inputs themselves).
    """

    key: object                      #: :class:`repro.engine.plan.PlanKey`
    shape: tuple[int, int]
    n_products: int
    nnz_out: int
    c_rpt: np.ndarray                #: output row pointer
    c_col: np.ndarray                #: output column indices (sorted)
    tile: int                        #: tile edge the plan was built with
    calc_kernels: list[KernelLaunch]  #: step-3 + assembly launches
    grouping_stats: list[dict]       #: tile grouping record (re-emitted)
    class_stats: list[dict]          #: accumulator-class mix (re-emitted)
    a_tiled_bytes: int               #: resident tiled-A footprint
    b_tiled_bytes: int               #: resident tiled-B footprint
    c_tiled_bytes: int               #: step-3 working buffer
    pairs_bytes: int                 #: matched tile-pair list footprint
    symbolic_seconds: float          #: setup+count time of the cold run

    @property
    def n_rows(self) -> int:
        return int(self.shape[0])

    def device_bytes(self) -> int:
        """Device-resident footprint of the cached plan: both tiled
        operand structures, the matched pair list, and the output-CSR
        structure (values are recomputed per replay)."""
        return (self.a_tiled_bytes + self.b_tiled_bytes + self.pairs_bytes
                + 4 * (self.n_rows + 1)          # rpt_C
                + 4 * int(self.nnz_out))         # col_C

    def validate(self, A: CSRMatrix, B: CSRMatrix) -> None:
        """Cheap structural check that the plan still fits the operands."""
        if (A.n_rows, B.n_cols) != self.shape:
            raise PlanMismatchError(
                f"plan {self.key.label()} shaped {self.shape} cannot serve "
                f"operands {A.shape} x {B.shape}")


class TileSpGEMM(SpGEMMAlgorithm):
    """TileSpGEMM-style 2-D tiled SpGEMM (Niu et al. family)."""

    name = "tile"
    param_type = TileParams

    def __init__(self, *, use_streams: bool = True,
                 params: "TileParams | dict | None" = None) -> None:
        self.use_streams = use_streams
        self._init_params(params)

    def plan_switches(self) -> tuple:
        """Configuration folded into plan-cache keys: the tile edge and
        accumulator cutoffs change the captured kernels."""
        return (("params", self.params.switches()),
                ("use_streams", self.use_streams))

    # -- cold run ----------------------------------------------------------

    def multiply(self, A: CSRMatrix, B: CSRMatrix, *,
                 precision: Precision | str = Precision.DOUBLE,
                 device: DeviceSpec = P100,
                 matrix_name: str = "",
                 faults: FaultPlan | None = None,
                 capture=None) -> SpGEMMResult:
        """Full conversion + three-step pipeline.

        ``capture`` (a :class:`repro.engine.plan.PlanCapture`) collects
        the run's symbolic outcome for the engine's plan cache.
        """
        A, B, p = self._prepare(A, B, precision)
        device = self._native_spec(device)
        with self.context(matrix_name, device, p, faults) as ctx:
            return self._multiply(ctx, A, B, p, device, capture=capture)

    def _multiply(self, ctx, A: CSRMatrix, B: CSRMatrix, p: Precision,
                  device: DeviceSpec, capture=None) -> SpGEMMResult:
        a_buf = ctx.alloc_resident("A", A.device_bytes(p))
        b_buf = ctx.alloc_resident("B", B.device_bytes(p)) if B is not A else None

        # ---- functional computation (shared cache: oracle-identical) ----
        row_products, C = product_for(A, B, p)
        n_products = int(row_products.sum())
        ctx.note_stats(n_products=n_products, nnz_out=C.nnz)

        stats = tile_stats(A, B, C, row_products, self.params)
        tile = tile_size_for(self.params)
        kernels = build_pipeline_kernels(stats, tile, p, device)

        # ---- setup: CSR -> tiled conversion of both operands ----
        d_a_tiled = ctx.alloc("A_tiled", stats.ta.device_bytes(p),
                              phase="setup")
        d_b_tiled = ctx.alloc("B_tiled", stats.tb.device_bytes(p),
                              phase="setup")
        ctx.run("setup", kernels["conversion"], use_streams=self.use_streams)

        grouping_stats = [{
            "group": 0, "assign": f"TILE{tile}x{tile}",
            "rows": A.n_rows, "tile": tile,
            "a_tiles": stats.ta.n_tiles, "b_tiles": stats.tb.n_tiles,
            "c_tiles": stats.tc.n_tiles, "pairs": stats.total_pairs,
        }]
        if ctx.observed:
            ctx.emit_each(OBS.GROUPING, "tile", grouping_stats)

        # ---- count: step 1 pair matching + step 2 accumulator selection ----
        pairs_bytes = 8 * stats.total_pairs
        d_pairs = ctx.alloc("tile_pairs", pairs_bytes, phase="count")
        ctx.run("count",
                [k for k in (kernels["match"], kernels["select"])
                 if k is not None],
                use_streams=self.use_streams)
        class_stats = stats.class_records()
        if ctx.observed:
            ctx.emit_each(OBS.HASH_STATS, "tile", class_stats)

        # ---- output malloc (nnz read back to the host, then cudaMalloc) ----
        ctx.host_sync("count")
        c_buf = ctx.alloc("C", C.device_bytes(p), phase="malloc")

        # ---- calc: step 3 numeric tiles + tiled -> CSR assembly ----
        d_c_tiled = ctx.alloc("C_tiled", stats.tc.device_bytes(p),
                              phase="calc")
        calc_kernels = [k for k in (kernels["numeric"], kernels["assemble"])
                        if k is not None]
        ctx.run("calc", calc_kernels, use_streams=self.use_streams)

        # ---- cleanup of working memory (C and inputs stay) ----
        for buf in (d_c_tiled, d_pairs, d_b_tiled, d_a_tiled):
            ctx.free(buf)
        _ = (a_buf, b_buf, c_buf)  # stay live: peak accounting

        if capture is not None:
            capture.plan = TilePlan(
                key=capture.key,
                shape=C.shape,
                n_products=n_products,
                nnz_out=C.nnz,
                c_rpt=C.rpt,
                c_col=C.col,
                tile=tile,
                calc_kernels=calc_kernels,
                grouping_stats=grouping_stats,
                class_stats=class_stats,
                a_tiled_bytes=stats.ta.device_bytes(p),
                b_tiled_bytes=stats.tb.device_bytes(p),
                c_tiled_bytes=stats.tc.device_bytes(p),
                pairs_bytes=pairs_bytes,
                symbolic_seconds=(ctx.phase_seconds.get("setup", 0.0)
                                  + ctx.phase_seconds.get("count", 0.0)),
            )

        report = ctx.report(n_products=n_products, nnz_out=C.nnz)
        return SpGEMMResult(matrix=C, report=report)

    # -- cache-hit replay --------------------------------------------------

    def multiply_planned(self, A: CSRMatrix, B: CSRMatrix, plan: TilePlan, *,
                         precision: Precision | str = Precision.DOUBLE,
                         device: DeviceSpec = P100,
                         matrix_name: str = "",
                         faults: FaultPlan | None = None) -> SpGEMMResult:
        """Numeric-only replay of a cached :class:`TilePlan`: conversion,
        matching and selection are all skipped (the tiled structures and
        the pair list are plan-resident); only step 3 + assembly run, and
        the output ``cudaMalloc`` shrinks to the fresh value array."""
        A, B, p = self._prepare(A, B, precision)
        device = self._native_spec(device)
        plan.validate(A, B)
        with self.context(matrix_name, device, p, faults,
                          numeric_only=True) as ctx:
            return self._multiply_numeric(ctx, A, B, p, plan)

    def _multiply_numeric(self, ctx, A: CSRMatrix, B: CSRMatrix,
                          p: Precision, plan: TilePlan) -> SpGEMMResult:
        ctx.emit(OBS.CACHE_HIT, plan.key.label(), algorithm=self.name,
                 saved_seconds=plan.symbolic_seconds,
                 plan_bytes=plan.device_bytes())

        a_buf = ctx.alloc_resident("A", A.device_bytes(p))
        b_buf = ctx.alloc_resident("B", B.device_bytes(p)) if B is not A else None
        plan_buf = ctx.alloc_resident("plan_cache", plan.device_bytes())

        C = replay_values(plan, A, B, p)
        ctx.note_stats(n_products=plan.n_products, nnz_out=plan.nnz_out)
        if ctx.observed:
            ctx.emit_each(OBS.GROUPING, "tile", plan.grouping_stats)
            ctx.emit_each(OBS.HASH_STATS, "tile", plan.class_stats)

        # the output malloc is values-only: rpt/col live in the plan
        c_val = ctx.alloc("C_values",
                          int(plan.nnz_out) * p.value_dtype.itemsize,
                          phase="malloc")

        d_c_tiled = ctx.alloc("C_tiled", plan.c_tiled_bytes, phase="calc")
        ctx.run("calc", plan.calc_kernels, use_streams=self.use_streams)
        ctx.free(d_c_tiled)
        _ = (a_buf, b_buf, plan_buf, c_val)  # stay live: peak accounting

        report = ctx.report(n_products=plan.n_products, nnz_out=plan.nnz_out)
        return SpGEMMResult(matrix=C, report=report)
