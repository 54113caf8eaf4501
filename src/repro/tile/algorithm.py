"""``TileSpGEMM`` -- the tile algorithm.

It runs through the same shared leaf run as
:class:`~repro.core.spgemm.HashSpGEMM` and captures the same
:class:`~repro.engine.plan.SpGEMMPlan`, so every upstream layer (engine
plan cache, resilience ladder, autotuner, ``dist`` pools, serving)
composes unchanged.  Its cost plan:

1. *setup*: CSR -> :class:`~repro.tile.format.TiledCSR` conversion of
   both operands (A and B on separate streams), charged to the modeled
   timeline like pem-spgemm's ``csr2tile`` kernels;
2. *count*: step 1 (tile-pair matching via occupancy masks) and step 2
   (per-C-tile accumulator selection by density) -- the tile family's
   symbolic phase -- then the host sync that sizes the output;
3. the output ``cudaMalloc``;
4. *calc*: step 3 (numeric tile products into shared-memory
   accumulators, **no global atomics**) plus tiled -> CSR assembly.

The functional result always comes from the shared leaf run's product,
so ``tile`` is bit-identical to the reference oracle by construction --
only the modeled time and memory differ from the hash family.  A plan
keeps the tiled structures and the pair list resident (they depend only
on the operand patterns), so a replay re-runs only step 3 + assembly;
fresh operand values reach the resident tiled payloads with the operand
upload, outside the measured region like the CSR inputs themselves.
"""

from __future__ import annotations

from repro.base import SpGEMMAlgorithm, SpGEMMResult
from repro.gpu.device import P100, DeviceSpec
from repro.gpu.faults import FaultPlan
from repro.obs import events as OBS
from repro.sparse.csr import CSRMatrix
from repro.sparse.product import ProductResult
from repro.tile.params import TileParams
from repro.tile.plan import build_pipeline_kernels, tile_size_for, tile_stats
from repro.types import Precision


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
        return self._run(A, B, precision, device, matrix_name, faults,
                         capture=capture)

    def multiply_planned(self, A: CSRMatrix, B: CSRMatrix, plan, *,
                         precision: Precision | str = Precision.DOUBLE,
                         device: DeviceSpec = P100,
                         matrix_name: str = "",
                         faults: FaultPlan | None = None) -> SpGEMMResult:
        """Numeric-only replay of a cached :class:`repro.engine.plan.
        SpGEMMPlan`: conversion, matching and selection are all skipped
        (the tiled structures and the pair list are plan-resident); only
        step 3 + assembly run, and the output ``cudaMalloc`` shrinks to
        the fresh value array."""
        return self._run(A, B, precision, device, matrix_name, faults,
                         plan=plan)

    def _cost_plan(self, ctx, A: CSRMatrix, B: CSRMatrix,
                   prod: ProductResult) -> dict:
        p = ctx.precision
        stats = tile_stats(A, B, prod.C, prod.row_products, self.params)
        tile = tile_size_for(self.params)
        kernels = build_pipeline_kernels(stats, tile, p, ctx.device)

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
        ctx.alloc("C", prod.C.device_bytes(p), phase="malloc")

        # ---- calc: step 3 numeric tiles + tiled -> CSR assembly ----
        d_c_tiled = ctx.alloc("C_tiled", stats.tc.device_bytes(p),
                              phase="calc")
        calc_kernels = [k for k in (kernels["numeric"], kernels["assemble"])
                        if k is not None]
        ctx.run("calc", calc_kernels, use_streams=self.use_streams)

        # ---- cleanup of working memory (C and inputs stay) ----
        for buf in (d_c_tiled, d_pairs, d_b_tiled, d_a_tiled):
            ctx.free(buf)

        return dict(
            calc_kernels=calc_kernels, work_name="C_tiled",
            work_bytes=d_c_tiled.nbytes,
            records=lambda: [(OBS.GROUPING, "tile", grouping_stats),
                             (OBS.HASH_STATS, "tile", class_stats)],
            # both tiled operand structures and the matched pair list
            aux_bytes=d_a_tiled.nbytes + d_b_tiled.nbytes + pairs_bytes)
