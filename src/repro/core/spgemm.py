"""The proposal: hash-table SpGEMM with row grouping (Figure 1 end to end).

:class:`HashSpGEMM` executes the paper's two-phase flow:

1. *setup*: count intermediate products (Alg. 2), allocate and fill the
   symbolic group arrays;
2. *count*: per-group symbolic kernels on concurrent streams, with the
   Group-0 shared-try / global-retry, then the row-pointer scan;
3. the output matrix ``cudaMalloc`` (its cost is the paper's fourth
   breakdown component);
4. *setup*: regroup by output nnz;
5. *calc*: per-group numeric kernels on concurrent streams (Group 0 on
   global tables), producing the final CSR.

Constructor switches drive the paper's ablations: ``use_streams=False``
serializes all kernels (Section IV-C: x1.3 on Circuit), ``use_pwarp=False``
routes tiny rows through the smallest TB/ROW group (x3.1 on Epidemiology),
and ``overrides=ParamOverrides(pwarp_width=w)`` sweeps threads-per-row
(Section III-B preliminary).

The flow is written once; only steps (2)-(3) come in two forms.  The
exact symbolic step groups rows by products and runs the count kernels
with the Group-0 retry.  ``symbolic='estimate'`` swaps in the sampled
estimator of :mod:`repro.estimate`: per-row nnz(C) upper bounds from a
splitmix64 sample of B-row lengths, a bound check, and an exact
global-table recount of the rare bound-violating rows -- the OCEAN-style
trade of a little over-allocation for skipping the exact count kernels
entirely.  Either step hands the rest of the flow the counts that size
C and drive the numeric grouping, the grouping metric and the buffers it
leaves for cleanup.  The functional result is bit-identical either way
(the shared leaf run computes it once); only the modeled timeline and
memory change.  A cold run captures the calc kernels for the engine's
plan cache, and a hit replays them through the one replay body,
:meth:`repro.engine.plan.SpGEMMPlan.replay`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.base import SpGEMMAlgorithm, SpGEMMResult
from repro.core.count_products import (BLOCK_THREADS, count_products_kernel,
                                       pass_over_rows_kernel)
from repro.core.grouping import GroupAssignment, group_rows
from repro.core.numeric import plan_numeric
from repro.core.params import SYMBOLIC_MODES, ParamOverrides, build_group_table
from repro.core.symbolic import global_recount_kernel, plan_symbolic
from repro.errors import AlgorithmError
from repro.estimate import (DEFAULT_MARGIN, DEFAULT_SAMPLES, estimate_row_nnz,
                            estimate_sample_kernel)
from repro.gpu.device import P100, DeviceSpec
from repro.gpu.faults import FaultPlan
from repro.obs import events as OBS
from repro.sparse.csr import CSRMatrix
from repro.sparse.product import ProductResult
from repro.types import INDEX_DTYPE, Precision


class HashSpGEMM(SpGEMMAlgorithm):
    """The paper's SpGEMM (released by the authors as *nsparse*)."""

    name = "proposal"
    param_type = ParamOverrides

    def __init__(self, *, use_streams: bool = True, use_pwarp: bool = True,
                 uniform_tb: bool = False,
                 overrides: "ParamOverrides | dict | None" = None,
                 symbolic: str = "exact",
                 estimate_samples: int = DEFAULT_SAMPLES,
                 estimate_margin: float = DEFAULT_MARGIN,
                 estimate_seed: int = 0) -> None:
        self.use_streams = use_streams
        self.use_pwarp = use_pwarp
        self.uniform_tb = uniform_tb
        self._init_params(overrides)
        if symbolic not in SYMBOLIC_MODES:
            raise AlgorithmError(
                f"unknown symbolic mode {symbolic!r} "
                f"(expected one of {list(SYMBOLIC_MODES)})")
        self.symbolic = symbolic
        self.estimate_samples = int(estimate_samples)
        self.estimate_margin = float(estimate_margin)
        self.estimate_seed = int(estimate_seed)

    @property
    def effective_symbolic(self) -> str:
        """The symbolic mode after tuned overrides (overrides win)."""
        return self.params.symbolic or self.symbolic

    def exact_variant(self) -> "HashSpGEMM":
        """A copy forced to the exact symbolic phase (same everything
        else) -- the resilience ladder's estimate-downgrade target."""
        overrides = self.params
        if overrides.symbolic is not None:
            overrides = dataclasses.replace(overrides, symbolic=None)
        return HashSpGEMM(use_streams=self.use_streams,
                          use_pwarp=self.use_pwarp,
                          uniform_tb=self.uniform_tb,
                          overrides=overrides,
                          symbolic="exact",
                          estimate_samples=self.estimate_samples,
                          estimate_margin=self.estimate_margin,
                          estimate_seed=self.estimate_seed)

    def plan_switches(self) -> tuple:
        """Configuration tuple folded into the plan-cache key: any switch
        that changes grouping or kernels must appear here.  Tuned
        overrides are included, so a tuned and an untuned run of the same
        pattern key different plans; the effective symbolic mode is too,
        so estimated and exact plans of one pattern never alias."""
        switches = (("use_streams", self.use_streams),
                    ("use_pwarp", self.use_pwarp),
                    ("uniform_tb", self.uniform_tb),
                    ("overrides", self.params.switches()),
                    ("symbolic", self.effective_symbolic))
        if self.effective_symbolic == "estimate":
            switches += (("estimate", (self.estimate_samples,
                                       self.estimate_margin,
                                       self.estimate_seed)),)
        return switches

    def _table(self, device: DeviceSpec):
        """The (possibly tuned) group table driving both phases."""
        return build_group_table(device, uniform_tb=self.uniform_tb,
                                 overrides=self.params)

    def _group(self, counts: np.ndarray, table, metric: str) -> GroupAssignment:
        """Group rows, optionally disabling PWARP/ROW (ablation E9): the
        PWARP group's rows are folded into the smallest TB/ROW group."""
        assignment = group_rows(counts, table, metric)
        if not self.use_pwarp:
            pwarp_gid = table.pwarp_group.gid
            tb_gid = pwarp_gid - 1
            merged = np.sort(np.concatenate([
                assignment.rows_by_group[tb_gid],
                assignment.rows_by_group[pwarp_gid]])).astype(INDEX_DTYPE)
            assignment.rows_by_group[tb_gid] = merged
            assignment.rows_by_group[pwarp_gid] = merged[:0]
            assignment.gids[merged] = tb_gid
        return assignment

    def multiply(self, A: CSRMatrix, B: CSRMatrix, *,
                 precision: Precision | str = Precision.DOUBLE,
                 device: DeviceSpec = P100,
                 matrix_name: str = "",
                 faults: FaultPlan | None = None,
                 capture=None) -> SpGEMMResult:
        """Full two-phase multiply.

        ``capture`` (a :class:`repro.engine.plan.PlanCapture`) collects the
        run's symbolic outcome for the engine's plan cache; ``None`` (the
        default) captures nothing.
        """
        return self._run(A, B, precision, device, matrix_name, faults,
                         capture=capture)

    def multiply_planned(self, A: CSRMatrix, B: CSRMatrix, plan, *,
                         precision: Precision | str = Precision.DOUBLE,
                         device: DeviceSpec = P100,
                         matrix_name: str = "",
                         faults: FaultPlan | None = None) -> SpGEMMResult:
        """Numeric-only replay of a cached :class:`repro.engine.plan.
        SpGEMMPlan` (the engine's cache-hit path).

        The run context is opened ``numeric_only``, so any symbolic work
        would raise; the entire setup/count component -- product counting,
        both grouping passes, the counting kernels, the row-pointer scan
        and the count-phase host sync -- is skipped, and the output
        ``cudaMalloc`` shrinks to the fresh value array (the cached CSR
        structure is already device-resident in the plan).
        """
        return self._run(A, B, precision, device, matrix_name, faults,
                         plan=plan)

    def _cost_plan(self, ctx, A: CSRMatrix, B: CSRMatrix,
                   prod: ProductResult) -> dict:
        n_rows = A.n_rows
        p = ctx.precision
        table = self._table(ctx.device)

        # ---- (1) setup: product counts (Alg. 2; the estimate keeps it
        # too: it is cheap and the estimator clamps its bounds to it) ----
        d_products = ctx.alloc("row_products", 4 * n_rows, phase="setup")
        ctx.run("setup", [count_products_kernel(prod.nnz_a)],
                use_streams=self.use_streams)

        # ---- (2)-(3): the exact or the estimated symbolic step ----
        symbolic = (self._estimated_symbolic
                    if self.effective_symbolic == "estimate"
                    else self._exact_symbolic)
        counts, metric, buffers = symbolic(ctx, A, B, prod, table)

        # ---- (4) row pointer of C: exclusive scan over the counts ----
        ctx.run("count", [pass_over_rows_kernel("scan_rpt_c", n_rows, 2.0,
                                                phase="count")],
                use_streams=self.use_streams)

        # ---- (5) allocate C: the total is read back to the host to size
        # the allocation (one device sync), then cudaMalloc ----
        ctx.host_sync("count")
        ctx.alloc("C", 4 * (n_rows + 1)
                  + int(counts.sum()) * (4 + p.value_bytes), phase="malloc")

        # ---- (6) setup: numeric grouping by the counts ----
        num_groups = self._group(counts, table, metric)
        if ctx.observed:
            ctx.emit_each(OBS.GROUPING, "numeric", num_groups.stats(counts))
        d_num_groups = ctx.alloc("group_rows_numeric",
                                 num_groups.device_bytes(), phase="setup")
        ctx.run("setup", [pass_over_rows_kernel("grouping_numeric", n_rows, 4.0)],
                use_streams=self.use_streams)

        # ---- (7) calc: numeric kernels, one stream per group; costs use
        # the *true* counts (an estimated bound >= nnz guarantees every
        # shared table fits its row) ----
        num_plan = plan_numeric(prod.nnz_a, num_groups, prod.row_products,
                                prod.row_nnz, p, ctx.device)
        if ctx.observed:
            ctx.emit_each(OBS.HASH_STATS, "numeric", num_plan.table_stats)
        g0_tables = None
        if num_plan.global_table_bytes:
            g0_tables = ctx.alloc("g0_numeric_tables",
                                  num_plan.global_table_bytes, phase="calc")
        ctx.run("calc", num_plan.kernels, use_streams=self.use_streams)

        # ---- cleanup of working memory (C and inputs stay) ----
        if g0_tables is not None:
            ctx.free(g0_tables)
        for buf in (d_num_groups, *buffers, d_products):
            ctx.free(buf)

        table_stats = num_plan.table_stats
        return dict(
            calc_kernels=num_plan.kernels,
            work_name="g0_numeric_tables" if g0_tables is not None else None,
            work_bytes=num_plan.global_table_bytes,
            # the counts the cold run grouped by: estimated bounds in
            # estimate mode, the true nnz in exact mode
            records=lambda: [
                (OBS.GROUPING, "numeric", num_groups.stats(counts)),
                (OBS.HASH_STATS, "numeric", table_stats)],
            # both group-row arrays and the per-row counts
            aux_bytes=2 * num_groups.device_bytes() + 4 * (n_rows + 1))

    def _exact_symbolic(self, ctx, A: CSRMatrix, B: CSRMatrix,
                        prod: ProductResult, table):
        """Steps (2)-(3) exact: symbolic grouping by products, the count
        kernels on concurrent streams and the Group-0 global retry.
        Returns the numeric grouping's counts and metric and the buffers
        left for cleanup."""
        n_rows = A.n_rows
        row_products = prod.row_products
        sym_groups = self._group(row_products, table, "products")
        if ctx.observed:
            ctx.emit_each(OBS.GROUPING, "symbolic",
                          sym_groups.stats(row_products))
        d_sym_groups = ctx.alloc("group_rows_symbolic",
                                 sym_groups.device_bytes(), phase="setup")
        ctx.run("setup", [pass_over_rows_kernel("grouping_symbolic", n_rows, 4.0)],
                use_streams=self.use_streams)

        d_nnz = ctx.alloc("row_nnz", 4 * (n_rows + 1), phase="setup")
        sym_plan = plan_symbolic(prod.nnz_a, sym_groups, row_products,
                                 prod.row_nnz, ctx.device)
        if ctx.observed:
            ctx.emit_each(OBS.HASH_STATS, "symbolic", sym_plan.table_stats)
        ctx.run("count", sym_plan.kernels, use_streams=self.use_streams)
        if sym_plan.retry_kernel is not None:
            tables = ctx.alloc("g0_symbolic_tables",
                               sym_plan.global_table_bytes, phase="count")
            ctx.run("count", [sym_plan.retry_kernel],
                    use_streams=self.use_streams)
            ctx.free(tables)
        return prod.row_nnz, "nnz", (d_sym_groups, d_nnz)

    def _estimated_symbolic(self, ctx, A: CSRMatrix, B: CSRMatrix,
                            prod: ProductResult, table):
        """Steps (2)-(3) estimated: bounds instead of exact counts.

        The count phase shrinks to one sampling pass (cost independent
        of the product count) plus, when a bound is violated, an exact
        global-table recount of just those rows -- the same recipe as
        the Group-0 retry.  C is allocated from the bounds, so
        estimate-mode runs trade a little device memory (the bound
        slack) for the whole exact counting cost.
        """
        n_rows = A.n_rows
        row_products, row_nnz, nnz_a = prod.row_products, prod.row_nnz, prod.nnz_a
        est = estimate_row_nnz(A, B, samples=self.estimate_samples,
                               margin=self.estimate_margin,
                               seed=self.estimate_seed)
        d_bounds = ctx.alloc("row_bounds", 4 * (n_rows + 1), phase="count")
        ctx.run("count", [estimate_sample_kernel(nnz_a, self.estimate_samples)],
                use_streams=self.use_streams)
        ctx.emit(OBS.ESTIMATE_SAMPLE, ctx.matrix_name,
                 samples=est.samples, margin=est.margin, seed=est.seed,
                 sampled_rows=est.sampled_rows, exact_rows=est.exact_rows)

        # ---- bound check + recovery: rows whose true nnz exceeds the
        # bound are recounted exactly on global tables (the hash-table
        # overflow would otherwise corrupt the numeric phase) ----
        violated = est.violations(row_nnz)
        n_violated = int(violated.sum())
        adjusted = np.where(violated, row_nnz, est.bound).astype(np.int64)
        ctx.emit(OBS.ESTIMATE_BOUND, ctx.matrix_name, rows=n_rows,
                 within=n_rows - n_violated,
                 overalloc_nnz=int((adjusted - row_nnz).sum()))
        if n_violated:
            recount, sizes = global_recount_kernel(
                "estimate_recount", "estretry", BLOCK_THREADS,
                nnz_a[violated], row_products[violated], row_nnz[violated])
            table_bytes = int(4 * sizes.sum())
            tables = ctx.alloc("estimate_recount_tables", table_bytes,
                               phase="count")
            ctx.run("count", [recount], use_streams=self.use_streams)
            ctx.free(tables)
            ctx.emit(OBS.ESTIMATE_RECOVER, ctx.matrix_name, rows=n_violated,
                     table_bytes=table_bytes)
        return adjusted, "estimate", (d_bounds,)
