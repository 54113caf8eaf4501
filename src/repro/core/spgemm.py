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
``pwarp_width`` sweeps threads-per-row (Section III-B preliminary).

``symbolic='estimate'`` swaps steps (2)-(4) for the sampled estimator of
:mod:`repro.estimate`: per-row nnz(C) upper bounds from a splitmix64
sample of B-row lengths, grouping and output allocation from the bounds,
and an exact global-table recount of the rare bound-violating rows -- the
OCEAN-style trade of a little over-allocation for skipping the exact
count kernels entirely.  The functional result is bit-identical either
way (the shared product cache computes it); only the modeled timeline
and memory change.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.base import SpGEMMAlgorithm, SpGEMMResult
from repro.core.count_products import count_products_kernel, pass_over_rows_kernel
from repro.core.grouping import GroupAssignment, group_rows
from repro.core.numeric import plan_numeric
from repro.core.params import PWARP_WIDTH, ParamOverrides, build_group_table
from repro.core.symbolic import plan_symbolic
from repro.engine.plan import replay_values
from repro.errors import AlgorithmError
from repro.estimate import (DEFAULT_MARGIN, DEFAULT_SAMPLES,
                            estimate_recount_kernel, estimate_row_nnz,
                            estimate_sample_kernel)
from repro.gpu.device import P100, DeviceSpec
from repro.gpu.faults import FaultPlan
from repro.obs import events as OBS
from repro.sparse.csr import CSRMatrix
from repro.sparse.product import product_for
from repro.types import INDEX_DTYPE, Precision

#: Valid values of the ``symbolic`` constructor switch.
SYMBOLIC_MODES = ("exact", "estimate")


class HashSpGEMM(SpGEMMAlgorithm):
    """The paper's SpGEMM (released by the authors as *nsparse*)."""

    name = "proposal"
    param_type = ParamOverrides

    def __init__(self, *, use_streams: bool = True, use_pwarp: bool = True,
                 pwarp_width: int = PWARP_WIDTH,
                 uniform_tb: bool = False,
                 overrides: "ParamOverrides | dict | None" = None,
                 symbolic: str = "exact",
                 estimate_samples: int = DEFAULT_SAMPLES,
                 estimate_margin: float = DEFAULT_MARGIN,
                 estimate_seed: int = 0) -> None:
        self.use_streams = use_streams
        self.use_pwarp = use_pwarp
        self.pwarp_width = pwarp_width
        self.uniform_tb = uniform_tb
        self._init_params(overrides)
        if symbolic not in SYMBOLIC_MODES:
            raise AlgorithmError(
                f"unknown symbolic mode {symbolic!r} "
                f"(expected one of {list(SYMBOLIC_MODES)})")
        if self.params.symbolic is not None \
                and self.params.symbolic not in SYMBOLIC_MODES:
            raise AlgorithmError(
                f"unknown symbolic mode {self.params.symbolic!r} "
                f"in overrides (expected one of {list(SYMBOLIC_MODES)})")
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
                          pwarp_width=self.pwarp_width,
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
                    ("pwarp_width", self.pwarp_width),
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
        return build_group_table(device, pwarp_width=self.pwarp_width,
                                 uniform_tb=self.uniform_tb,
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
        A, B, p = self._prepare(A, B, precision)
        device = self._native_spec(device)
        with self.context(matrix_name, device, p, faults) as ctx:
            return self._multiply(ctx, A, B, p, device, capture=capture)

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
        A, B, p = self._prepare(A, B, precision)
        device = self._native_spec(device)
        plan.validate(A, B)
        with self.context(matrix_name, device, p, faults,
                          numeric_only=True) as ctx:
            return self._multiply_numeric(ctx, A, B, p, device, plan)

    def _multiply_numeric(self, ctx, A: CSRMatrix, B: CSRMatrix,
                          p: Precision, device: DeviceSpec,
                          plan) -> SpGEMMResult:
        ctx.emit(OBS.CACHE_HIT, plan.key.label(), algorithm=self.name,
                 saved_seconds=plan.symbolic_seconds,
                 plan_bytes=plan.device_bytes())

        a_buf = ctx.alloc_resident("A", A.device_bytes(p))
        b_buf = ctx.alloc_resident("B", B.device_bytes(p)) if B is not A else None
        plan_buf = ctx.alloc_resident("plan_cache", plan.device_bytes())

        # fresh values on the cached structure (raises PlanMismatchError
        # if the pattern behind the digest changed under us)
        C = replay_values(plan, A, B, p)
        ctx.note_stats(n_products=plan.n_products, nnz_out=plan.nnz_out)

        if ctx.observed:
            ctx.emit_each(OBS.GROUPING, "numeric", plan.num_group_stats())

        # the output malloc is values-only: rpt/col live in the plan
        c_val = ctx.alloc("C_values",
                          int(plan.nnz_out) * p.value_dtype.itemsize,
                          phase="malloc")

        num_plan = plan.numeric_plan(A, p, device)
        if ctx.observed:
            ctx.emit_each(OBS.HASH_STATS, "numeric", num_plan.table_stats)
        g0_tables = None
        if num_plan.global_table_bytes:
            g0_tables = ctx.alloc("g0_numeric_tables",
                                  num_plan.global_table_bytes, phase="calc")
        ctx.run("calc", num_plan.kernels, use_streams=self.use_streams)
        if g0_tables is not None:
            ctx.free(g0_tables)
        _ = (a_buf, b_buf, plan_buf, c_val)  # stay live: peak accounting

        report = ctx.report(n_products=plan.n_products, nnz_out=plan.nnz_out)
        return SpGEMMResult(matrix=C, report=report)

    def _multiply(self, ctx, A: CSRMatrix, B: CSRMatrix, p: Precision,
                  device: DeviceSpec, capture=None) -> SpGEMMResult:
        if self.effective_symbolic == "estimate":
            return self._multiply_estimate(ctx, A, B, p, device,
                                           capture=capture)
        n_rows = A.n_rows

        # input matrices are resident before the measured region
        a_buf = ctx.alloc_resident("A", A.device_bytes(p))
        b_buf = ctx.alloc_resident("B", B.device_bytes(p)) if B is not A else None

        # ---- functional computation (cached expansion feeds everything) ----
        row_products, C = product_for(A, B, p)
        row_nnz = C.row_nnz().astype(np.int64)
        n_products = int(row_products.sum())
        ctx.note_stats(n_products=n_products, nnz_out=C.nnz)

        table = self._table(device)

        # ---- (1)-(2) setup: product counts + symbolic grouping ----
        d_products = ctx.alloc("row_products", 4 * n_rows, phase="setup")
        ctx.run("setup", [count_products_kernel(A)],
                use_streams=self.use_streams)
        sym_groups = self._group(row_products, table, "products")
        if ctx.observed:
            ctx.emit_each(OBS.GROUPING, "symbolic",
                          sym_groups.stats(row_products))
        d_sym_groups = ctx.alloc("group_rows_symbolic",
                                 sym_groups.device_bytes(), phase="setup")
        ctx.run("setup", [pass_over_rows_kernel("grouping_symbolic", n_rows, 4.0)],
                use_streams=self.use_streams)

        # ---- (3) count: symbolic kernels, one stream per group ----
        d_nnz = ctx.alloc("row_nnz", 4 * (n_rows + 1), phase="setup")
        sym_plan = plan_symbolic(A, sym_groups, row_products, row_nnz, device)
        if ctx.observed:
            ctx.emit_each(OBS.HASH_STATS, "symbolic", sym_plan.table_stats)
        ctx.run("count", sym_plan.kernels, use_streams=self.use_streams)
        if sym_plan.retry_kernel is not None:
            tables = ctx.alloc("g0_symbolic_tables",
                               sym_plan.global_table_bytes, phase="count")
            ctx.run("count", [sym_plan.retry_kernel],
                    use_streams=self.use_streams)
            ctx.free(tables)

        # ---- (4) row pointer of C: exclusive scan over the counts ----
        ctx.run("count", [pass_over_rows_kernel("scan_rpt_c", n_rows, 2.0,
                                                phase="count")],
                use_streams=self.use_streams)

        # ---- (5) allocate C: the total nnz is read back to the host to
        # size the allocation (one device sync), then cudaMalloc ----
        ctx.host_sync("count")
        c_buf = ctx.alloc("C", C.device_bytes(p), phase="malloc")

        # ---- (6) setup: numeric grouping by nnz ----
        num_groups = self._group(row_nnz, table, "nnz")
        if ctx.observed:
            ctx.emit_each(OBS.GROUPING, "numeric", num_groups.stats(row_nnz))
        d_num_groups = ctx.alloc("group_rows_numeric",
                                 num_groups.device_bytes(), phase="setup")
        ctx.run("setup", [pass_over_rows_kernel("grouping_numeric", n_rows, 4.0)],
                use_streams=self.use_streams)

        # ---- (7) calc: numeric kernels, one stream per group ----
        num_plan = plan_numeric(A, num_groups, row_products, row_nnz, p, device)
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
        for buf in (d_num_groups, d_sym_groups, d_nnz, d_products):
            ctx.free(buf)
        _ = (a_buf, b_buf, c_buf)  # stay live: peak accounting

        if capture is not None:
            from repro.engine.plan import SpGEMMPlan

            capture.plan = SpGEMMPlan(
                key=capture.key,
                shape=C.shape,
                n_products=n_products,
                nnz_out=C.nnz,
                row_products=row_products,
                row_nnz=row_nnz,
                sym_groups=sym_groups,
                num_groups=num_groups,
                c_rpt=C.rpt,
                c_col=C.col,
                symbolic_seconds=(ctx.phase_seconds.get("setup", 0.0)
                                  + ctx.phase_seconds.get("count", 0.0)),
                sym_global_table_bytes=sym_plan.global_table_bytes,
            )

        report = ctx.report(n_products=n_products, nnz_out=C.nnz)
        return SpGEMMResult(matrix=C, report=report)

    def _multiply_estimate(self, ctx, A: CSRMatrix, B: CSRMatrix,
                           p: Precision, device: DeviceSpec,
                           capture=None) -> SpGEMMResult:
        """Estimated symbolic phase: bounds instead of exact counts.

        The count phase shrinks to one sampling pass (cost independent
        of the product count) plus, when a bound is violated, an exact
        global-table recount of just those rows -- the same recipe as
        the Group-0 retry.  The output is allocated from the bounds, so
        estimate-mode runs trade a little device memory (the bound
        slack) for the whole exact counting cost.
        """
        n_rows = A.n_rows

        a_buf = ctx.alloc_resident("A", A.device_bytes(p))
        b_buf = ctx.alloc_resident("B", B.device_bytes(p)) if B is not A else None

        # ---- functional computation (cached expansion feeds everything) ----
        row_products, C = product_for(A, B, p)
        row_nnz = C.row_nnz().astype(np.int64)
        n_products = int(row_products.sum())
        ctx.note_stats(n_products=n_products, nnz_out=C.nnz)

        table = self._table(device)

        # ---- (1) setup: product counts (Alg. 2 stays: it is cheap and
        # the estimator clamps its bounds to the product counts) ----
        d_products = ctx.alloc("row_products", 4 * n_rows, phase="setup")
        ctx.run("setup", [count_products_kernel(A)],
                use_streams=self.use_streams)

        # ---- (2)-(3) count: one sampling pass replaces the grouped
        # symbolic kernels; its cost does not grow with the products ----
        est = estimate_row_nnz(A, B, samples=self.estimate_samples,
                               margin=self.estimate_margin,
                               seed=self.estimate_seed)
        d_bounds = ctx.alloc("row_bounds", 4 * (n_rows + 1), phase="count")
        nnz_a = A.row_nnz()
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
        recover_table_bytes = 0
        if n_violated:
            from repro.types import next_pow2_array

            sizes = next_pow2_array(row_products[violated]).astype(np.float64)
            recover_table_bytes = int(4 * sizes.sum())
            tables = ctx.alloc("estimate_recount_tables", recover_table_bytes,
                               phase="count")
            ctx.run("count", [estimate_recount_kernel(
                nnz_a[violated], row_products[violated], row_nnz[violated],
                sizes)], use_streams=self.use_streams)
            ctx.free(tables)
            ctx.emit(OBS.ESTIMATE_RECOVER, ctx.matrix_name, rows=n_violated,
                     table_bytes=recover_table_bytes)

        # ---- (4) row pointer of C: scan over the adjusted bounds ----
        ctx.run("count", [pass_over_rows_kernel("scan_rpt_c", n_rows, 2.0,
                                                phase="count")],
                use_streams=self.use_streams)

        # ---- (5) allocate C from the bounds: over-allocated by the
        # bound slack (the memory the estimate trades for count time) ----
        ctx.host_sync("count")
        c_bytes = 4 * (n_rows + 1) + int(adjusted.sum()) * (4 + p.value_bytes)
        c_buf = ctx.alloc("C", c_bytes, phase="malloc")

        # ---- (6) setup: numeric grouping by the adjusted bounds ----
        num_groups = self._group(adjusted, table, "estimate")
        if ctx.observed:
            ctx.emit_each(OBS.GROUPING, "numeric", num_groups.stats(adjusted))
        d_num_groups = ctx.alloc("group_rows_numeric",
                                 num_groups.device_bytes(), phase="setup")
        ctx.run("setup", [pass_over_rows_kernel("grouping_numeric", n_rows, 4.0)],
                use_streams=self.use_streams)

        # ---- (7) calc: numeric kernels; costs use the *true* counts
        # (bound >= nnz guarantees every shared table fits its row) ----
        num_plan = plan_numeric(A, num_groups, row_products, row_nnz, p, device)
        if ctx.observed:
            ctx.emit_each(OBS.HASH_STATS, "numeric", num_plan.table_stats)
        g0_tables = None
        if num_plan.global_table_bytes:
            g0_tables = ctx.alloc("g0_numeric_tables",
                                  num_plan.global_table_bytes, phase="calc")
        ctx.run("calc", num_plan.kernels, use_streams=self.use_streams)

        if g0_tables is not None:
            ctx.free(g0_tables)
        for buf in (d_num_groups, d_bounds, d_products):
            ctx.free(buf)
        _ = (a_buf, b_buf, c_buf)  # stay live: peak accounting

        if capture is not None:
            from repro.engine.plan import SpGEMMPlan

            capture.plan = SpGEMMPlan(
                key=capture.key,
                shape=C.shape,
                n_products=n_products,
                nnz_out=C.nnz,
                row_products=row_products,
                row_nnz=row_nnz,
                sym_groups=num_groups,
                num_groups=num_groups,
                c_rpt=C.rpt,
                c_col=C.col,
                symbolic_seconds=(ctx.phase_seconds.get("setup", 0.0)
                                  + ctx.phase_seconds.get("count", 0.0)),
                sym_global_table_bytes=recover_table_bytes,
            )

        report = ctx.report(n_products=n_products, nnz_out=C.nnz)
        return SpGEMMResult(matrix=C, report=report)
