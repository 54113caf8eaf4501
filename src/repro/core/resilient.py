"""Graceful degradation under memory pressure: the resilience ladder.

The paper's memory-saving claim (Figure 4, Table III) is binary in the
plain algorithms: a run either fits the device or dies with
:class:`~repro.errors.DeviceMemoryError`.  :class:`ResilientSpGEMM` turns
that into a planned, degraded-but-correct execution path, in the spirit of
OpSparse's over-allocation taming and OCEAN's estimation-driven budgeting:

1. **plain** -- run the primary algorithm under the configured memory
   budget;
2. **retry** -- on a recoverable failure, run again under a reduced
   budget (clears transient injected faults and backs off from the
   capacity edge);
3. **row-panel chunking** -- split A into row panels *balanced by the
   Alg. 2 intermediate-product counts* (so each panel's temporaries are a
   roughly equal fraction of the full working set), multiply panel by
   panel against the full B, and concatenate the CSR outputs; the panel
   count doubles until the run fits or :attr:`max_panels` is reached;
4. **algorithm fallback** -- repeat the ladder with the next algorithm in
   the chain (default: proposal, then the cuSPARSE-style baseline, the
   Figure 4 memory-footprint winner among the baselines).

Recoverable failures are :class:`~repro.errors.DeviceMemoryError` and
:class:`~repro.errors.HashTableError`; anything else propagates.  Every
attempt is logged in a :class:`ResilienceReport` attached to the returned
:class:`~repro.base.SpGEMMResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.base import SpGEMMAlgorithm, SpGEMMResult
from repro.core.count_products import count_products
from repro.errors import DeviceLostError, DeviceMemoryError, HashTableError
from repro.gpu.device import P100, DeviceSpec
from repro.gpu.faults import FaultPlan
from repro.gpu.timeline import PHASES, KernelRecord, SimReport
from repro.obs import events as OBS
from repro.obs.events import Event
from repro.sparse.csr import CSRMatrix
from repro.types import Precision

#: Failures the ladder absorbs; everything else is a bug and propagates.
RECOVERABLE = (DeviceMemoryError, HashTableError, DeviceLostError)


@dataclass
class AttemptRecord:
    """One rung execution of the resilience ladder."""

    algorithm: str
    strategy: str          #: 'plain' | 'retry' | 'panels'
    budget_bytes: int
    panels: int            #: 0 for unchunked attempts
    ok: bool
    error: str = ""
    injected: bool = False   #: failure was injected by a FaultPlan
    peak_bytes: int = 0      #: peak of the attempt (partial peak on failure)


@dataclass
class ResilienceReport:
    """Audit trail of one resilient run (attached to the result)."""

    attempts: list[AttemptRecord] = field(default_factory=list)
    faults_seen: int = 0          #: recoverable failures encountered
    injected_faults: int = 0      #: of those, injected by a fault plan
    panels_used: int = 0          #: panels of the successful attempt (0 = none)
    panel_peaks: list[int] = field(default_factory=list)
    recovered: bool = False       #: succeeded after at least one failure
    final_algorithm: str | None = None
    final_strategy: str | None = None
    #: hash-table overflows that downgraded an estimated symbolic phase
    #: back to the exact count kernels (symbolic='estimate' runs only)
    estimate_downgrades: int = 0

    def summary(self) -> str:
        """Human-readable one-paragraph account of the ladder."""
        lines = []
        for a in self.attempts:
            state = "ok" if a.ok else f"FAILED ({a.error})"
            panels = f" x{a.panels} panels" if a.panels else ""
            lines.append(f"  {a.algorithm}/{a.strategy}{panels} "
                         f"@ {a.budget_bytes / (1 << 20):,.1f} MiB: {state}")
        head = (f"resilience: {len(self.attempts)} attempt(s), "
                f"{self.faults_seen} fault(s) "
                f"({self.injected_faults} injected), "
                + (f"recovered via {self.final_algorithm}/"
                   f"{self.final_strategy}"
                   + (f" with {self.panels_used} panels (max panel peak "
                      f"{max(self.panel_peaks) / (1 << 20):,.1f} MiB)"
                      if self.panels_used else "")
                   if self.recovered else "no degradation needed"))
        return "\n".join([head] + lines)


def split_row_panels(row_products: np.ndarray,
                     n_panels: int) -> list[tuple[int, int]]:
    """Partition rows into ``n_panels`` contiguous panels balanced by
    their intermediate-product counts (Alg. 2), so each panel's expanded
    working set is a roughly equal share of the total.

    Returns half-open ``(lo, hi)`` row ranges covering ``[0, n_rows)``.
    """
    weights = np.maximum(np.asarray(row_products, dtype=np.float64), 1.0)
    n = weights.shape[0]
    if n == 0:
        return []
    n_panels = max(1, min(int(n_panels), n))
    cum = np.cumsum(weights)
    targets = cum[-1] * np.arange(1, n_panels) / n_panels
    cuts = np.searchsorted(cum, targets, side="left") + 1
    bounds = np.unique(np.concatenate(([0], cuts, [n])))
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def merge_panel_reports(reports: list[SimReport], *, algorithm: str,
                        matrix_name: str) -> SimReport:
    """Combine per-panel reports into one run report.

    Panels execute sequentially on the device, so times add; the peak is
    the worst single panel (panels release their temporaries before the
    next panel starts).  Kernel records are shifted onto one timeline.
    """
    phase_seconds = {p: 0.0 for p in PHASES}
    kernels: list[KernelRecord] = []
    events: list[Event] = []
    offset = 0.0
    for r in reports:
        for p, dt in r.phase_seconds.items():
            phase_seconds[p] = phase_seconds.get(p, 0.0) + dt
        for k in r.kernels:
            kernels.append(KernelRecord(
                name=k.name, phase=k.phase, stream=k.stream,
                start=k.start + offset, end=k.end + offset,
                n_blocks=k.n_blocks, block_seconds=k.block_seconds,
                device=k.device))
        for e in r.events:
            events.append(e.shifted(offset))
        offset += r.total_seconds
    first = reports[0]
    return SimReport(
        algorithm=algorithm,
        matrix=matrix_name,
        precision=first.precision,
        device=first.device,
        n_products=sum(r.n_products for r in reports),
        nnz_out=sum(r.nnz_out for r in reports),
        total_seconds=offset,
        phase_seconds=phase_seconds,
        peak_bytes=max(r.peak_bytes for r in reports),
        malloc_count=sum(r.malloc_count for r in reports),
        kernels=kernels,
        events=events,
    )


class ResilientSpGEMM(SpGEMMAlgorithm):
    """SpGEMM wrapper that degrades gracefully instead of aborting on OOM.

    Parameters
    ----------
    algorithms:
        The fallback chain, tried in order; each entry is a registry name.
    memory_budget:
        Soft device-memory budget in bytes (``None`` = the device's own
        capacity).  Enforced by running attempts on a budget-capped device.
    retry_budget_factor:
        Budget multiplier for the immediate-retry rung.
    initial_panels / max_panels:
        Row-panel chunking starts at ``initial_panels`` and doubles until
        the run fits or ``max_panels`` is exceeded.
    options:
        Keyword options forwarded to the *first* algorithm's constructor
        (the baselines take none).
    """

    name = "resilient"

    def __init__(self, *, algorithms: tuple[str, ...] = ("proposal", "cusparse"),
                 memory_budget: int | None = None,
                 retry_budget_factor: float = 0.75,
                 initial_panels: int = 4, max_panels: int = 256,
                 **options) -> None:
        self.algorithms = tuple(algorithms)
        self.memory_budget = memory_budget
        self.retry_budget_factor = float(retry_budget_factor)
        self.initial_panels = max(2, int(initial_panels))
        self.max_panels = int(max_panels)
        self.options = options

    # ------------------------------------------------------------------

    @staticmethod
    def _budget_device(device: DeviceSpec, budget: int) -> DeviceSpec:
        return device if budget >= device.global_mem_bytes \
            else device.with_memory(budget)

    def _make(self, name: str, first: bool) -> SpGEMMAlgorithm:
        from repro.baselines.registry import create  # avoid import cycle

        return create(name, **(self.options if first else {}))

    def apply_param_overrides(self, overrides) -> bool:
        """Adopt tuned overrides for the *primary* algorithm only.

        Fallback rungs keep the paper's defaults: a tuned config is
        validated for the primary path, and a degraded retry should not
        inherit an aggressive configuration on top of a failure.
        """
        if not self._make(self.algorithms[0], first=False) \
                .apply_param_overrides(overrides):
            return False
        self.options = {**self.options, "overrides": overrides}
        return True

    def multiply(self, A: CSRMatrix, B: CSRMatrix, *,
                 precision: Precision | str = Precision.DOUBLE,
                 device: DeviceSpec = P100,
                 matrix_name: str = "",
                 faults: FaultPlan | None = None) -> SpGEMMResult:
        A, B, p = self._prepare(A, B, precision)
        budget = min(self.memory_budget or device.global_mem_bytes,
                     device.global_mem_bytes)
        rep = ResilienceReport()
        last_error: Exception | None = None

        for i, algo_name in enumerate(self.algorithms):
            algo = self._make(algo_name, first=(i == 0))
            for strategy, run_budget, panels in self._ladder(budget, A.n_rows):
                result, err = self._attempt(
                    algo, A, B, p, self._budget_device(device, run_budget),
                    matrix_name, faults, rep, strategy, run_budget, panels)
                if result is not None:
                    rep.recovered = rep.faults_seen > 0
                    rep.final_algorithm = algo.name
                    rep.final_strategy = strategy
                    result.resilience = rep
                    if OBS.observed_default():
                        self._emit_ladder(result.report, rep)
                    return result
                last_error = err
                # a hash-table overflow under an estimated symbolic
                # phase indicts the bounds, not the budget: downgrade
                # this algorithm to the exact count kernels for the
                # remaining rungs (fallback algorithms already run
                # exact -- they get no options)
                if (isinstance(err, HashTableError)
                        and getattr(algo, "effective_symbolic", "exact")
                        == "estimate"
                        and hasattr(algo, "exact_variant")):
                    algo = algo.exact_variant()
                    rep.estimate_downgrades += 1

        assert last_error is not None
        last_error.resilience = rep
        raise last_error

    @staticmethod
    def _emit_ladder(report: SimReport, rep: ResilienceReport) -> None:
        """Append one ``resilience`` event per ladder attempt to the final
        report's event stream (at the end of the timeline, so timestamp
        monotonicity is preserved)."""
        ts = report.total_seconds
        for a in rep.attempts:
            report.events.append(Event(
                ts=ts, kind=OBS.RESILIENCE, name=a.strategy,
                attrs={"algorithm": a.algorithm, "panels": a.panels,
                       "budget_bytes": a.budget_bytes, "ok": a.ok,
                       "error": a.error, "injected": a.injected}))

    def ladder_rungs(self, budget: int, n_rows: int):
        """The ``(strategy, budget, panels)`` rungs tried per algorithm.

        Public so the property-based suite can pin the ladder's
        termination bound: the rung count is at most ``2 +
        ceil(log2(max_panels / initial_panels)) + 1`` regardless of
        inputs, the retry rung's budget never exceeds the plain rung's,
        and the panel counts grow strictly until they clear
        ``min(max_panels, n_rows)``.
        """
        yield "plain", budget, 0
        yield "retry", max(1, int(budget * self.retry_budget_factor)), 0
        k = self.initial_panels
        while k <= min(self.max_panels, max(2, n_rows)):
            yield "panels", budget, k
            k *= 2

    # backward-compatible private spelling
    _ladder = ladder_rungs

    def _attempt(self, algo, A, B, p, device, matrix_name, faults, rep,
                 strategy, budget, panels):
        try:
            if panels:
                result = self._chunked(algo, A, B, p, device, matrix_name,
                                       faults, panels, rep)
            else:
                result = algo.multiply(A, B, precision=p, device=device,
                                       matrix_name=matrix_name, faults=faults)
        except RECOVERABLE as e:
            rep.faults_seen += 1
            rep.injected_faults += bool(getattr(e, "injected", False))
            partial = getattr(e, "report", None)
            rep.attempts.append(AttemptRecord(
                algorithm=algo.name, strategy=strategy, budget_bytes=budget,
                panels=panels, ok=False, error=str(e),
                injected=bool(getattr(e, "injected", False)),
                peak_bytes=partial.peak_bytes if partial else 0))
            return None, e
        rep.attempts.append(AttemptRecord(
            algorithm=algo.name, strategy=strategy, budget_bytes=budget,
            panels=panels, ok=True, peak_bytes=result.report.peak_bytes))
        return result, None

    def _chunked(self, algo, A, B, p, device, matrix_name, faults,
                 n_panels, rep) -> SpGEMMResult:
        """Multiply panel-by-panel and concatenate the CSR output."""
        panels = split_row_panels(count_products(A, B), n_panels)
        if len(panels) <= 1:
            return algo.multiply(A, B, precision=p, device=device,
                                 matrix_name=matrix_name, faults=faults)
        parts, reports, peaks = [], [], []
        base = matrix_name or "matrix"
        for i, (lo, hi) in enumerate(panels):
            r = algo.multiply(A.row_panel(lo, hi), B, precision=p,
                              device=device,
                              matrix_name=f"{base}[{i + 1}/{len(panels)}]",
                              faults=faults)
            parts.append(r.matrix)
            reports.append(r.report)
            peaks.append(r.report.peak_bytes)
        rep.panels_used = len(panels)
        rep.panel_peaks = peaks
        C = CSRMatrix.vstack(parts)
        report = merge_panel_reports(
            reports, algorithm=f"{algo.name}+{len(panels)}panels",
            matrix_name=base)
        return SpGEMMResult(matrix=C, report=report)
