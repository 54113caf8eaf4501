"""Timing records: kernels, phases, and the per-run :class:`SimReport`.

The paper's Figures 5/6 break SpGEMM execution into four parts: *setup*
(grouping and its allocations), *count* (symbolic phase), *calculation*
(numeric phase) and *cudaMalloc* of the output matrix.  Every algorithm
run produces a :class:`SimReport` carrying exactly that decomposition plus
the peak-memory figure behind Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.obs.events import Event
    from repro.obs.metrics import MetricsRegistry

#: Canonical phase names, in execution order, as used by the breakdown plots.
PHASES = ("setup", "count", "calc", "malloc")


@dataclass
class KernelRecord:
    """Scheduled timing of one kernel launch."""

    name: str
    phase: str
    stream: int
    start: float          #: seconds, first block dispatch
    end: float            #: seconds, last block completion
    n_blocks: int
    block_seconds: float  #: sum of per-block durations (device work)
    #: pool device id ("dev0", ...) for multi-device runs; "" on a
    #: single-device run, where the device column would be noise.
    device: str = ""

    @property
    def duration(self) -> float:
        """Wall-clock span of the kernel on the simulated device."""
        return self.end - self.start

    def shifted(self, offset: float, **changes) -> "KernelRecord":
        """Copy with ``start``/``end`` moved by ``offset`` (panel merging),
        plus any field ``changes``."""
        return replace(self, start=self.start + offset,
                       end=self.end + offset, **changes)


@dataclass
class SimReport:
    """Complete simulated outcome of one SpGEMM run.

    ``total_seconds`` includes kernel time and allocation time;
    ``phase_seconds`` maps each of :data:`PHASES` to its share ('malloc'
    aggregates all simulated cudaMalloc/cudaFree time, reported separately
    as in Figures 5/6).
    """

    algorithm: str
    matrix: str
    precision: str
    device: str
    n_products: int               #: intermediate products (FLOPS metric base)
    nnz_out: int
    total_seconds: float
    phase_seconds: dict[str, float]
    peak_bytes: int
    malloc_count: int
    kernels: list[KernelRecord] = field(default_factory=list)
    #: Structured observability stream (see :mod:`repro.obs.events`).  For
    #: a live run this is the run context's own event list, so the
    #: teardown events appended when the ``with`` block exits are visible
    #: through an already-returned report.
    events: "list[Event]" = field(default_factory=list)
    #: False for the partial report of a run aborted by an error (attached
    #: to the raised ReproError by the run context's exception path).
    complete: bool = True
    #: True for a plan-cache replay (numeric phase only; the symbolic
    #: outcome came from a cached :class:`repro.engine.plan.SpGEMMPlan`).
    numeric_only: bool = False

    @property
    def flops(self) -> int:
        """FLOP count under the paper's metric: twice the products."""
        return 2 * self.n_products

    @property
    def gflops(self) -> float:
        """Performance in GFLOPS = 2 * products / time (Section IV)."""
        if self.total_seconds <= 0:
            return 0.0
        return self.flops / self.total_seconds / 1e9

    def metrics(self) -> "MetricsRegistry":
        """The run's labelled metrics registry (see :mod:`repro.obs`).

        Derived deterministically from this report, so phase totals,
        kernel times and memory counters agree with the report's own
        fields by construction.
        """
        from repro.obs.metrics import metrics_from_report

        return metrics_from_report(self)

    def phase_fraction(self, phase: str) -> float:
        """Share of total time spent in ``phase``."""
        if self.total_seconds <= 0:
            return 0.0
        return self.phase_seconds.get(phase, 0.0) / self.total_seconds

    def summary(self) -> str:
        """One-line human-readable summary."""
        mib = self.peak_bytes / (1 << 20)
        return (f"{self.algorithm:<10} {self.matrix:<16} {self.precision:<6} "
                f"{self.gflops:8.3f} GFLOPS  {self.total_seconds * 1e3:9.3f} ms  "
                f"peak {mib:10.2f} MiB")
