"""Common SpGEMM algorithm interface and the per-run simulation context.

Every algorithm -- the paper's proposal and the three baselines -- derives
from :class:`SpGEMMAlgorithm` and drives a :class:`RunContext`, which owns
the simulated clock, the device-memory allocator, the phase breakdown and
the kernel records.  The context enforces a uniform accounting discipline:
*all* device time comes from the scheduler or the malloc model, and *all*
device memory goes through the tracked allocator.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.backend import backend_for_name, backend_for_spec
from repro.errors import AlgorithmError, ReproError, ShapeMismatchError
from repro.gpu.device import P100, DeviceSpec
from repro.gpu.faults import FaultPlan
from repro.gpu.kernel import KernelLaunch
from repro.gpu.memory import Allocation, DeviceMemory
from repro.gpu.timeline import PHASES, KernelRecord, SimReport
from repro.obs import events as OBS
from repro.obs.events import Event, EventBus
from repro.sparse.csr import CSRMatrix
from repro.types import Precision

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.resilient import ResilienceReport


@dataclass
class SpGEMMResult:
    """Output of one simulated SpGEMM run.

    ``resilience`` is attached by
    :class:`~repro.core.resilient.ResilientSpGEMM` and is ``None`` for a
    plain single-attempt run.
    """

    matrix: CSRMatrix
    report: SimReport
    resilience: "ResilienceReport | None" = field(default=None)


class RunContext:
    """Clock + memory + timeline for one algorithm run.

    The context is a context manager: leaving the ``with`` block -- by any
    path, including a raised :class:`~repro.errors.ReproError` -- releases
    every live device allocation, so no algorithm can leak simulated
    memory.  On the exception path a coherent partial
    :class:`~repro.gpu.timeline.SimReport` (``complete=False``) and the
    context itself are attached to the error as ``.report`` and
    ``.run_context`` for diagnostics and recovery logic.
    """

    def __init__(self, algorithm: str, matrix_name: str, device: DeviceSpec,
                 precision: Precision, *, charge_time: bool = True,
                 faults: FaultPlan | None = None,
                 numeric_only: bool = False,
                 observed: bool | None = None) -> None:
        self.algorithm = algorithm
        self.matrix_name = matrix_name
        self.device = device
        #: the hardware backend owning this spec, resolved once: all
        #: kernel time flows through its scheduler
        self.backend = backend_for_spec(device)
        self.precision = precision
        self.faults = faults
        #: True for a plan-cache replay: the context then refuses any
        #: symbolic work ('setup'/'count' kernels), turning "a cache hit
        #: skips the symbolic phase" from a convention into an invariant.
        self.numeric_only = numeric_only
        #: False skips all event construction (the throughput fast path:
        #: no trace sink or metrics registry is reading the stream, so
        #: nothing is built).  ``None`` inherits the ambient default of
        #: :func:`repro.obs.events.observe_runs` -- True unless a caller
        #: opted out.  Checked once per phase/charge, never per element.
        self.observed = (OBS.observed_default() if observed is None
                         else bool(observed))
        self.events = EventBus()
        self.memory = DeviceMemory(device, charge_time=charge_time,
                                   faults=faults,
                                   observer=self._on_memory_event)
        self.clock = 0.0
        self.phase_seconds: dict[str, float] = {p: 0.0 for p in PHASES}
        self.kernels: list[KernelRecord] = []
        # running result statistics, so an aborted run still reports what
        # it knew (note_stats is called as soon as the counts exist)
        self.n_products = 0
        self.nnz_out = 0
        self.leaked_on_abort: list[Allocation] = []
        # fault events fired before this context existed belong to an
        # earlier attempt sharing the plan (the resilience ladder)
        self._fault_base = len(faults.fired) if faults is not None else 0

    # -- observability -----------------------------------------------------

    def emit(self, kind: str, name: str, **attrs) -> Event | None:
        """Publish one event at the current simulated time.

        Returns ``None`` (and builds nothing) on an unobserved context.
        """
        if not self.observed:
            return None
        return self.events.emit(kind, name, self.clock, **attrs)

    def emit_each(self, kind: str, name: str, records: "list[dict]") -> None:
        """Publish one event per attrs dict, all at the current time.

        The batched form core code uses instead of calling :meth:`emit`
        inside a loop (``tools/check_emit_loops.py`` enforces that): the
        observed check happens once, not per record.
        """
        if not self.observed:
            return
        for attrs in records:
            self.events.emit(kind, name, self.clock, **attrs)

    def _on_memory_event(self, event, peak: int) -> None:
        """DeviceMemory observer: mirror alloc/free traffic onto the bus.

        Fires *before* any time is charged for the operation, so the
        timestamp is the start of the (possibly zero-length) charge.
        """
        if not self.observed:
            return
        self.events.emit(event.kind, event.name, self.clock,
                         nbytes=event.nbytes, in_use=event.in_use_after,
                         peak=peak)

    def _charge(self, phase: str, seconds: float, source: str,
                detail: str) -> None:
        """Advance the clock and publish the matching ``charge`` event.

        All simulated time flows through here, so summing the charge
        events of a phase reproduces ``phase_seconds`` exactly (on an
        unobserved context only the clock advances).
        """
        if self.observed:
            self.events.emit(OBS.CHARGE, phase, self.clock, seconds=seconds,
                             source=source, detail=detail)
        self.clock += seconds
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    # -- memory ------------------------------------------------------------

    def alloc(self, name: str, nbytes: int, *, phase: str = "malloc") -> Allocation:
        """``cudaMalloc``: tracked for peak/OOM and charged to ``phase``.

        The paper's breakdown attributes allocation cost either to 'setup'
        (working arrays allocated while grouping) or to 'malloc' (the
        output matrix); pass ``phase`` accordingly.
        """
        before = self.memory.malloc_seconds
        a = self.memory.alloc(name, nbytes)
        self._charge(phase, self.memory.malloc_seconds - before, "malloc",
                     name)
        return a

    def alloc_resident(self, name: str, nbytes: int) -> Allocation:
        """Account an input matrix already resident on the device: counts
        toward peak memory but costs no time."""
        before_m, before_f = self.memory.malloc_seconds, self.memory.free_seconds
        a = self.memory.alloc(name, nbytes)
        # roll back the simulated allocation cost: the data was uploaded
        # before the measured region, as in the paper's methodology
        self.memory.malloc_seconds = before_m
        self.memory.free_seconds = before_f
        return a

    def free(self, allocation: Allocation) -> None:
        """``cudaFree``: charged to the 'malloc' phase."""
        before = self.memory.free_seconds
        self.memory.free(allocation)
        self._charge("malloc", self.memory.free_seconds - before, "free",
                     allocation.name)

    # -- kernels -----------------------------------------------------------

    def run(self, phase: str, kernels: list[KernelLaunch], *,
            use_streams: bool = True) -> float:
        """Simulate ``kernels`` (concurrently, stream-aware) and advance the
        clock; the sub-phase's wall time is charged to ``phase``."""
        if self.numeric_only and phase in ("setup", "count"):
            raise AlgorithmError(
                f"numeric-only replay attempted {phase!r}-phase kernels "
                f"({', '.join(k.name for k in kernels)})")
        if not kernels:
            return 0.0
        sched = self.backend.simulate_phase(
            kernels, self.device, self.precision, start_time=self.clock,
            use_streams=use_streams, faults=self.faults)
        dt = sched.end - self.clock
        self._charge(phase, dt, "kernels",
                     f"{len(sched.records)} kernels")
        self.clock = sched.end   # exact, avoids start + dt round-off
        self.kernels.extend(sched.records)
        if not self.observed:
            return dt
        batch = []
        for r in sched.records:
            batch.append(Event(ts=r.start, kind=OBS.KERNEL_LAUNCH,
                               name=r.name,
                               attrs={"phase": r.phase, "stream": r.stream,
                                      "n_blocks": r.n_blocks}))
            batch.append(Event(ts=r.end, kind=OBS.KERNEL_RETIRE, name=r.name,
                               attrs={"phase": r.phase, "stream": r.stream,
                                      "seconds": r.duration,
                                      "block_seconds": r.block_seconds}))
        self.events.emit_batch(batch)
        return dt

    def host_sync(self, phase: str, seconds: float = 10e-6) -> None:
        """A host-device synchronization (e.g. reading a count back to size
        an allocation).  Every real library in the comparison has at least
        one between its phases; charged to ``phase``."""
        self._charge(phase, seconds, "sync", "host_sync")

    # -- report ------------------------------------------------------------

    def note_stats(self, *, n_products: int, nnz_out: int) -> None:
        """Record result statistics as soon as they are known, so partial
        reports on the abort path carry them."""
        self.n_products = int(n_products)
        self.nnz_out = int(nnz_out)

    def report(self, *, n_products: int | None = None,
               nnz_out: int | None = None, complete: bool = True) -> SimReport:
        """Finalize the run into a :class:`SimReport`."""
        if n_products is not None:
            self.n_products = int(n_products)
        if nnz_out is not None:
            self.nnz_out = int(nnz_out)
        return SimReport(
            algorithm=self.algorithm,
            matrix=self.matrix_name,
            precision=self.precision.value,
            device=self.device.name,
            n_products=self.n_products,
            nnz_out=self.nnz_out,
            total_seconds=self.clock,
            phase_seconds=dict(self.phase_seconds),
            peak_bytes=self.memory.peak,
            malloc_count=self.memory.n_allocs,
            kernels=self.kernels,
            # the live list on purpose: the teardown events of __exit__
            # (and any injected-fault postmortem) stay visible through a
            # report returned from inside the with block
            events=self.events.events,
            complete=complete,
            numeric_only=self.numeric_only,
        )

    # -- context manager: exception-safe teardown ---------------------------

    def __enter__(self) -> "RunContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Release all device memory on every exit path.

        On an exception, the allocations a non-exception-safe run would
        have leaked are kept in :attr:`leaked_on_abort`, and -- when the
        exception is a :class:`ReproError` -- a partial report plus this
        context are attached to it.
        """
        if exc is not None:
            self._emit_new_faults()
            self.emit(OBS.RUN_ABORT, self.algorithm,
                      error=type(exc).__name__)
            self.leaked_on_abort = self.memory.release_all()
            if isinstance(exc, ReproError):
                exc.report = self.report(complete=False)
                exc.run_context = self
        else:
            self._emit_new_faults()
            self.memory.release_all()
        return False

    def _emit_new_faults(self) -> None:
        """Mirror FaultPlan rules that fired during this context."""
        if self.faults is None:
            return
        for fe in self.faults.fired[self._fault_base:]:
            self.emit(OBS.FAULT, fe.site, rule=fe.rule, fault_kind=fe.kind,
                      site=fe.site)
        self._fault_base = len(self.faults.fired)


class SpGEMMAlgorithm(abc.ABC):
    """Interface shared by the proposal and the baselines."""

    #: short identifier used in benchmark tables ('proposal', 'cusp', ...)
    name: str = "abstract"

    #: registry name of the hardware backend this algorithm targets; a
    #: multiply handed a foreign spec coerces it via :meth:`_native_spec`
    backend_name: str = "gpu"

    #: True when the algorithm can capture an :class:`repro.engine.plan.
    #: SpGEMMPlan` on a cold run and replay it numeric-only (the plan
    #: cache of :class:`repro.engine.SpGEMMEngine` only fronts such
    #: algorithms; everything else passes through uncached).
    supports_plan_cache: bool = False

    @abc.abstractmethod
    def multiply(self, A: CSRMatrix, B: CSRMatrix, *,
                 precision: Precision | str = Precision.DOUBLE,
                 device: DeviceSpec = P100,
                 matrix_name: str = "",
                 faults: FaultPlan | None = None) -> SpGEMMResult:
        """Compute ``C = A @ B`` functionally and return it with the
        simulated performance report.

        Raises :class:`~repro.errors.DeviceMemoryError` when the
        algorithm's working set exceeds the device (Table III's "-"), or
        when the optional ``faults`` plan injects a failure.  Either way
        the run context guarantees no device allocation stays live.
        """

    def apply_param_overrides(self, overrides) -> bool:
        """Adopt tuned :class:`~repro.core.params.ParamOverrides`.

        Returns ``True`` when the algorithm (or a wrapped inner one)
        consumed the overrides; the base implementation declines, so the
        autotuner knows the baselines have no Table I parameter space to
        tune.  Implementations must fold adopted overrides into their
        plan-cache switches.
        """
        return False

    # -- shared helpers ------------------------------------------------------

    def _native_spec(self, device: DeviceSpec):
        """Coerce ``device`` onto this algorithm's own backend.

        A registry-wide sweep (or a cross-architecture fallback chain)
        may hand a GPU spec to a CPU algorithm and vice versa; the
        algorithm then runs on its backend's default preset instead of
        mis-costing foreign hardware.  Native specs pass through
        untouched.
        """
        backend = backend_for_name(self.backend_name)
        if isinstance(device, backend.spec_type):
            return device
        return backend.default_preset

    @staticmethod
    def _prepare(A: CSRMatrix, B: CSRMatrix,
                 precision: Precision | str) -> tuple[CSRMatrix, CSRMatrix, Precision]:
        """Validate shapes and cast operands to the requested precision.

        ``A @ A`` stays one operand: it is cast once and ``B is A`` holds
        after the cast, so the algorithms keep one resident copy."""
        if A.n_cols != B.n_rows:
            raise ShapeMismatchError(
                f"cannot multiply {A.shape} by {B.shape}")
        p = Precision.parse(precision)
        square = B is A
        if A.dtype != p.value_dtype:
            A = A.astype(p)
        if square:
            B = A
        elif B.dtype != p.value_dtype:
            B = B.astype(p)
        return A, B, p

    def context(self, matrix_name: str, device: DeviceSpec,
                precision: Precision,
                faults: FaultPlan | None = None, *,
                numeric_only: bool = False) -> RunContext:
        """Fresh accounting context for one run."""
        return RunContext(self.name, matrix_name or "matrix", device,
                          precision, faults=faults,
                          numeric_only=numeric_only)
