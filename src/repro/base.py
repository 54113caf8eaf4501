"""Common SpGEMM algorithm interface and the per-run simulation context.

Every algorithm -- the paper's proposal and the three baselines -- derives
from :class:`SpGEMMAlgorithm` and drives a :class:`RunContext`, which owns
the simulated clock, the device-memory allocator, the phase breakdown and
the kernel records.  The context enforces a uniform accounting discipline:
*all* device time comes from the scheduler or the malloc model, and *all*
device memory goes through the tracked allocator.

Every leaf algorithm has one run, :meth:`SpGEMMAlgorithm._run`: it owns
the precision cast, the native device, the run context, the resident
inputs, the product with its row statistics (computed once) and the
report, so a leaf supplies only its cost plan (:meth:`SpGEMMAlgorithm.
_cost_plan`).  A plan-cache replay takes the same run with a cached
plan in place of the cost plan.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

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
from repro.sparse.product import ProductResult, product_for
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
                 precision: Precision, *,
                 faults: FaultPlan | None = None,
                 numeric_only: bool = False) -> None:
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
        #: nothing is built).  Taken from the ambient default of
        #: :func:`repro.obs.events.observe_runs` -- True unless a caller
        #: opted out.  Checked once per phase/charge, never per element.
        self.observed = OBS.observed_default()
        self.events = EventBus()
        self.memory = DeviceMemory(device, faults=faults,
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
    #: leaf run handed a foreign spec runs on this backend's default
    backend_name: str = "gpu"

    #: the tunable parameter type of a leaf (``ParamOverrides``,
    #: ``TileParams``, ``CPUParams``); ``None`` -- the baselines and every
    #: wrapper -- has nothing to tune
    param_type: type | None = None
    #: the leaf's live parameters, an instance of :attr:`param_type`
    params: Any = None

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

    def apply_param_overrides(self, params: Any) -> bool:
        """Adopt tuned parameters: the one tuning hook, defined here only.

        ``params`` is an instance of :attr:`param_type`; ``None``
        restores the defaults.  Returns ``False`` and changes nothing
        when this algorithm has no param type or ``params`` is a foreign
        one (a CPU leaf handed the GPU's ``ParamOverrides``).  Leaves
        fold :attr:`params` into their ``plan_switches()``, so adopted
        parameters re-key the plan cache.
        """
        cls = self.param_type
        if cls is None or not (params is None or isinstance(params, cls)):
            return False
        self.params = cls() if params is None else params
        return True

    def _init_params(self, params: Any) -> None:
        """Constructor form of :meth:`apply_param_overrides`: also takes
        the ``to_dict`` form, and a foreign param type raises instead of
        being declined."""
        if isinstance(params, dict):
            params = self.param_type.from_dict(params)
        if not self.apply_param_overrides(params):
            raise AlgorithmError(
                f"{self.name} takes {self.param_type.__name__} parameters, "
                f"got {type(params).__name__}")

    # -- the one leaf run ----------------------------------------------------

    def _run(self, A: CSRMatrix, B: CSRMatrix, precision: Precision | str,
             device: DeviceSpec, matrix_name: str, faults: FaultPlan | None,
             *, plan=None, capture=None) -> SpGEMMResult:
        """One leaf run, cold or replayed: every leaf's ``multiply`` and
        ``multiply_planned`` is this call.

        Casts the operands to the run precision, coerces ``device`` onto
        the leaf's backend and accounts the resident inputs.  Cold, it
        computes the product and its row statistics once and hands them
        to :meth:`_cost_plan`; a ``capture`` (a :class:`repro.engine.
        plan.PlanCapture`) then records what the leaf returned as a plan.
        Given a cached ``plan`` it replays the plan instead, on a
        ``numeric_only`` context.
        """
        A, B, p = self._prepare(A, B, precision)
        backend = backend_for_name(self.backend_name)
        if not isinstance(device, backend.spec_type):
            # a registry-wide sweep or a cross-architecture fallback may
            # hand over a foreign spec: run on this backend's default
            device = backend.default_preset
        if plan is None:
            ctx = self.context(matrix_name, device, p, faults)
        else:
            plan.validate(A, B)
            ctx = self.context(matrix_name, device, p, faults,
                               numeric_only=True)
        with ctx:
            if plan is not None:
                ctx.emit(OBS.CACHE_HIT, plan.key.label(), algorithm=self.name,
                         saved_seconds=plan.symbolic_seconds,
                         plan_bytes=plan.device_bytes())
            # input matrices are resident before the measured region
            ctx.alloc_resident("A", A.device_bytes(p))
            if B is not A:
                ctx.alloc_resident("B", B.device_bytes(p))
            if plan is not None:
                C = plan.replay(ctx, A, B, use_streams=self.use_streams)
            else:
                prod = product_for(A, B, p)
                ctx.note_stats(n_products=prod.n_products,
                               nnz_out=prod.nnz_out)
                replay = self._cost_plan(ctx, A, B, prod)
                if capture is not None:
                    capture.record(ctx, prod, **replay)
                C = prod.C
            return SpGEMMResult(matrix=C, report=ctx.report())

    def _cost_plan(self, ctx: RunContext, A: CSRMatrix, B: CSRMatrix,
                   prod: ProductResult) -> dict | None:
        """Charge one cold run's allocations, kernels and host syncs.

        ``prod`` holds ``C`` in the run precision and the row statistics
        every cost model reads; the inputs are already resident.  A leaf
        the engine can cache returns what a replay charges -- the
        ``calc_kernels``, the working buffer's ``work_name`` (``None``:
        no buffer) and ``work_bytes``, a ``records`` thunk building the
        re-emitted grouping and table records, and the ``aux_bytes`` it
        keeps device-resident beside the output structure -- as keyword
        arguments of :meth:`repro.engine.plan.PlanCapture.record`.
        """
        raise NotImplementedError

    def context(self, matrix_name: str, device: DeviceSpec,
                precision: Precision,
                faults: FaultPlan | None = None, *,
                numeric_only: bool = False) -> RunContext:
        """Fresh accounting context for one run."""
        return RunContext(self.name, matrix_name or "matrix", device,
                          precision, faults=faults,
                          numeric_only=numeric_only)

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


def leaf_of(runner: SpGEMMAlgorithm) -> SpGEMMAlgorithm:
    """The leaf algorithm at the bottom of a runner chain.

    Every wrapper (tuner, engine, resilience ladder) holds the next
    runner in ``.inner``, so the leaf -- the one object that owns tuned
    parameters -- is what following ``.inner`` reaches.
    """
    while hasattr(runner, "inner"):
        runner = runner.inner
    return runner
