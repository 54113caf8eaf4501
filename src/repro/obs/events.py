"""Typed, timestamped run events and the bus that collects them.

Every :class:`~repro.base.RunContext` owns an :class:`EventBus`; the
simulator layers publish onto it as the run advances, so the final
:class:`~repro.gpu.timeline.SimReport` carries a machine-readable record
of *what actually happened* -- the substrate of the Chrome-trace export,
the metrics registry and the golden-trace regression suite.

Timestamps are simulated seconds on the run's clock and are emitted in
nondecreasing order (enforced by :meth:`EventBus.emit`'s callers sorting
concurrent batches; asserted by the property-based tests).

Event kinds
-----------
``kernel_launch`` / ``kernel_retire``
    One pair per scheduled kernel; attrs: ``phase``, ``stream``,
    ``n_blocks`` and (on retire) ``seconds`` and ``block_seconds``.
``charge``
    A time charge against a phase -- the only way simulated time
    accumulates.  ``name`` is the phase; attrs: ``seconds``, ``source``
    (``kernels`` | ``sync`` | ``malloc`` | ``free``) and ``detail`` (the
    sub-phase's kernel set or the buffer name).  Summing ``seconds`` over
    the charges of a phase reproduces ``SimReport.phase_seconds`` exactly
    (the metrics-conservation property).
``alloc`` / ``free``
    Device-memory traffic; attrs: ``nbytes``, ``in_use``, ``peak``.
    Teardown frees (end of the ``with`` block, including the abort path)
    appear here too, so allocated minus freed bytes is zero at run exit.
``grouping``
    One per non-empty row group per grouping pass; ``name`` is the stage
    (``symbolic`` | ``numeric``); attrs: ``group``, ``assign``, ``rows``
    and the count range covered.
``hash_stats``
    Hash-table occupancy per group and stage; attrs: ``group``,
    ``tables``, ``table_entries``, ``load_mean``, ``load_max``.
``fault_injected``
    A :class:`~repro.gpu.faults.FaultPlan` rule fired; attrs: ``site``,
    ``rule``, ``fault_kind``.
``run_abort``
    The context exited on an exception; attrs: ``error`` (type name).
``resilience``
    A ladder transition of :class:`~repro.core.resilient.ResilientSpGEMM`;
    ``name`` is the strategy (``plain`` | ``retry`` | ``panels``); attrs:
    ``algorithm``, ``panels``, ``budget_bytes``, ``ok``, ``error``,
    ``injected``.
``cache_hit`` / ``cache_miss`` / ``cache_evict``
    Plan-cache traffic of :class:`~repro.engine.SpGEMMEngine`; ``name`` is
    the plan's pattern digest.  A ``cache_hit`` opens a numeric-only
    replay (attrs: ``algorithm``, ``saved_seconds`` -- the symbolic+setup
    component the plan amortizes away -- and ``plan_bytes``); a
    ``cache_miss`` marks a cold run whose symbolic outcome was captured;
    a ``cache_evict`` records an LRU eviction under the cache's
    device-memory budget (attrs: ``plan_bytes``, ``reason``).
``comm_transfer``
    One interconnect transfer of :class:`~repro.dist.DistSpGEMM`;
    ``name`` is the direction (``broadcast`` | ``gather`` | ``detect``,
    the last being the control-plane round that discovers a lost
    device); attrs:
    ``device``, ``nbytes``, ``seconds`` (link occupancy -- the wall-clock
    cost is the matching ``charge`` with source ``comm``, which can be
    smaller when p2p links run in parallel), ``link`` (interconnect
    preset) and ``cached`` (a broadcast skipped or reduced by the
    resident-operand cache).
``dist_panel``
    One row panel retired by a pool device; ``name`` is the device id;
    attrs: ``lo``, ``hi``, ``rows``, ``n_products``, ``nnz_out``,
    ``seconds`` (that device's span of the concurrent compute wave) and
    ``critical`` (True for the device defining the wave's wall time).
``device_lost``
    A pool device dropped out (a :class:`~repro.gpu.faults.FaultPlan`
    device rule fired); ``name`` is the device id; attrs: ``rule``,
    ``survivors``.
``serve_submit`` / ``serve_admit`` / ``serve_reject`` / ``serve_timeout`` /
``serve_retry`` / ``serve_degrade`` / ``serve_coalesce`` / ``serve_breaker`` /
``serve_done``
    Lifecycle of one job through :class:`~repro.serve.SpGEMMServer`
    (timestamps are host seconds on the *server's* clock, not a device
    run's simulated clock; the two never share a stream).  ``name`` is
    the tenant.  ``serve_submit`` opens every submission (attrs: ``job``,
    ``digest``, ``estimate_bytes``, ``deadline_s``); ``serve_admit``
    marks dispatch to a worker (attrs: ``job``, ``queue_wait_s``,
    ``queue_depth``, ``in_flight_bytes``); ``serve_reject`` is shed load
    (attrs: ``job``, ``reason`` -- ``overloaded`` | ``circuit_open``);
    ``serve_timeout`` is a deadline expiry (attrs: ``job``,
    ``waited_s``); ``serve_retry`` one backoff attempt (attrs: ``job``,
    ``attempt``, ``backoff_s``, ``error``); ``serve_degrade`` a
    downgrade to chunked/fallback execution (attrs: ``job``, ``reason``
    -- ``over_budget`` | ``memory_pressure`` | ``queue_pressure`` |
    ``retry_exhausted``); ``serve_coalesce`` a follower attached to an
    identical in-flight job (attrs: ``job``, ``leader``);
    ``serve_breaker`` a breaker transition (attrs: ``state``, ``from``);
    ``serve_done`` closes every admitted job (attrs: ``job``,
    ``outcome`` -- ``completed`` | ``failed`` -- ``error``,
    ``modeled_seconds``, ``latency_s``, ``attempts``, ``degraded``,
    ``coalesced``).  The conservation law
    :func:`~repro.obs.metrics.check_serve_conservation` pins submissions
    against these outcomes.
``estimate_sample`` / ``estimate_bound`` / ``estimate_recover``
    The estimated symbolic phase (``symbolic='estimate'``; only emitted
    on estimate-mode runs, so exact-mode traces -- including every
    golden -- are unchanged).  ``estimate_sample`` records one sampling
    pass (``name`` is the matrix; attrs: ``samples``, ``margin``,
    ``seed``, ``sampled_rows``, ``exact_rows``); ``estimate_bound`` the
    resulting per-row bounds (attrs: ``rows``, ``within``,
    ``overalloc_nnz`` -- the slack the bounds allocate above the true
    output); ``estimate_recover`` the exact global-table recount of
    bound-violating rows (attrs: ``rows``, ``table_bytes``; absent when
    no bound was violated).  The conservation law
    :func:`~repro.obs.metrics.check_estimate_conservation` pins
    estimated rows against within-bound plus recovered.
``tune_hit`` / ``tune_miss`` / ``tune_search`` / ``tune_apply``
    Autotuner traffic of :class:`~repro.tune.TunedSpGEMM`; ``name`` is
    the sketch digest keying the tuning store.  A ``tune_hit`` reuses a
    stored config (attrs: ``device``, ``speedup``); a ``tune_miss``
    precedes a fresh search (attrs: ``device``, or ``reason`` when the
    inner algorithm exposes no tunable parameters); ``tune_search``
    summarizes that search (attrs: ``candidates``, ``measured``,
    ``default_us``, ``tuned_us``); ``tune_apply`` records the adopted
    config (attrs: ``overrides`` -- its compact string form --
    ``speedup``, ``validated``).
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

#: Ambient default for :attr:`repro.base.RunContext.observed`.  True --
#: the status quo -- keeps every run fully traced; flipping it to False
#: (via :func:`observe_runs`) makes contexts created underneath skip all
#: event construction, the zero-overhead path for throughput-bound
#: callers that attach no trace sink or metrics registry.  A context
#: variable, so the serving layer can disable observability per worker
#: thread without touching global state.
_OBSERVED_DEFAULT = contextvars.ContextVar("repro_observed_default",
                                           default=True)


def observed_default() -> bool:
    """The ambient observability default for new run contexts."""
    return _OBSERVED_DEFAULT.get()


@contextlib.contextmanager
def observe_runs(flag: bool):
    """Scope the ambient observability default to ``flag``.

    ``with observe_runs(False): ...`` runs every multiply underneath on
    the event-free fast path (reports carry an empty event list; modeled
    clocks, phase breakdowns and results are unchanged)."""
    token = _OBSERVED_DEFAULT.set(bool(flag))
    try:
        yield
    finally:
        _OBSERVED_DEFAULT.reset(token)

KERNEL_LAUNCH = "kernel_launch"
KERNEL_RETIRE = "kernel_retire"
CHARGE = "charge"
ALLOC = "alloc"
FREE = "free"
GROUPING = "grouping"
HASH_STATS = "hash_stats"
FAULT = "fault_injected"
RUN_ABORT = "run_abort"
RESILIENCE = "resilience"
CACHE_HIT = "cache_hit"
CACHE_MISS = "cache_miss"
CACHE_EVICT = "cache_evict"
COMM = "comm_transfer"
DIST_PANEL = "dist_panel"
DEVICE_LOST = "device_lost"
TUNE_HIT = "tune_hit"
TUNE_MISS = "tune_miss"
TUNE_SEARCH = "tune_search"
TUNE_APPLY = "tune_apply"
SERVE_SUBMIT = "serve_submit"
SERVE_ADMIT = "serve_admit"
SERVE_REJECT = "serve_reject"
SERVE_TIMEOUT = "serve_timeout"
SERVE_RETRY = "serve_retry"
SERVE_DEGRADE = "serve_degrade"
SERVE_COALESCE = "serve_coalesce"
SERVE_BREAKER = "serve_breaker"
SERVE_DONE = "serve_done"
ESTIMATE_SAMPLE = "estimate_sample"
ESTIMATE_BOUND = "estimate_bound"
ESTIMATE_RECOVER = "estimate_recover"

#: The serving-layer kinds as a family (metrics/export route them together).
SERVE_KINDS = (SERVE_SUBMIT, SERVE_ADMIT, SERVE_REJECT, SERVE_TIMEOUT,
               SERVE_RETRY, SERVE_DEGRADE, SERVE_COALESCE, SERVE_BREAKER,
               SERVE_DONE)

#: The estimated-symbolic-phase kinds as a family.
ESTIMATE_KINDS = (ESTIMATE_SAMPLE, ESTIMATE_BOUND, ESTIMATE_RECOVER)

#: All kinds the pipeline emits (exporters treat unknown kinds as opaque).
EVENT_KINDS = (KERNEL_LAUNCH, KERNEL_RETIRE, CHARGE, ALLOC, FREE, GROUPING,
               HASH_STATS, FAULT, RUN_ABORT, RESILIENCE, CACHE_HIT,
               CACHE_MISS, CACHE_EVICT, COMM, DIST_PANEL, DEVICE_LOST,
               TUNE_HIT, TUNE_MISS, TUNE_SEARCH,
               TUNE_APPLY) + SERVE_KINDS + ESTIMATE_KINDS

#: ``source`` values a ``charge`` event may carry.  ``comm`` charges are
#: interconnect wall time; ``devices`` charges are the critical-path
#: decomposition of a concurrent multi-device compute wave.
CHARGE_SOURCES = ("kernels", "sync", "malloc", "free", "comm", "devices")


@dataclass
class Event:
    """One observability event.

    ``attrs`` values are JSON-representable scalars (str/int/float/bool),
    so every event round-trips through the Chrome-trace export.
    """

    ts: float                  #: simulated seconds on the run clock
    kind: str                  #: one of :data:`EVENT_KINDS`
    name: str                  #: kernel/buffer/phase/stage name
    attrs: dict[str, Any] = field(default_factory=dict)

    def shifted(self, offset: float) -> "Event":
        """Copy with the timestamp moved by ``offset`` (panel merging)."""
        return Event(ts=self.ts + offset, kind=self.kind, name=self.name,
                     attrs=dict(self.attrs))


class EventBus:
    """Ordered collector of :class:`Event`.

    The bus is passive storage.  Callers emitting a batch of concurrent
    events (e.g. the kernel records of one phase) hand it over in one
    call, which sorts it by timestamp so the stream stays nondecreasing.
    """

    def __init__(self) -> None:
        self.events: list[Event] = []

    # -- publishing --------------------------------------------------------

    def emit(self, kind: str, name: str, ts: float, **attrs: Any) -> Event:
        """Append one event; returns the event."""
        event = Event(ts=float(ts), kind=kind, name=name, attrs=attrs)
        self.events.append(event)
        return event

    def emit_batch(self, batch: Iterable[Event]) -> None:
        """Append a batch of events sorted by timestamp (stable)."""
        self.events.extend(sorted(batch, key=lambda e: e.ts))

    # -- reading -----------------------------------------------------------

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


def is_nondecreasing(events: Iterable[Event]) -> bool:
    """True when the event timestamps never move backwards."""
    prev = float("-inf")
    for e in events:
        if e.ts < prev:
            return False
        prev = e.ts
    return True
