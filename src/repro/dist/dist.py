"""The distributed SpGEMM driver: scatter-compute-gather over a pool.

:class:`DistSpGEMM` (what ``devices=`` on the options facade builds)
executes ``C = A @ B`` across a :class:`~repro.dist.pool.DevicePool`:

1. **partition** -- A is cut into one contiguous row panel per active
   device, balanced by modeled per-row work and the devices' bandwidth
   weights (:mod:`repro.dist.partition`);
2. **broadcast** -- B is replicated to every device over the configured
   :class:`~repro.dist.interconnect.Interconnect`.  A per-pool resident
   cache skips the transfer when the same B is multiplied again, and
   sends only the value array when the pattern is unchanged (the
   iterative-solver steady state).  A panels follow the single-device
   methodology: inputs are resident before the measured region
   (``alloc_resident``), so only the *replication* the distributed run
   adds is charged;
3. **compute wave** -- every device runs its panel through its own
   runner (a plan-cached engine by default), concurrently.  Wall time is
   the slowest device's run; it is charged per phase as that critical
   device's breakdown with source ``devices``, so the conservation laws
   stay exact;
4. **gather** -- the C panels return over the interconnect and are
   ``vstack``-ed.  Panel runs compute exactly the rows a whole-matrix
   run would, so the result is bit-identical to a single-device run of
   the same inner algorithm.

Device loss (a :meth:`~repro.gpu.faults.FaultPlan.fail_device` rule) is
detected at dispatch time, before any panel runs: the survivors are
re-partitioned and the wave retried, with the detection round charged as
a ``detect`` comm transfer and the episode recorded in a
:class:`~repro.core.resilient.ResilienceReport`.  An empty pool raises
:class:`~repro.errors.DeviceLostError`.

Transient interconnect faults (:meth:`~repro.gpu.faults.FaultPlan.
fail_comm`) fire during the broadcast: the driver retries the failed
transfer once -- charging the extra traffic as a ``retry`` comm event --
and only when the retry also fails escalates to the device-loss path
above (mark lost, repartition, rebroadcast).

The merged :class:`~repro.gpu.timeline.SimReport` keeps every device
event (kernels, allocs, grouping, plan-cache traffic) time-shifted onto
the driver's clock -- only the per-device ``charge`` events are replaced
by the driver's own, because two devices charging wall time concurrently
would double-count it.  Unobserved runs
(:func:`~repro.obs.events.observe_runs`) build none of these events; the
clock and the phase breakdown are the same either way.
"""

from __future__ import annotations

from repro.base import SpGEMMAlgorithm, SpGEMMResult, leaf_of
from repro.core.resilient import AttemptRecord, ResilienceReport
from repro.dist.interconnect import Interconnect, parse_interconnect
from repro.dist.partition import Partition, partition_rows
from repro.dist.pool import DevicePool, DeviceSlot
from repro.errors import DeviceLostError
from repro.gpu.device import P100, DeviceSpec
from repro.gpu.faults import FaultPlan
from repro.gpu.timeline import PHASES, KernelRecord, SimReport
from repro.obs import events as OBS
from repro.obs.events import Event
from repro.sparse.csr import CSRMatrix
from repro.sparse.product import operand_key
from repro.types import Precision

#: Wall time of the control-plane round that notices a dead device
#: (heartbeat timeout at interconnect scale, not a tuned figure).
LOSS_DETECT_SECONDS = 25e-6


class _CommEscalation(Exception):
    """Internal: a broadcast transfer failed twice; treat the device as
    lost and restart from dispatch (never escapes :meth:`DistSpGEMM.
    multiply`)."""

    def __init__(self, slot, fault_event) -> None:
        super().__init__(f"comm failure on {slot.device_id}")
        self.slot = slot
        self.fault_event = fault_event


class _DriverClock:
    """Minimal charge accounting for the driver itself (no device memory).

    Like a run context, it builds events only when the ambient observed
    flag (:func:`repro.obs.events.observe_runs`) is on; the clock and the
    phase breakdown advance either way.
    """

    def __init__(self) -> None:
        self.clock = 0.0
        self.phase_seconds: dict[str, float] = {p: 0.0 for p in PHASES}
        self.phase_seconds["comm"] = 0.0
        self.events: list[Event] = []
        self.observed = OBS.observed_default()

    def emit(self, kind: str, name: str, **attrs) -> None:
        if self.observed:
            self.events.append(Event(ts=self.clock, kind=kind, name=name,
                                     attrs=attrs))

    def charge(self, phase: str, seconds: float, source: str,
               detail: str) -> None:
        self.emit(OBS.CHARGE, phase, seconds=seconds, source=source,
                  detail=detail)
        self.clock += seconds
        self.phase_seconds[phase] = (self.phase_seconds.get(phase, 0.0)
                                     + seconds)


class DistSpGEMM(SpGEMMAlgorithm):
    """Multi-device SpGEMM over a simulated pool and interconnect.

    Parameters
    ----------
    n_devices:
        Pool size when no explicit ``pool`` is given; the pool is built
        lazily from the first multiply's ``device`` spec and reused, so
        per-device plan caches persist across calls.
    pool:
        A ready :class:`~repro.dist.pool.DevicePool` (heterogeneous
        pools enter here).
    interconnect:
        Preset name (``'pcie'`` | ``'nvlink'``) or an
        :class:`~repro.dist.interconnect.Interconnect` instance.
    algorithm / engine / **algo_options:
        Per-device runner: the leaf registry algorithm, whether to
        front it with a plan-cached :class:`~repro.engine.SpGEMMEngine`,
        and the inner constructor's options.
    tune / tune_store:
        ``tune=True`` autotunes each slot leaf's parameters *per device
        specification* before each compute wave -- a heterogeneous pool
        gets one search per distinct device, not one shared config --
        and sets the winning parameters on every slot's leaf; a pool of
        leaves with nothing to tune runs no search.
        ``tune_store`` is a :class:`~repro.tune.TuningStore` or a path;
        ``None`` keeps an in-memory store on this driver (repeat
        multiplies of the same pattern skip the search).
    """

    name = "dist"

    def __init__(self, *, n_devices: int = 2, pool: DevicePool | None = None,
                 interconnect: "Interconnect | str" = "pcie",
                 algorithm: "str | SpGEMMAlgorithm" = "proposal",
                 engine: bool = True,
                 tune: bool = False, tune_store=None,
                 **algo_options) -> None:
        self.n_devices = int(n_devices)
        self.interconnect = parse_interconnect(interconnect)
        self.algorithm = algorithm
        self.engine = bool(engine)
        self.tune = bool(tune)
        self._tune_store = tune_store
        self.algo_options = dict(algo_options)
        self._pool = pool
        self._resident_b: tuple[str, bytes] | None = None
        self.last_partition: Partition | None = None
        self.multiplies = 0
        self.devices_lost = 0

    # -- pool --------------------------------------------------------------

    def pool(self, device: DeviceSpec = P100) -> DevicePool:
        """The live pool, built on first use from ``device``."""
        if self._pool is None:
            self._pool = DevicePool.uniform(
                self.n_devices, device, algorithm=self.algorithm,
                engine=self.engine, **self.algo_options)
        return self._pool

    # -- the multiply ------------------------------------------------------

    def multiply(self, A: CSRMatrix, B: CSRMatrix, *,
                 precision: Precision | str = Precision.DOUBLE,
                 device: DeviceSpec = P100,
                 matrix_name: str = "",
                 faults: FaultPlan | None = None) -> SpGEMMResult:
        """Scatter-compute-gather multiply of ``A @ B`` over the pool."""
        A, B, p = self._prepare(A, B, precision)
        pool = self.pool(device)
        self.multiplies += 1
        clk = _DriverClock()
        rep: ResilienceReport | None = None

        while True:
            active, rep = self._dispatch(pool, clk, faults, rep)
            part = partition_rows(A, B, pool.weights(), p)
            self.last_partition = part

            if self.tune:
                self._tune_devices(A, B, p, active, clk)
            try:
                self._broadcast(B, p, active, clk, faults)
                break
            except _CommEscalation as esc:
                # the retry failed too: device-loss recovery from the top
                rep = self._lose_device(pool, clk, esc.slot,
                                        esc.fault_event, rep,
                                        reason="comm failure "
                                               "(retry exhausted)")

        # concurrent compute wave: one panel per device, wall time is the
        # slowest device's run
        wave_start = clk.clock
        panel_runs: list[tuple[DeviceSlot, tuple[int, int], SpGEMMResult]] = []
        for slot, (lo, hi) in zip(active, part.panels):
            if hi <= lo:
                continue
            r = slot.runner.multiply(
                A.row_panel(lo, hi), B, precision=p, device=slot.spec,
                matrix_name=f"{matrix_name or 'matrix'}@{slot.device_id}",
                faults=faults)
            panel_runs.append((slot, (lo, hi), r))

        crit = max((r.report.total_seconds for _, _, r in panel_runs),
                   default=0.0)
        crit_slot = next((s for s, _, r in panel_runs
                          if r.report.total_seconds == crit), None)
        device_events: list[Event] = []
        kernels: list[KernelRecord] = []
        for slot, (lo, hi), r in panel_runs:
            kernels.extend(k.shifted(wave_start, device=slot.device_id)
                           for k in r.report.kernels)
            if not clk.observed:
                continue
            for e in r.report.events:
                # the driver's own charges stand in for the concurrent
                # per-device ones (see module docstring)
                if e.kind != OBS.CHARGE:
                    device_events.append(e.shifted(wave_start))
            device_events.append(Event(
                ts=wave_start + r.report.total_seconds, kind=OBS.DIST_PANEL,
                name=slot.device_id,
                attrs={"lo": lo, "hi": hi, "rows": hi - lo,
                       "n_products": r.report.n_products,
                       "nnz_out": r.report.nnz_out,
                       "seconds": r.report.total_seconds,
                       "critical": slot is crit_slot}))
        if crit_slot is not None:
            crit_report = next(r.report for s, _, r in panel_runs
                               if s is crit_slot)
            for ph, dt in crit_report.phase_seconds.items():
                clk.charge(ph, dt, "devices",
                           f"critical device {crit_slot.device_id}")

        parts = [r.matrix for _, _, r in panel_runs]
        self._gather(parts, p, [s for s, _, _ in panel_runs], clk)

        if rep is not None:
            self._emit_resilience(clk, rep)

        C = CSRMatrix.vstack(parts) if parts \
            else CSRMatrix.empty((A.n_rows, B.n_cols), p)
        report = self._merged_report(
            matrix_name, p, pool, clk, kernels, device_events,
            panel_runs)
        return SpGEMMResult(matrix=C, report=report, resilience=rep)

    # -- stages ------------------------------------------------------------

    def _dispatch(self, pool: DevicePool, clk: _DriverClock,
                  faults: FaultPlan | None,
                  rep: ResilienceReport | None):
        """Health-check the pool; drop failed devices until it is stable.

        Losses fire at dispatch time -- before any panel runs -- so a
        retry repartitions the survivors without wasted compute.
        """
        while True:
            active = pool.active
            if not active:
                err = DeviceLostError(
                    "all pool devices lost before dispatch",
                    device_id="", injected=True)
                if rep is not None:
                    err.resilience = rep
                raise err
            lost = None
            if faults is not None:
                for slot in active:
                    fe = faults.check_device(slot.device_id)
                    if fe is not None:
                        lost = (slot, fe)
                        break
            if lost is None:
                return active, rep
            slot, fe = lost
            rep = self._lose_device(pool, clk, slot, fe, rep)

    def _lose_device(self, pool: DevicePool, clk: _DriverClock,
                     slot: DeviceSlot, fe, rep: ResilienceReport | None,
                     reason: str = "lost") -> ResilienceReport:
        """Device-loss bookkeeping: mark lost, charge the detection round,
        record the recovery attempt.  Shared by the dispatch health check
        and the broadcast comm-escalation path."""
        pool.mark_lost(slot.device_id)
        self.devices_lost += 1
        survivors = len(pool.active)
        clk.emit(OBS.DEVICE_LOST, slot.device_id, rule=fe.rule,
                 survivors=survivors)
        clk.emit(OBS.COMM, "detect", device=slot.device_id, nbytes=0,
                 seconds=LOSS_DETECT_SECONDS,
                 link=self.interconnect.name, cached=False)
        clk.charge("comm", LOSS_DETECT_SECONDS, "comm",
                   f"{slot.device_id} loss detection")
        if rep is None:
            rep = ResilienceReport()
        rep.faults_seen += 1
        rep.injected_faults += 1
        rep.attempts.append(AttemptRecord(
            algorithm=self.name, strategy="repartition",
            budget_bytes=0, panels=survivors, ok=survivors > 0,
            error=f"device {slot.device_id} {reason}", injected=True))
        rep.recovered = survivors > 0
        rep.final_algorithm = self.name
        rep.final_strategy = "repartition"
        return rep

    def _tune_devices(self, A: CSRMatrix, B: CSRMatrix, p: Precision,
                      active: list[DeviceSlot], clk: _DriverClock) -> None:
        """Autotune once per distinct device spec; apply to every slot.

        Each slot's leaf (:func:`~repro.base.leaf_of` its runner) is
        tuned in its own family (:func:`~repro.tune.tuner.
        tuning_family`), the same choice the single-device tuner makes.
        A heterogeneous pool runs one search per distinct device (the
        K40's winning config is not the VEGA56's); slots sharing a spec
        share the result.  Search probes run on the driver host against
        the full instance, off the measured clock -- only the decision
        events land on the timeline.
        """
        from repro.tune.store import TuningStore
        from repro.tune.tuner import Autotuner, TuneResult, tuning_family

        store = self._tune_store
        if store is None or isinstance(store, str):
            store = TuningStore(store)
            self._tune_store = store

        by_spec: dict[tuple[str, str], TuneResult] = {}
        for slot in active:
            spec = slot.spec
            leaf = leaf_of(slot.runner)
            family = tuning_family(leaf, spec)
            if family is None:
                continue
            res = by_spec.get((spec.name, family.family))
            if res is None:
                res = Autotuner(spec, p, store=store,
                                family=family).tune(A, B)
                by_spec[(spec.name, family.family)] = res
                if res.from_cache:
                    clk.emit(OBS.TUNE_HIT, res.digest, device=spec.name,
                             speedup=res.speedup)
                else:
                    clk.emit(OBS.TUNE_MISS, res.digest, device=spec.name)
                    clk.emit(OBS.TUNE_SEARCH, res.digest,
                             candidates=res.candidates,
                             measured=res.measured,
                             default_us=res.default_seconds * 1e6,
                             tuned_us=res.tuned_seconds * 1e6)
            leaf.apply_param_overrides(res.overrides)
            clk.emit(OBS.TUNE_APPLY, res.digest, device=slot.device_id,
                     overrides=res.overrides.describe(),
                     speedup=res.speedup, validated=res.validated)

    def _broadcast(self, B: CSRMatrix, p: Precision,
                   active: list[DeviceSlot], clk: _DriverClock,
                   faults: FaultPlan | None = None) -> None:
        """Replicate B to every active device, through the resident cache.

        A transient comm fault (:meth:`~repro.gpu.faults.FaultPlan.
        fail_comm`) on a device's transfer is retried once, charging the
        retransmission; a second fault on the same transfer raises
        :class:`_CommEscalation` so :meth:`multiply` runs device-loss
        recovery.  The resident-B cache only advances when the whole
        broadcast succeeded -- a failed round must not leave the driver
        believing B is resident.
        """
        key = operand_key(B)
        cached = False
        if self._resident_b is None:
            nbytes = B.device_bytes(p)
        elif self._resident_b == key:
            nbytes = 0
            cached = True
        elif self._resident_b[0] == key[0]:
            nbytes = B.nnz * p.value_bytes   # value-only delta
            cached = True
        else:
            nbytes = B.device_bytes(p)

        per_link = self.interconnect.transfer_seconds(nbytes)
        for slot in active:
            if faults is not None:
                fe = faults.check_comm(slot.device_id)
                if fe is not None:
                    clk.emit(OBS.COMM, "retry", device=slot.device_id,
                             nbytes=nbytes, seconds=per_link,
                             link=self.interconnect.name, cached=cached,
                             rule=fe.rule)
                    clk.charge("comm", per_link, "comm",
                               f"{slot.device_id} broadcast retry")
                    fe2 = faults.check_comm(slot.device_id)
                    if fe2 is not None:
                        raise _CommEscalation(slot, fe2)
            clk.emit(OBS.COMM, "broadcast", device=slot.device_id,
                     nbytes=nbytes, seconds=per_link,
                     link=self.interconnect.name, cached=cached)
        wall = self.interconnect.broadcast_seconds(nbytes, len(active))
        if wall > 0.0:
            clk.charge("comm", wall, "comm",
                       f"broadcast B to {len(active)} devices")
        self._resident_b = key

    def _gather(self, parts: list[CSRMatrix], p: Precision,
                slots: list[DeviceSlot], clk: _DriverClock) -> None:
        """Collect the C row panels back from the devices."""
        if not parts:
            return
        sizes = [c.device_bytes(p) for c in parts]
        for slot, nbytes in zip(slots, sizes):
            clk.emit(OBS.COMM, "gather", device=slot.device_id,
                     nbytes=nbytes,
                     seconds=self.interconnect.transfer_seconds(nbytes),
                     link=self.interconnect.name, cached=False)
        wall = self.interconnect.gather_seconds(sizes)
        if wall > 0.0:
            clk.charge("comm", wall, "comm",
                       f"gather {len(parts)} panels")

    @staticmethod
    def _emit_resilience(clk: _DriverClock, rep: ResilienceReport) -> None:
        for a in rep.attempts:
            clk.emit(OBS.RESILIENCE, a.strategy,
                     algorithm=a.algorithm, panels=a.panels,
                     budget_bytes=a.budget_bytes, ok=a.ok, error=a.error,
                     injected=a.injected)

    # -- report ------------------------------------------------------------

    def _merged_report(self, matrix_name: str, p: Precision,
                       pool: DevicePool, clk: _DriverClock,
                       kernels: list[KernelRecord],
                       device_events: list[Event],
                       panel_runs) -> SimReport:
        events = sorted(clk.events + device_events, key=lambda e: e.ts)
        reports = [r.report for _, _, r in panel_runs]
        return SimReport(
            algorithm=self.name,
            matrix=matrix_name or "matrix",
            precision=p.value,
            device=f"{pool.describe()} via {self.interconnect.name}",
            n_products=sum(r.n_products for r in reports),
            nnz_out=sum(r.nnz_out for r in reports),
            total_seconds=clk.clock,
            phase_seconds=dict(clk.phase_seconds),
            peak_bytes=max((r.peak_bytes for r in reports), default=0),
            malloc_count=sum(r.malloc_count for r in reports),
            kernels=sorted(kernels, key=lambda k: (k.start, k.device,
                                                   k.stream, k.name)),
            events=events,
            numeric_only=bool(reports) and all(r.numeric_only
                                               for r in reports),
        )

    # -- observability -----------------------------------------------------

    def dist_stats(self) -> str:
        """Multi-paragraph pool/partition/cache block (CLI ``dist-stats``)."""
        pool = self._pool
        lines = [f"dist: {self.n_devices if pool is None else len(pool)} "
                 f"device(s) via {self.interconnect.name} "
                 f"({self.interconnect.topology}, "
                 f"{self.interconnect.link_gbps:g} GB/s, "
                 f"{self.interconnect.latency_s * 1e6:g} us)"]
        if pool is None:
            lines.append("  pool not built yet (no multiply run)")
            return "\n".join(lines)
        lines.append(f"  pool: {pool.describe()}  "
                     f"multiplies {self.multiplies}  "
                     f"devices lost {self.devices_lost}")
        for s in pool.slots:
            state = "LOST" if s.lost else "ok"
            extra = ""
            if hasattr(s.runner, "cache"):
                st = s.runner.cache.stats
                extra = (f"  plan-cache hits {st.hits} misses {st.misses}")
            lines.append(f"  {s.device_id}: {s.spec.name} "
                         f"({s.spec.mem_bandwidth_gbps:g} GB/s) "
                         f"[{state}]{extra}")
        if self.last_partition is not None:
            lines.append("  last partition:")
            lines.append(self.last_partition.summary())
        return "\n".join(lines)
