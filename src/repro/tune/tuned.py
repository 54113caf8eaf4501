"""``TunedSpGEMM`` -- the autotuning wrapper that ``tune=True`` builds.

Wraps a registry algorithm or a ready runner (default: the proposal);
before each multiply it sketches the instance, consults the tuning
store, runs the search on a miss, injects
the winning :class:`~repro.core.params.ParamOverrides` through the
:meth:`~repro.base.SpGEMMAlgorithm.apply_param_overrides` protocol and
annotates the run report with ``tune_*`` events (timestamped 0.0 at the
front of the stream, like the engine's cache-miss marker: the decision
happened before the run's clock started).

Inner algorithms that decline the overrides (the baselines have no
Table I space) pass through untouched, with a ``tune_miss`` event naming
the reason -- so ``tune=True`` is safe over the whole registry.
"""

from __future__ import annotations

from repro.base import SpGEMMAlgorithm, SpGEMMResult
from repro.core.params import ParamOverrides
from repro.gpu.device import P100, DeviceSpec
from repro.gpu.faults import FaultPlan
from repro.obs import events as OBS
from repro.obs.events import Event
from repro.sparse.csr import CSRMatrix
from repro.tune.store import TuningStore
from repro.tune.tuner import DEFAULT_TOP_K, Autotuner, TuneResult
from repro.types import Precision


class TunedSpGEMM(SpGEMMAlgorithm):
    """Autotuning front over an inner algorithm (default: the proposal)."""

    name = "tune"
    supports_plan_cache = False

    def __init__(self, *,
                 algorithm: "str | SpGEMMAlgorithm" = "proposal",
                 store: TuningStore | None = None,
                 store_path: str | None = None,
                 top_k: int = DEFAULT_TOP_K, **algo_options) -> None:
        from repro.baselines import registry

        self.store = store if store is not None else TuningStore(store_path)
        self.top_k = top_k
        if isinstance(algorithm, SpGEMMAlgorithm):
            # a ready runner, possibly engine- or resilience-wrapped
            self.inner: SpGEMMAlgorithm = algorithm
            self.algorithm = algorithm.name
        else:
            self.algorithm = algorithm
            self.inner = registry.create(algorithm, **algo_options)

    def apply_param_overrides(self, overrides: ParamOverrides) -> bool:
        """Forward externally-supplied overrides to the inner algorithm."""
        return self.inner.apply_param_overrides(overrides)

    def _events(self, result: TuneResult | None, device: DeviceSpec,
                applied: bool, reason: str = "") -> list[Event]:
        """The ``tune_*`` prologue for one multiply."""
        if result is None:
            return [Event(ts=0.0, kind=OBS.TUNE_MISS, name="",
                          attrs={"device": device.name, "reason": reason})]
        events = []
        if result.from_cache:
            events.append(Event(
                ts=0.0, kind=OBS.TUNE_HIT, name=result.digest,
                attrs={"device": device.name, "speedup": result.speedup}))
        else:
            events.append(Event(
                ts=0.0, kind=OBS.TUNE_MISS, name=result.digest,
                attrs={"device": device.name}))
            events.append(Event(
                ts=0.0, kind=OBS.TUNE_SEARCH, name=result.digest,
                attrs={"candidates": result.candidates,
                       "measured": result.measured,
                       "default_us": result.default_seconds * 1e6,
                       "tuned_us": result.tuned_seconds * 1e6}))
        if applied:
            events.append(Event(
                ts=0.0, kind=OBS.TUNE_APPLY, name=result.digest,
                attrs={"overrides": result.overrides.describe(),
                       "speedup": result.speedup,
                       "validated": result.validated}))
        return events

    def multiply(self, A: CSRMatrix, B: CSRMatrix, *,
                 precision: Precision | str = Precision.DOUBLE,
                 device: DeviceSpec = P100,
                 matrix_name: str = "",
                 faults: FaultPlan | None = None) -> SpGEMMResult:
        """Tune (or reuse a tuned config), then run the inner algorithm.

        The search's probe multiplies always run fault-free: a
        :class:`~repro.gpu.faults.FaultPlan` applies to the *final* run
        only, so injected failures cannot corrupt stored configs.
        """
        from repro.backend import backend_for_spec

        A2, B2, p = self._prepare(A, B, precision)

        # probe each of the device backend's tuning families with its own
        # param type: the first one the inner accepts owns the search (an
        # algorithm declines foreign types, so a hash inner lands on the
        # Table I space and a tile inner on the tile space); an algorithm
        # of another backend declines them all, which is exactly "not
        # tunable on this device"
        family = next(
            (fam for fam in backend_for_spec(device).tuning_families(device)
             if self.inner.apply_param_overrides(fam.default_overrides())),
            None)
        if family is None:
            result, applied, reason = None, False, "inner not tunable"
        else:
            tuner = Autotuner(device, p, store=self.store, top_k=self.top_k,
                              family=family)
            result = tuner.tune(A2, B2, matrix_name=matrix_name)
            applied = self.inner.apply_param_overrides(result.overrides)
            reason = ""

        res = self.inner.multiply(A2, B2, precision=p, device=device,
                                  matrix_name=matrix_name, faults=faults)
        if OBS.observed_default():
            res.report.events[:0] = self._events(result, device, applied,
                                                 reason)
        return res

    def last_overrides(self) -> ParamOverrides:
        """The overrides currently applied to the inner algorithm (for
        introspection; default when nothing was tuned yet).  CPU inners
        carry :class:`~repro.cpu.params.CPUParams` instead."""
        ov = getattr(self.inner, "overrides", None)
        if ov is None:
            ov = getattr(self.inner, "params", None)
        return ov or ParamOverrides()
