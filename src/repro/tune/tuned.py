"""``TunedSpGEMM`` -- the autotuning wrapper that ``tune=True`` builds.

Wraps a registry algorithm or a ready runner (default: the proposal);
before each multiply it sketches the instance, consults the tuning
store, runs the search on a miss, sets the winning parameters on the
runner chain's leaf -- reached by following ``.inner``
(:func:`~repro.base.leaf_of`) -- and annotates the run report with
``tune_*`` events (timestamped 0.0 at the front of the stream, like the
engine's cache-miss marker: the decision happened before the run's
clock started).

A leaf without a tuning family on the device (the baselines have no
param type; a CPU leaf has none on a GPU) runs untouched, with a
``tune_miss`` event naming the reason -- so ``tune=True`` is safe over
the whole registry.
"""

from __future__ import annotations

from repro.base import SpGEMMAlgorithm, SpGEMMResult, leaf_of
from repro.core.params import ParamOverrides
from repro.gpu.device import P100, DeviceSpec
from repro.gpu.faults import FaultPlan
from repro.obs import events as OBS
from repro.obs.events import Event
from repro.sparse.csr import CSRMatrix
from repro.tune.store import TuningStore
from repro.tune.tuner import Autotuner, TuneResult, tuning_family
from repro.types import Precision


class TunedSpGEMM(SpGEMMAlgorithm):
    """Autotuning front over an inner algorithm (default: the proposal)."""

    name = "tune"

    def __init__(self, *,
                 algorithm: "str | SpGEMMAlgorithm" = "proposal",
                 store: TuningStore | None = None,
                 store_path: str | None = None, **algo_options) -> None:
        from repro.baselines import registry

        self.store = store if store is not None else TuningStore(store_path)
        if isinstance(algorithm, SpGEMMAlgorithm):
            # a ready runner, possibly engine- or resilience-wrapped
            self.inner: SpGEMMAlgorithm = algorithm
            self.algorithm = algorithm.name
        else:
            self.algorithm = algorithm
            self.inner = registry.create(algorithm, **algo_options)

    def _events(self, result: TuneResult | None,
                device: DeviceSpec) -> list[Event]:
        """The ``tune_*`` prologue for one multiply."""
        if result is None:
            return [Event(ts=0.0, kind=OBS.TUNE_MISS, name="",
                          attrs={"device": device.name,
                                 "reason": "inner not tunable"})]
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
        A2, B2, p = self._prepare(A, B, precision)

        leaf = leaf_of(self.inner)
        family = tuning_family(leaf, device)
        result = None
        if family is not None:
            tuner = Autotuner(device, p, store=self.store, family=family)
            result = tuner.tune(A2, B2, matrix_name=matrix_name)
            leaf.apply_param_overrides(result.overrides)

        res = self.inner.multiply(A2, B2, precision=p, device=device,
                                  matrix_name=matrix_name, faults=faults)
        if OBS.observed_default():
            res.report.events[:0] = self._events(result, device)
        return res

    def last_overrides(self):
        """The parameters of the runner chain's leaf (for introspection):
        a :class:`~repro.core.params.ParamOverrides`, ``TileParams`` or
        ``CPUParams``; the default ``ParamOverrides`` for a leaf with
        nothing to tune."""
        params = leaf_of(self.inner).params
        return ParamOverrides() if params is None else params
