"""The search: score candidates analytically, measure the best, validate.

Three stages, cheap to expensive:

1. *Score* -- every candidate :class:`~repro.core.params.ParamOverrides`
   in :func:`candidate_space` is evaluated by :func:`modeled_total`: the
   sketch's reconstructed per-row arrays are grouped and planned by the
   production planners (:func:`~repro.core.symbolic.plan_symbolic`,
   :func:`~repro.core.numeric.plan_numeric`) and the kernels costed by
   :func:`~repro.gpu.cost.kernel_duration_alone` -- concurrent streams
   modeled as the max over per-stream sums, the Group-0 retry serial.
   Infeasible candidates (a :class:`~repro.errors.DeviceConfigError` from
   the table builder) score infinity.
2. *Measure* -- the paper's default plus the :data:`DEFAULT_TOP_K`
   best-scoring candidates run a real :class:`~repro.core.spgemm.
   HashSpGEMM` multiply; the full event-scheduler figure
   (``report.total_seconds``) decides.
3. *Validate* -- the winner's output is checked against the reference
   oracle.  A tuned config that is not strictly faster than the default,
   or that fails validation, is discarded in favor of the default -- so
   ``tuned_seconds <= default_seconds`` always holds (the regression gate
   relies on this invariant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import backend_for_spec
from repro.backend.base import TuningFamily
from repro.base import SpGEMMAlgorithm
from repro.core.grouping import group_rows
from repro.core.numeric import plan_numeric
from repro.core.params import ParamOverrides, build_group_table, pow2_floor
from repro.core.symbolic import plan_symbolic
from repro.errors import AlgorithmError, DeviceConfigError
from repro.estimate import (
    DEFAULT_MARGIN,
    DEFAULT_SAMPLES,
    estimate_sample_kernel,
)
from repro.gpu.cost import kernel_duration_alone
from repro.gpu.device import DeviceSpec
from repro.sparse.csr import CSRMatrix
from repro.sparse.reference import spgemm_reference
from repro.tune.sketch import MatrixSketch, sketch_matrix  # noqa: F401  (re-exported)
from repro.tune.store import TuningStore
from repro.types import Precision

#: How many top-scoring non-default candidates get a real measurement.
DEFAULT_TOP_K = 3


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one tuning run (or one store hit)."""

    overrides: ParamOverrides
    default_seconds: float        #: measured modeled time, paper defaults
    tuned_seconds: float          #: measured modeled time, winning config
    objective_seconds: float      #: winner's analytic (sketch) score
    candidates: int               #: configs scored analytically
    measured: int                 #: configs measured with real multiplies
    validated: bool               #: winner matched the reference oracle
    digest: str                   #: sketch digest (the store key part)
    from_cache: bool = False      #: served from the tuning store

    @property
    def speedup(self) -> float:
        """Modeled default/tuned ratio (>= 1.0 by construction)."""
        if self.tuned_seconds <= 0:
            return 1.0
        return self.default_seconds / self.tuned_seconds

    def entry(self) -> dict:
        """JSON-representable store entry."""
        return {
            "overrides": self.overrides.to_dict(),
            "default_seconds": self.default_seconds,
            "tuned_seconds": self.tuned_seconds,
            "objective_seconds": self.objective_seconds,
            "candidates": self.candidates,
            "measured": self.measured,
            "validated": self.validated,
            "speedup": self.speedup,
        }

    @classmethod
    def from_entry(cls, entry: dict, digest: str,
                   decode=ParamOverrides.from_dict) -> "TuneResult":
        """Decode a store entry (tolerating missing fields).

        ``decode`` turns the stored override dict back into the owning
        backend's param type (GPU :class:`ParamOverrides` by default).
        """
        return cls(
            overrides=decode(entry.get("overrides", {})),
            default_seconds=float(entry.get("default_seconds", 0.0)),
            tuned_seconds=float(entry.get("tuned_seconds", 0.0)),
            objective_seconds=float(entry.get("objective_seconds", 0.0)),
            candidates=int(entry.get("candidates", 0)),
            measured=int(entry.get("measured", 0)),
            validated=bool(entry.get("validated", False)),
            digest=digest,
            from_cache=True,
        )


def candidate_space(device: DeviceSpec) -> list[ParamOverrides]:
    """The Table I search grid for ``device``.

    Each axis includes ``None`` = "keep the Section III-D value", so the
    all-default :class:`ParamOverrides` is always candidate 0 and every
    candidate carries only its *deviations* (keeping plan-cache keys and
    store entries minimal).

    ``symbolic`` is the outermost axis: every table configuration is
    scored under both the exact counting pass (``None``) and the sampled
    estimator (``"estimate"``), so the tuner can trade symbolic-phase
    time against numeric-phase over-allocation per matrix sketch.
    """
    warp = device.warp_size
    t_max = pow2_floor(max(1, device.max_shared_per_block // 12))
    threads = device.max_threads_per_block

    sym_axis = [None, "estimate"]
    t_axis = [None, t_max // 2, t_max // 4]
    width_axis = [None] + [w for w in (2, 8) if 1 <= w <= warp]
    boundary_axis = [None] + [b for b in (warp // 4, warp)
                              if b >= 1 and b != warp // 2]
    threads_axis = [None] + [t for t in (threads // 2, threads // 4)
                             if t >= warp]

    out, seen = [], set()
    for sym in sym_axis:
        for t in t_axis:
            for w in width_axis:
                for b in boundary_axis:
                    for bt in threads_axis:
                        ov = ParamOverrides(t_max=t, pwarp_width=w,
                                            pwarp_nnz_max=b,
                                            max_block_threads=bt,
                                            symbolic=sym)
                        if ov.switches() not in seen:
                            seen.add(ov.switches())
                            out.append(ov)
    return out


def _stream_makespan(kernels, device: DeviceSpec, precision: Precision) -> float:
    """Phase makespan under concurrent streams: kernels on the same
    stream serialize, distinct streams overlap -- the max over per-stream
    sums (the analytic analogue of the event scheduler's stream model)."""
    per_stream: dict[int, float] = {}
    for k in kernels:
        per_stream[k.stream] = (per_stream.get(k.stream, 0.0)
                                + kernel_duration_alone(k, device, precision))
    return max(per_stream.values(), default=0.0)


def modeled_total(sketch: MatrixSketch, device: DeviceSpec,
                  precision: Precision | str,
                  overrides: ParamOverrides) -> float:
    """Analytic objective: modeled count+calc seconds on the sketch.

    ``overrides.symbolic == "estimate"`` swaps the exact counting pass
    for the sampled estimator: one sample kernel instead of the symbolic
    hash pass, and numeric grouping driven by the margin-inflated bounds
    (clamped to the product counts, assumed violation-free -- recovery
    is a runtime event the sketch cannot predict).

    Returns ``inf`` for infeasible configurations, so callers can rank
    without special-casing.
    """
    p = Precision.parse(precision)
    try:
        table = build_group_table(device, overrides=overrides)
    except DeviceConfigError:
        return float("inf")
    nnz_a, nprod, nnz_out = sketch.reconstruct()
    try:
        if overrides.symbolic == "estimate":
            bounds = np.minimum(
                np.ceil((1.0 + DEFAULT_MARGIN) * nnz_out).astype(np.int64),
                nprod.astype(np.int64))
            num_groups = group_rows(bounds, table, "estimate")
            num = plan_numeric(nnz_a, num_groups, nprod, nnz_out, p, device)
            total = (kernel_duration_alone(
                         estimate_sample_kernel(nnz_a, DEFAULT_SAMPLES),
                         device, p)
                     + _stream_makespan(num.kernels, device, p))
        else:
            sym_groups = group_rows(nprod, table, "products")
            num_groups = group_rows(nnz_out, table, "nnz")
            sym = plan_symbolic(nnz_a, sym_groups, nprod, nnz_out, device)
            num = plan_numeric(nnz_a, num_groups, nprod, nnz_out, p, device)
            total = (_stream_makespan(sym.kernels, device, p)
                     + _stream_makespan(num.kernels, device, p))
            if sym.retry_kernel is not None:
                total += kernel_duration_alone(sym.retry_kernel, device, p)
    except (AlgorithmError, DeviceConfigError):
        # uncovered count range, or a kernel that exceeds a device limit
        # (e.g. a wide PWARP boundary overflowing shared memory)
        return float("inf")
    return total


def tuning_family(leaf: SpGEMMAlgorithm,
                  device: DeviceSpec) -> TuningFamily | None:
    """The :class:`~repro.backend.base.TuningFamily` that owns ``leaf``'s
    parameters on ``device``, or ``None`` when the leaf is not tunable
    there.

    A leaf belongs to the device backend's family sharing its
    :attr:`~repro.base.SpGEMMAlgorithm.param_type`: a hash leaf lands
    on the Table I space, a tile leaf on the tile space, any CPU leaf on
    the CPU space; a baseline (no param type) or a leaf of another
    backend matches none.  The tuning wrapper and the dist driver both
    choose through here.
    """
    if leaf.param_type is None:
        return None
    return next((fam for fam in backend_for_spec(device).tuning_families(device)
                 if fam.param_type is leaf.param_type), None)


class Autotuner:
    """Searches one backend's parameter space for ``(matrix, device,
    precision)``.

    A :class:`~repro.backend.base.TuningFamily` supplies the search
    grid, the sketch builder, the sketch objective and the measurement
    leaf, whose param type decodes stored entries, so GPU Table I
    searches, CPU thread/block searches and the tile family's
    density-cutoff search share this one driver.  ``family=None``
    selects the device backend's primary family (Table I on a GPU); a
    backend that declares none raises :class:`~repro.errors.
    DeviceConfigError`.
    ``store`` (a :class:`~repro.tune.store.TuningStore`) short-circuits
    repeat instances; ``None`` tunes from scratch every call.  Families
    namespace their sketch digests, so one store serves all of them
    without key collisions.  A stored entry that does not decode (the
    store is input from outside the program) counts as absent: the
    search runs and overwrites it.
    """

    def __init__(self, device: DeviceSpec, precision: Precision | str, *,
                 store: TuningStore | None = None,
                 family: TuningFamily | None = None) -> None:
        self.device = device
        self.backend = backend_for_spec(device)
        if family is None:
            families = self.backend.tuning_families(device)
            if not families:
                raise DeviceConfigError(
                    f"backend {self.backend.name!r} declares no tuning "
                    f"families: {device.name} has nothing to tune")
            family = families[0]
        self.family = family
        self.precision = Precision.parse(precision)
        self.store = store

    def _measure(self, A: CSRMatrix, B: CSRMatrix, ov,
                 matrix_name: str):
        """One real multiply under ``ov``; ``(seconds, result)`` or
        ``(inf, None)`` when the config cannot run at all."""
        algo = self.family.leaf()
        algo.apply_param_overrides(ov)
        try:
            res = algo.multiply(A, B, precision=self.precision,
                                device=self.device, matrix_name=matrix_name)
        except (DeviceConfigError, AlgorithmError):
            return float("inf"), None
        return res.report.total_seconds, res

    def tune(self, A: CSRMatrix, B: CSRMatrix, *,
             matrix_name: str = "") -> TuneResult:
        """Full search (or store hit) for one instance."""
        sketch = self.family.sketch(A, B)
        digest = sketch.digest()
        if self.store is not None:
            entry = self.store.get(self.device.name, self.precision.value,
                                   digest)
            if entry is not None:
                try:
                    return TuneResult.from_entry(
                        entry, digest, self.family.param_type.from_dict)
                except (TypeError, ValueError, AttributeError,
                        AlgorithmError):
                    pass                # damaged entry: tune afresh

        default_ov = self.family.param_type()
        candidates = self.family.candidates(self.device)
        scored = [(self.family.modeled_total(sketch, self.device,
                                             self.precision, ov), ov)
                  for ov in candidates]
        default_score = scored[0][0]
        ranked = sorted((s for s in scored[1:] if s[0] < float("inf")),
                        key=lambda s: s[0])

        default_seconds, default_res = self._measure(A, B, default_ov,
                                                     matrix_name)
        best_ov, best_seconds, best_score, best_res = (
            default_ov, default_seconds, default_score, default_res)
        measured = 1
        for score, ov in ranked[:DEFAULT_TOP_K]:
            seconds, res = self._measure(A, B, ov, matrix_name)
            measured += 1
            if seconds < best_seconds:
                best_ov, best_seconds, best_score, best_res = (
                    ov, seconds, score, res)

        validated = True
        if not best_ov.is_default() and best_res is not None:
            ref = spgemm_reference(A, B)
            rtol = 1e-9 if self.precision is Precision.DOUBLE else 1e-4
            validated = best_res.matrix.canonicalize().allclose(ref, rtol=rtol)
            if not validated:
                # never ship a config the oracle rejects
                best_ov, best_seconds, best_score = (
                    default_ov, default_seconds, default_score)

        result = TuneResult(
            overrides=best_ov,
            default_seconds=default_seconds,
            tuned_seconds=best_seconds,
            objective_seconds=best_score,
            candidates=len(candidates),
            measured=measured,
            validated=validated,
            digest=digest,
        )
        if self.store is not None:
            self.store.put(self.device.name, self.precision.value, digest,
                           result.entry())
        return result
