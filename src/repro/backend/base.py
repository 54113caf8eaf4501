"""The hardware-abstraction layer: what a backend must provide.

A :class:`Backend` bundles everything the rest of the stack needs to
know about one architecture family:

* the **spec type** and its named **presets** (``DeviceSpec``/``P100``
  for the GPU, ``CPUSpec``/``KNL64`` for the CPU);
* the **scheduler** (``simulate_phase``) and the analytic **cost model**
  (``kernel_duration_alone``) -- both consuming the shared
  :class:`~repro.gpu.kernel.KernelLaunch` vocabulary, so
  :class:`~repro.base.RunContext` accounting is backend-agnostic;
* the **native algorithms** of the architecture and how to translate a
  foreign algorithm name onto it (heterogeneous ``dist`` pools);
* the **tuning hooks**: the override type, its search grid and the
  sketch-level objective, so :class:`~repro.tune.tuner.Autotuner`
  searches each backend's genuinely different parameter space through
  one code path.

Backends register with :mod:`repro.backend.registry`; dispatch is by
``isinstance`` on the spec (:func:`~repro.backend.registry.
backend_for_spec`), so existing call sites that pass a raw spec keep
working unchanged -- and, for the GPU, keep returning bit-identical
schedules, because the GPU backend's methods *are* the pre-existing
module functions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpu.scheduler import PhaseSchedule
    from repro.tune.sketch import MatrixSketch
    from repro.types import Precision


@dataclass(frozen=True)
class TuningFamily:
    """One tunable algorithm family of a backend.

    A backend may host several families with genuinely different search
    spaces (the GPU hosts the hash proposal's Table I space *and* the
    tile family's tile/density space).  Each family bundles its override
    codec, search grid, sketch builder and sketch-level objective, so
    :class:`~repro.tune.tuner.Autotuner` drives any of them through one
    code path.  The family is selected by the ``apply_param_overrides``
    protocol: the first family whose default override object the inner
    algorithm accepts owns the search (an algorithm declines foreign
    param types, so the probe is unambiguous).

    Families must produce sketches with non-colliding digests (the tile
    sketch namespaces its hash), because the persistent tuning store is
    keyed by ``(device, precision, digest)`` only.
    """

    #: family label (events / debugging)
    family: str
    #: the all-default override object of the family's param type
    default_overrides: Callable[[], Any]
    #: decode a ``to_dict`` store entry back to the param type
    decode_overrides: Callable[[dict], Any]
    #: the search grid for a spec (candidate 0 is the default)
    candidates: Callable[[Any], list]
    #: analytic objective ``(sketch, spec, precision, overrides) -> s``
    modeled_total: Callable[..., float]
    #: a fresh native algorithm instance carrying the overrides
    algorithm: Callable[[Any], Any]
    #: sketch builder ``(A, B) -> sketch`` (must expose ``digest()``)
    sketch: Callable[[Any, Any], Any]


class Backend(abc.ABC):
    """One architecture family behind the hardware-abstraction layer."""

    #: registry key ('gpu', 'cpu')
    name: str = "abstract"
    #: the spec dataclass this backend's models consume
    spec_type: type = object
    #: named presets exposed through ``--device`` and pool names
    presets: dict[str, Any] = {}
    #: spec used when an algorithm of this backend is handed a foreign one
    default_preset: Any = None
    #: registry names of the algorithms native to this architecture
    algorithms: tuple[str, ...] = ()
    #: translation target for a foreign algorithm name
    default_algorithm: str = "abstract"
    #: robust second rung of the resilience ladder on this architecture
    fallback_algorithm: str = "abstract"

    # -- execution model -----------------------------------------------------

    #: Discrete-event scheduler with the :func:`repro.gpu.scheduler.
    #: simulate_phase` signature: ``(kernels, spec, precision, *,
    #: start_time, use_streams, faults) -> PhaseSchedule``.  Declared as
    #: an attribute (not an abstract method) so a backend may install a
    #: pre-existing module function unchanged -- the GPU backend does,
    #: which is what makes the refactor bit-identical by construction.
    simulate_phase: Callable[..., "PhaseSchedule"]

    #: Analytic makespan of one kernel alone: ``(kernel, spec,
    #: precision) -> float`` (the tuner's sketch-scoring primitive).
    kernel_duration_alone: Callable[..., float]

    # -- heterogeneous pools --------------------------------------------------

    def work_weight(self, spec: Any) -> float:
        """Relative throughput weight of ``spec`` for work partitioning.

        SpGEMM is bandwidth-bound, so the scale is sustained memory
        bandwidth in GB/s; backends apply an architecture efficiency
        factor on top.  The GPU backend returns the raw figure, keeping
        historical single-architecture partitions bit-identical.
        """
        return float(spec.mem_bandwidth_gbps)

    def native_algorithm(self, name: str) -> str:
        """Translate a registry algorithm name onto this architecture.

        Native names pass through; a name owned by a *different*
        backend maps to :attr:`default_algorithm` (so a mixed pool asked
        for 'proposal' runs 'hash-cpu' on its CPU slots).  Unknown names
        also pass through -- the registry is the one that raises
        :class:`~repro.errors.UnknownAlgorithmError`.
        """
        if name in self.algorithms:
            return name
        from repro.backend.registry import backends

        for other in backends().values():
            if other is not self and name in other.algorithms:
                return self.default_algorithm
        return name

    # -- tuning hooks ---------------------------------------------------------

    @abc.abstractmethod
    def default_overrides(self) -> Any:
        """The all-default override object of this backend's param type."""

    @abc.abstractmethod
    def decode_overrides(self, d: dict) -> Any:
        """Decode a ``to_dict`` store entry back to the param type."""

    @abc.abstractmethod
    def tuning_candidates(self, spec: Any) -> list:
        """The search grid for ``spec`` (candidate 0 is the default)."""

    @abc.abstractmethod
    def modeled_total(self, sketch: "MatrixSketch", spec: Any,
                      precision: "Precision | str", overrides: Any) -> float:
        """Analytic objective on a sketch; ``inf`` when infeasible."""

    @abc.abstractmethod
    def tuning_algorithm(self, overrides: Any) -> Any:
        """A fresh native algorithm instance carrying ``overrides`` (the
        tuner's measurement vehicle)."""

    def tuning_families(self, spec: Any) -> "tuple[TuningFamily, ...]":
        """All tunable families on ``spec``, primary family first.

        The default wraps the five abstract hooks with the row-histogram
        :func:`~repro.tune.sketch.sketch_matrix` -- bit-identical to the
        pre-family tuner for every existing backend.  Backends hosting
        additional algorithm families (the GPU's ``tile``) append them.
        """
        def _sketch(A: Any, B: Any) -> Any:
            from repro.tune.sketch import sketch_matrix

            return sketch_matrix(A, B)

        return (TuningFamily(
            family=self.name,
            default_overrides=self.default_overrides,
            decode_overrides=self.decode_overrides,
            candidates=self.tuning_candidates,
            modeled_total=self.modeled_total,
            algorithm=self.tuning_algorithm,
            sketch=_sketch,
        ),)

    # -- presentation ---------------------------------------------------------

    def render_info(self, spec: Any) -> str:
        """Human-readable description of ``spec`` for the CLI."""
        return f"{spec.name} [{self.name}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (f"<{type(self).__name__} {self.name!r} "
                f"presets={sorted(self.presets)}>")
