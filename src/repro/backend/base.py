"""The hardware-abstraction layer: what a backend must provide.

A :class:`Backend` bundles everything the rest of the stack needs to
know about one architecture family:

* the **spec type** and its named **presets** (``DeviceSpec``/``P100``
  for the GPU, ``CPUSpec``/``KNL64`` for the CPU);
* the **scheduler** (``simulate_phase``), consuming the shared
  :class:`~repro.gpu.kernel.KernelLaunch` vocabulary, so
  :class:`~repro.base.RunContext` accounting is backend-agnostic.  Both
  backends list-schedule a serialized phase with one routine,
  :func:`repro.gpu.scheduler.list_schedule`, and differ only in the lane
  count per kernel (resident blocks on the GPU, worker threads on the
  CPU) and the issue gap (kernel launch or fork/join);
* the **native algorithms** of the architecture and how to translate a
  foreign algorithm name onto it (heterogeneous ``dist`` pools);
* its **tuning families**, declared as :class:`TuningFamily` data: the
  leaf whose parameters a family tunes, its search grid, sketch and
  sketch-level objective, so :class:`~repro.tune.tuner.Autotuner`
  searches each backend's genuinely different parameter space through
  one code path.

Backends register with :mod:`repro.backend.registry`; dispatch is by
``isinstance`` on the spec (:func:`~repro.backend.registry.
backend_for_spec`), so existing call sites that pass a raw spec keep
working unchanged -- and, for the GPU, keep returning bit-identical
schedules, because the GPU backend's scheduler *is* the pre-existing
module function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.base import SpGEMMAlgorithm
    from repro.gpu.scheduler import PhaseSchedule


@dataclass(frozen=True)
class TuningFamily:
    """One tunable algorithm family of a backend, declared as data.

    A backend may host several families with genuinely different search
    spaces (the GPU hosts the hash proposal's Table I space *and* the
    tile family's tile/density space).  Each family names the leaf
    class it measures with -- whose :attr:`~repro.base.SpGEMMAlgorithm.
    param_type` is the family's param type -- plus its search grid,
    sketch builder and sketch-level objective, so
    :class:`~repro.tune.tuner.Autotuner` drives any of them through one
    code path.  A leaf belongs to the family sharing its param type
    (:func:`repro.tune.tuner.tuning_family`), so the three CPU leaves
    share the one CPU family.

    Families must produce sketches with non-colliding digests (the tile
    sketch namespaces its hash), because the persistent tuning store is
    keyed by ``(device, precision, digest)`` only.
    """

    #: family label (events / debugging)
    family: str
    #: the leaf class the search measures with (no-argument constructor)
    leaf: "type[SpGEMMAlgorithm]"
    #: the search grid for a spec (candidate 0 is the default)
    candidates: Callable[[Any], list]
    #: analytic objective ``(sketch, spec, precision, params) -> s``
    modeled_total: Callable[..., float]
    #: sketch builder ``(A, B) -> sketch`` (must expose ``digest()``)
    sketch: Callable[[Any, Any], Any]

    @property
    def param_type(self) -> Any:
        """The family's param type: a no-argument constructor gives the
        defaults and ``from_dict`` decodes a store entry."""
        return self.leaf.param_type


class Backend:
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

    #: Phase scheduler with the :func:`repro.gpu.scheduler.
    #: simulate_phase` signature: ``(kernels, spec, precision, *,
    #: start_time, use_streams, faults) -> PhaseSchedule``.  Declared as
    #: an attribute (not an abstract method) so a backend may install a
    #: pre-existing module function unchanged -- the GPU backend does,
    #: which is what makes the refactor bit-identical by construction.
    simulate_phase: Callable[..., "PhaseSchedule"]

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

    # -- tuning ---------------------------------------------------------------

    def tuning_families(self, spec: Any) -> "tuple[TuningFamily, ...]":
        """All tunable families on ``spec``, primary family first.

        A backend with nothing to tune declares none (the default).
        Family constructors import :mod:`repro.tune` lazily: the tune
        package sits above :mod:`repro.base` in the import order.
        """
        return ()

    # -- presentation ---------------------------------------------------------

    def render_info(self, spec: Any) -> str:
        """Human-readable description of ``spec`` for the CLI."""
        return f"{spec.name} [{self.name}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (f"<{type(self).__name__} {self.name!r} "
                f"presets={sorted(self.presets)}>")
