"""The GPU backend: the paper's Pascal model behind the abstraction.

This is a thin shell, by design: ``simulate_phase`` *is* the module
function of :mod:`repro.gpu.scheduler` (installed as a staticmethod,
not wrapped), and the presets are the same frozen
:data:`~repro.gpu.device.DEVICE_PRESETS` objects -- so every schedule,
plan-cache key and tuning-store entry produced through the backend is
bit-identical to what the direct imports produced before the
refactor.  Its two tuning families -- the proposal's Table I space and
the tile family's -- are plain :class:`~repro.backend.base.TuningFamily`
values, built with lazy imports: the algorithms and :mod:`repro.tune`
sit above :mod:`repro.base` in the import order.
"""

from __future__ import annotations

from repro.backend.base import Backend, TuningFamily
from repro.gpu.device import DEVICE_PRESETS, P100, DeviceSpec
from repro.gpu.scheduler import simulate_phase


class GPUBackend(Backend):
    """CUDA-like devices costed by the Pascal model of :mod:`repro.gpu`."""

    name = "gpu"
    spec_type = DeviceSpec
    presets = DEVICE_PRESETS
    default_preset = P100
    algorithms = ("proposal", "cusparse", "cusp", "bhsparse", "tile")
    default_algorithm = "proposal"
    fallback_algorithm = "cusparse"

    # the module function, unwrapped: bit-identity holds because this
    # *is* the object every call site used before
    simulate_phase = staticmethod(simulate_phase)

    # -- tuning ---------------------------------------------------------------

    def tuning_families(self, spec: DeviceSpec) -> tuple[TuningFamily, ...]:
        """The hash proposal's Table I family (primary) and the tile
        family, each with its own param type, grid, sketch and objective.

        The Table I grid is crossed with the ``symbolic`` axis: every
        table configuration is scored under both the exact counting pass
        and the sampled estimator (:mod:`repro.estimate`), so a tuned
        config can select ``symbolic='estimate'`` per matrix sketch.
        """
        from repro.core.spgemm import HashSpGEMM
        from repro.tile import plan as tile_plan
        from repro.tile.algorithm import TileSpGEMM
        from repro.tune.sketch import sketch_matrix
        from repro.tune.tuner import candidate_space, modeled_total

        return (
            TuningFamily(family=self.name, leaf=HashSpGEMM,
                         candidates=candidate_space,
                         modeled_total=modeled_total, sketch=sketch_matrix),
            TuningFamily(family="tile", leaf=TileSpGEMM,
                         candidates=tile_plan.candidate_space,
                         modeled_total=tile_plan.modeled_tile_total,
                         sketch=tile_plan.sketch_tiles),
        )

    # -- presentation ---------------------------------------------------------

    def render_info(self, spec: DeviceSpec) -> str:
        from repro.core.params import build_group_table

        lines = [
            f"device: {spec.name} [{self.name}]",
            f"  SMs: {spec.sm_count} x {spec.cores_per_sm} cores "
            f"@ {spec.clock_ghz} GHz",
            f"  shared memory: {spec.shared_mem_per_sm // 1024} KB/SM "
            f"(max {spec.max_shared_per_block // 1024} KB/block)",
            f"  memory: {spec.global_mem_bytes / 1024 ** 3:.0f} GB @ "
            f"{spec.mem_bandwidth_gbps:.0f} GB/s",
            "",
            build_group_table(spec).render(),
        ]
        return "\n".join(lines)


#: The singleton instance :mod:`repro.backend` registers.
GPU_BACKEND = GPUBackend()
