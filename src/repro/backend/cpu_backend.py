"""The CPU backend: multicore machines behind the abstraction.

The scheduler comes from :mod:`repro.cpu.cost` -- the GPU's lane
schedule with a region's worker threads as its lanes; the one tuning
family searches the CPU-native parameter space (:class:`~repro.cpu.
params.CPUParams`: threads, block rows, bin count) -- a genuinely
different grid from the GPU's Table I, which is the point of having a
second backend -- and owns the parameters of all three CPU leaves.  It
imports :mod:`repro.cpu.algorithms` lazily: that module derives from
:mod:`repro.base`, which imports this package.
"""

from __future__ import annotations

from repro.backend.base import Backend, TuningFamily
from repro.cpu.cost import simulate_cpu_phase
from repro.cpu.device import CPU_PRESETS, KNL64, CPUSpec

#: Architecture efficiency factor on the bandwidth-based work weight:
#: a CPU sustains roughly half a GPU's SpGEMM throughput per GB/s of
#: stream bandwidth (fewer outstanding misses to hide irregular
#: accesses behind; see Nagasaka-Azad Fig. 9 vs the paper's Fig. 7).
CPU_WEIGHT_EFFICIENCY = 0.5


class CPUBackend(Backend):
    """Multicore CPUs costed by the cache-based model of :mod:`repro.cpu`."""

    name = "cpu"
    spec_type = CPUSpec
    presets = CPU_PRESETS
    default_preset = KNL64
    algorithms = ("hash-cpu", "heap-cpu", "propblock")
    default_algorithm = "hash-cpu"
    # the heap accumulator needs no hash tables at all, so it is immune
    # to the hash-table-full fault class -- the natural second rung
    fallback_algorithm = "heap-cpu"

    simulate_phase = staticmethod(simulate_cpu_phase)

    def work_weight(self, spec: CPUSpec) -> float:
        return float(spec.mem_bandwidth_gbps) * CPU_WEIGHT_EFFICIENCY

    # -- tuning ---------------------------------------------------------------

    def tuning_families(self, spec: CPUSpec) -> tuple[TuningFamily, ...]:
        """The CPU family: measured with ``hash-cpu``, whose
        :class:`~repro.cpu.params.CPUParams` the heap and
        propagation-blocking leaves share."""
        from repro.cpu.algorithms import HashCPUSpGEMM
        from repro.cpu.plan import candidate_space, modeled_hash_total
        from repro.tune.sketch import sketch_matrix

        return (TuningFamily(family=self.name, leaf=HashCPUSpGEMM,
                             candidates=candidate_space,
                             modeled_total=modeled_hash_total,
                             sketch=sketch_matrix),)

    # -- presentation ---------------------------------------------------------

    def render_info(self, spec: CPUSpec) -> str:
        llc = (f"{spec.llc_bytes / 1024 ** 2:.0f} MB LLC" if spec.llc_bytes
               else "no LLC (flat mode)")
        return "\n".join([
            f"device: {spec.name} [{self.name}]",
            f"  cores: {spec.cores} x {spec.smt} SMT @ {spec.clock_ghz} GHz, "
            f"{spec.simd_width}-wide FP64 SIMD x {spec.vector_units}",
            f"  caches: {spec.l1_bytes // 1024} KB L1 / "
            f"{spec.l2_bytes // 1024} KB L2 / {llc}",
            f"  memory: {spec.global_mem_bytes / 1024 ** 3:.0f} GB @ "
            f"{spec.mem_bandwidth_gbps:.0f} GB/s",
        ])


#: The singleton instance :mod:`repro.backend` registers.
CPU_BACKEND = CPUBackend()
