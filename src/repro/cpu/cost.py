"""The CPU cycle model: converting per-chunk work into durations.

The CPU backend reuses the GPU's kernel vocabulary -- a
:class:`~repro.gpu.kernel.KernelLaunch` is a bag of *chunks* (the
``n_blocks`` axis), each carrying the same seven work columns -- but
reinterprets them for a cache-based multicore:

* ``block_threads`` is the worker-thread count of the parallel region
  (clamped to the hardware slots), not a thread-block shape.
* ``flops`` retire through the vector units
  (``simd_width * vector_units`` FP64 lanes per cycle, doubled single).
* ``shared_ops`` are L1-equivalent cache accesses.  Tables larger than
  L1 are charged at plan time by multiplying the probe counts with
  :meth:`~repro.cpu.device.CPUSpec.cache_level_penalty` -- the CPU
  analogue of the paper's shared-vs-global hash-table split.
* ``shared_atomics`` are locked/contended operations (``atomic_cycles``
  each); thread-private accumulators keep this column at zero.
* ``gmem_coalesced_bytes`` stream at the memory bandwidth, fair-shared
  over the threads actually running; ``gmem_random`` touches cost a full
  cache line of bandwidth *and* a latency term hidden by the thread's
  memory-level parallelism (``mlp_per_thread`` outstanding misses).
* SMT oversubscription (more workers than cores) stretches the
  throughput components by the threads-per-core factor -- co-resident
  hyperthreads time-share issue ports and L1 -- while the latency term
  is unchanged: overlapping misses is exactly what SMT is for
  (Nagasaka-Azad run 256 threads on 64 KNL cores for this reason).

Components are summed, not maxed -- the same deliberate, conservative
choice as :mod:`repro.gpu.cost`, keeping the model monotone in every
work column and identical in shape across backends.

Scheduling (:func:`simulate_cpu_phase`) is the GPU's: chunks go FIFO
onto free hardware-thread slots, capped by the region's own worker
count, so a single monster row-block holds one thread hostage while the
rest drain -- the load-imbalance pathology the GPU model exhibits, and
the reason the CPU algorithms chunk rows finely.  Every CPU kernel
builder issues its regions on one stream, so every CPU phase serializes
and is list-scheduled by :func:`repro.gpu.scheduler.list_schedule`.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.device import CPUSpec
from repro.errors import SchedulerError
from repro.gpu.faults import FaultPlan
from repro.gpu.kernel import KernelLaunch
from repro.gpu.scheduler import (PhaseSchedule, list_schedule,
                                 raise_injected_faults)
from repro.types import Precision


def workers_for(kernel: KernelLaunch, spec: CPUSpec) -> int:
    """Worker threads of ``kernel``'s parallel region (>= 1, clamped to
    the hardware thread slots)."""
    return max(1, min(int(kernel.block_threads), spec.total_threads))


def chunk_durations(kernel: KernelLaunch, spec: CPUSpec,
                    precision: Precision | str) -> np.ndarray:
    """Seconds each chunk of ``kernel`` takes, as a float64 array.

    Deterministic, vectorized over chunks.
    """
    p = Precision.parse(precision)
    w = kernel.works
    workers = workers_for(kernel, spec)
    # threads actually competing: a region with fewer chunks than
    # workers never reaches the configured concurrency
    active = max(1, min(workers, kernel.n_blocks))
    # hyperthreads time-share a core's issue ports and L1
    smt_stretch = max(1.0, active / spec.cores)

    flops_rate = spec.flops_per_cycle_per_core(p is Precision.DOUBLE)
    compute = w.flops / flops_rate * smt_stretch

    cache = (w.shared_ops / spec.cache_ports
             + w.shared_atomics * spec.atomic_cycles) * smt_stretch

    # fair bandwidth share of one active thread; aggregate equals the
    # sustained stream bandwidth whatever the concurrency
    bytes_per_cycle = spec.bandwidth_bytes_per_sec / (active * spec.clock_hz)
    bytes_moved = w.gmem_coalesced_bytes + w.gmem_random * spec.cache_line_bytes
    bandwidth = bytes_moved / bytes_per_cycle

    parallelism = max(1.0, spec.mlp_per_thread)
    latency = (w.gmem_random * spec.mem_latency_cycles
               + w.gmem_atomics * 2.0 * spec.atomic_cycles) / parallelism

    cycles = (compute + cache + bandwidth + latency + w.serial_cycles
              + spec.chunk_overhead_cycles)
    return cycles / spec.clock_hz


def simulate_cpu_phase(kernels: list[KernelLaunch], spec: CPUSpec,
                       precision: Precision | str, *,
                       start_time: float = 0.0, use_streams: bool = True,
                       faults: FaultPlan | None = None) -> PhaseSchedule:
    """Schedule the serialized regions ``kernels`` on ``spec``.

    Region ``i`` is issued after ``i + 1`` fork/joins (``fork_join_us``
    each), starts once its predecessor has finished and owns
    :func:`workers_for` lanes.  A phase with launches on two or more
    streams raises :class:`SchedulerError` (regions do not co-schedule)
    unless ``use_streams=False`` serializes it.  Fault plans are checked
    first, as the GPU scheduler does; one
    :class:`~repro.gpu.timeline.KernelRecord` per region.
    """
    if not kernels:
        return PhaseSchedule(start=start_time, end=start_time, records=[])
    raise_injected_faults(kernels, faults)
    if use_streams and any(k.stream != kernels[0].stream for k in kernels):
        raise SchedulerError(
            "CPU regions do not co-schedule: launches on streams "
            f"{sorted({k.stream for k in kernels})} "
            "(pass use_streams=False to serialize them)")
    p = Precision.parse(precision)
    records = list_schedule(
        kernels, [chunk_durations(k, spec, p) for k in kernels],
        [workers_for(k, spec) for k in kernels], spec.fork_join_us * 1e-6,
        start_time, use_streams)
    return PhaseSchedule(start=start_time, end=max(r.end for r in records),
                         records=records)


def kernel_duration_alone(kernel: KernelLaunch, spec: CPUSpec,
                          precision: Precision | str) -> float:
    """Makespan of one kernel running alone on the CPU (no overlap).

    Lower-bound list-scheduling estimate: chunks spread over the
    region's worker threads; makespan is the max of the average-load
    bound and the longest chunk.  :func:`simulate_cpu_phase` gives the
    exact figure; this helper exists for quick analytic checks (the
    tuner's sketch scoring).
    """
    durations = chunk_durations(kernel, spec, precision)
    slots = workers_for(kernel, spec)
    return float(max(durations.sum() / slots, durations.max(initial=0.0)))
