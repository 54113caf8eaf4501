"""Simulated GPU substrate.

The paper's evaluation platform is an NVIDIA Tesla P100 (Pascal).  This
environment has no GPU, so every performance-relevant resource of that
device is modeled here instead (see DESIGN.md section 2):

* :mod:`repro.gpu.device` -- the hardware specification (SM count, shared
  memory, occupancy caps, bandwidth, latencies).
* :mod:`repro.gpu.occupancy` -- resident-blocks-per-SM calculation.
* :mod:`repro.gpu.kernel` -- per-block work descriptions and kernel launches.
* :mod:`repro.gpu.cost` -- the documented cycle model converting work to time.
* :mod:`repro.gpu.memory` -- device memory allocator with peak tracking, OOM
  and a ``cudaMalloc`` cost model.
* :mod:`repro.gpu.faults` -- deterministic fault injection (forced OOM,
  capacity shrink, hash-table-full events) for resilience testing.
* :mod:`repro.gpu.scheduler` -- discrete-event simulation of block dispatch
  onto SMs with CUDA-stream semantics.
* :mod:`repro.gpu.timeline` -- phase/kernel timing records and
  :class:`~repro.gpu.timeline.SimReport`.

Algorithms never hard-code timings: they describe the work each thread
block performs and the simulator turns that into time and memory numbers.
"""

from repro.gpu.device import P100, DeviceSpec
from repro.gpu.faults import FaultEvent, FaultPlan
from repro.gpu.kernel import BlockWorks, KernelLaunch, WorkEstimate
from repro.gpu.memory import DeviceMemory
from repro.gpu.occupancy import Occupancy, occupancy_for
from repro.gpu.scheduler import simulate_phase
from repro.gpu.timeline import KernelRecord, SimReport

__all__ = [
    "P100",
    "BlockWorks",
    "DeviceMemory",
    "DeviceSpec",
    "FaultEvent",
    "FaultPlan",
    "KernelLaunch",
    "KernelRecord",
    "Occupancy",
    "SimReport",
    "WorkEstimate",
    "occupancy_for",
    "simulate_phase",
]
