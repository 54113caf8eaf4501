"""Multicore-CPU backend: device model, parameters and cost model.

The follow-up literature ports the paper's hash SpGEMM to manycore CPUs:
Nagasaka-Azad (arXiv 1804.01698) evaluate heap- and hash-based row
accumulators on KNL and multicore Xeon, and Gu et al. (arXiv 2002.11302)
add bandwidth-optimized propagation blocking.  This package models those
machines the same way :mod:`repro.gpu` models Pascal: an analytic cost
model over typed work columns, the GPU's lane schedule over hardware
threads, and frozen spec presets.

Only the spec/param layer is exported here; the algorithms live in
:mod:`repro.cpu.algorithms` (imported by the registry, not here, to keep
the ``repro.backend`` <- ``repro.base`` import order acyclic).
"""

from repro.cpu.device import CPU_PRESETS, KNL64, XEON24, CPUSpec
from repro.cpu.params import CPUParams

__all__ = [
    "CPUSpec",
    "CPUParams",
    "KNL64",
    "XEON24",
    "CPU_PRESETS",
]
