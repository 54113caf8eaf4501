"""repro -- reproduction of Nagasaka, Nukada & Matsuoka (ICPP 2017):
"High-Performance and Memory-Saving Sparse General Matrix-Matrix
Multiplication for NVIDIA Pascal GPU".

The package implements the paper's hash-table SpGEMM (*nsparse*) and the
three baselines it compares against (CUSP's ESC, a cuSPARSE-style
two-phase hash, BHSPARSE's bin hybrid) on a simulated Pascal-class device
model -- functionally exact sparse results plus a documented performance
and memory model.  See DESIGN.md for the substitution rationale.

Quick start::

    import repro
    A = repro.generators.poisson2d(128)
    result = repro.multiply(A, A)                       # paper defaults
    result = repro.multiply(A, A, options=repro.SpGEMMOptions(
        algorithm="proposal", precision="single", tune=True))
    print(result.report.summary())

:func:`repro.multiply` with a :class:`repro.SpGEMMOptions` is the public
API: ``algorithm`` names a leaf of :func:`algorithms`, and the wrapper
layers (``engine``, ``resilient``, ``devices``, ``tune``) are option
fields that :func:`runner_for` composes.
"""

from repro import sparse
from repro.base import SpGEMMAlgorithm, SpGEMMResult
from repro.core.params import ParamOverrides, build_group_table
from repro.core.resilient import ResilienceReport, ResilientSpGEMM
from repro.core.spgemm import HashSpGEMM
from repro.dist import DevicePool, DistSpGEMM, Interconnect
from repro.engine import SpGEMMEngine, SpGEMMPlan
from repro.errors import (
    AlgorithmError,
    CircuitOpenError,
    DeviceConfigError,
    DeviceFreeError,
    DeviceLostError,
    DeviceMemoryError,
    HashTableError,
    JobTimeoutError,
    OptionsError,
    PlanMismatchError,
    ReproError,
    SchedulerError,
    ServeError,
    ServerOverloadedError,
    ShapeMismatchError,
    SparseFormatError,
    UnknownAlgorithmError,
    UnknownDeviceError,
)
from repro.estimate import RowEstimate, estimate_row_nnz
from repro.backend import (
    Backend,
    backend_for_spec,
    backends,
    device_presets,
    register_backend,
    resolve_device,
)
from repro.cpu import CPU_PRESETS, KNL64, XEON24, CPUParams, CPUSpec
from repro.options import SpGEMMOptions, multiply, runner_for
from repro.serve import ServedJob, ServePolicy, SpGEMMServer
from repro.tune import Autotuner, TunedSpGEMM, TuningStore
from repro.gpu.device import K40, P100, VEGA56, DeviceSpec
from repro.gpu.faults import FaultEvent, FaultPlan
from repro.gpu.timeline import SimReport
from repro.sparse import generators
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.reference import spgemm_reference
from repro.types import Precision

__version__ = "1.0.0"

__all__ = [
    "Autotuner",
    "Backend",
    "COOMatrix",
    "CPUParams",
    "CPUSpec",
    "CPU_PRESETS",
    "CSRMatrix",
    "DevicePool",
    "DeviceSpec",
    "DistSpGEMM",
    "FaultEvent",
    "FaultPlan",
    "HashSpGEMM",
    "Interconnect",
    "K40",
    "KNL64",
    "P100",
    "ParamOverrides",
    "Precision",
    "ResilienceReport",
    "ResilientSpGEMM",
    "RowEstimate",
    "SimReport",
    "SpGEMMAlgorithm",
    "ServePolicy",
    "ServedJob",
    "SpGEMMEngine",
    "SpGEMMOptions",
    "SpGEMMPlan",
    "SpGEMMResult",
    "SpGEMMServer",
    "TunedSpGEMM",
    "TuningStore",
    "VEGA56",
    "XEON24",
    "algorithms",
    "backend_for_spec",
    "backends",
    "device_presets",
    "register_backend",
    "resolve_device",
    "build_group_table",
    "estimate_row_nnz",
    "generators",
    "multiply",
    "runner_for",
    "spgemm_reference",
    "sparse",
    # errors
    "AlgorithmError",
    "CircuitOpenError",
    "DeviceConfigError",
    "DeviceFreeError",
    "DeviceLostError",
    "DeviceMemoryError",
    "HashTableError",
    "JobTimeoutError",
    "OptionsError",
    "PlanMismatchError",
    "ReproError",
    "SchedulerError",
    "ServeError",
    "ServerOverloadedError",
    "ShapeMismatchError",
    "SparseFormatError",
    "UnknownAlgorithmError",
    "UnknownDeviceError",
]


def algorithms() -> dict[str, type[SpGEMMAlgorithm]]:
    """Registry of the leaf SpGEMM algorithms by name."""
    from repro.baselines.registry import ALGORITHMS

    return dict(ALGORITHMS)
