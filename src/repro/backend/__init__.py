"""Hardware-abstraction layer: backends, registry, device resolution.

Importing this package registers the two built-in backends -- GPU first,
so merged preset listings and default resolution keep the historical
order.  Everything the rest of the stack needs is re-exported here::

    from repro.backend import backend_for_spec, resolve_device

    spec = resolve_device("KNL64")          # or a DeviceSpec/CPUSpec
    backend = backend_for_spec(spec)        # isinstance dispatch
    schedule = backend.simulate_phase(kernels, spec, precision)

Third-party backends register the same way the built-ins do: subclass
:class:`~repro.backend.base.Backend` and call :func:`register_backend`
(preset names must not collide -- the registry enforces it).
"""

from repro.backend.base import Backend
from repro.backend.cpu_backend import CPU_BACKEND, CPUBackend
from repro.backend.gpu_backend import GPU_BACKEND, GPUBackend
from repro.backend.registry import (
    backend_for_name,
    backend_for_spec,
    backends,
    device_presets,
    register_backend,
    resolve_device,
)

register_backend(GPU_BACKEND)
register_backend(CPU_BACKEND)

__all__ = [
    "Backend",
    "GPUBackend",
    "CPUBackend",
    "GPU_BACKEND",
    "CPU_BACKEND",
    "backend_for_name",
    "backend_for_spec",
    "backends",
    "device_presets",
    "register_backend",
    "resolve_device",
]
