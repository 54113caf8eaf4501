"""Device specifications.

:data:`P100` mirrors the evaluation platform of the paper (Section IV):
Tesla P100 PCI-e, 16 GB @ 732 GB/s, 56 SMs with 64 cores each, 64 KB shared
memory per SM, at most 48 KB shared memory per thread block, at most 2048
threads and 32 blocks resident per SM.  The latency/overhead constants are
not in the paper; they are order-of-magnitude Pascal figures (documented
per field) and all algorithms see the same ones, so comparisons are fair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import DeviceConfigError


@dataclass(frozen=True)
class DeviceSpec:
    """Resource model of a CUDA-like device.

    Capacity fields drive hard limits (occupancy, OOM); rate/latency fields
    drive the cost model in :mod:`repro.gpu.cost`.
    """

    name: str
    # --- execution resources ------------------------------------------------
    sm_count: int                 #: streaming multiprocessors
    cores_per_sm: int             #: FP32 cores per SM
    clock_ghz: float              #: SM clock in GHz
    warp_size: int                #: threads per warp
    max_threads_per_block: int    #: HW limit per block
    max_threads_per_sm: int       #: resident-thread limit per SM
    max_blocks_per_sm: int        #: resident-block limit per SM
    # --- shared memory -------------------------------------------------------
    shared_mem_per_sm: int        #: bytes of shared memory per SM
    max_shared_per_block: int     #: bytes of shared memory a block may use
    # --- global memory -------------------------------------------------------
    global_mem_bytes: int         #: device memory capacity
    mem_bandwidth_gbps: float     #: peak global bandwidth, GB/s (10^9)
    mem_latency_cycles: int       #: global-memory round-trip latency
    transaction_bytes: int        #: minimum global transaction granularity
    # --- operation costs ------------------------------------------------------
    shared_lanes_per_cycle: int   #: shared-memory word accesses per cycle per SM
    shared_atomic_cycles: float   #: amortized cycles per shared atomicCAS lane
    global_atomic_cycles: float   #: amortized cycles per global atomic
    dp_throughput_ratio: float    #: FP64 : FP32 rate (P100 = 0.5)
    mlp_per_warp: float           #: outstanding global requests a warp sustains
    # --- software overheads ---------------------------------------------------
    kernel_launch_us: float       #: host->device kernel launch latency
    block_overhead_cycles: float  #: block scheduling + prologue cost
    malloc_base_us: float         #: fixed cudaMalloc cost (high on Pascal)
    malloc_per_mib_us: float      #: cudaMalloc cost per MiB mapped
    free_base_us: float           #: fixed cudaFree cost

    def __post_init__(self) -> None:
        if self.sm_count <= 0 or self.cores_per_sm <= 0:
            raise DeviceConfigError(f"{self.name}: device must have SMs and cores")
        if self.max_shared_per_block > self.shared_mem_per_sm:
            raise DeviceConfigError(
                f"{self.name}: per-block shared memory exceeds per-SM capacity")
        if self.warp_size <= 0 or self.max_threads_per_block % self.warp_size:
            raise DeviceConfigError(
                f"{self.name}: max_threads_per_block must be a warp multiple")

    # --- derived rates --------------------------------------------------------

    @property
    def clock_hz(self) -> float:
        """SM clock in Hz."""
        return self.clock_ghz * 1e9

    @property
    def bandwidth_bytes_per_sec(self) -> float:
        """Peak global bandwidth in bytes/s."""
        return self.mem_bandwidth_gbps * 1e9

    def flops_per_cycle_per_sm(self, double_precision: bool) -> float:
        """Arithmetic ops retired per cycle per SM (FMA counted as 2 in FLOPS
        figures, but the cost model counts *operations*, so cores/cycle)."""
        rate = float(self.cores_per_sm)
        return rate * (self.dp_throughput_ratio if double_precision else 1.0)

    def malloc_seconds(self, nbytes: int) -> float:
        """Simulated duration of ``cudaMalloc(nbytes)``.

        Section IV-C: "The cost of cudaMalloc on Pascal GPU becomes larger
        compared to previous generation GPUs" -- a fixed driver cost plus a
        page-mapping cost linear in size.
        """
        return (self.malloc_base_us + self.malloc_per_mib_us * nbytes / (1 << 20)) * 1e-6

    def free_seconds(self) -> float:
        """Simulated duration of ``cudaFree``."""
        return self.free_base_us * 1e-6

    def with_memory(self, nbytes: int) -> "DeviceSpec":
        """Copy of this spec with a different device-memory capacity."""
        return replace(self, global_mem_bytes=int(nbytes),
                       name=f"{self.name}-{nbytes // (1 << 20)}MiB")


#: Tesla P100 PCI-e 16 GB -- the paper's evaluation device.
P100 = DeviceSpec(
    name="Tesla P100-PCIe-16GB",
    sm_count=56,
    cores_per_sm=64,
    clock_ghz=1.328,
    warp_size=32,
    max_threads_per_block=1024,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    shared_mem_per_sm=64 * 1024,
    max_shared_per_block=48 * 1024,
    global_mem_bytes=16 * 1024 ** 3,
    mem_bandwidth_gbps=732.0,
    mem_latency_cycles=300,
    transaction_bytes=32,
    shared_lanes_per_cycle=32,
    shared_atomic_cycles=2.0,
    global_atomic_cycles=40.0,
    dp_throughput_ratio=0.5,
    mlp_per_warp=16.0,
    kernel_launch_us=2.0,
    block_overhead_cycles=800.0,
    malloc_base_us=10.0,
    malloc_per_mib_us=1.0,
    free_base_us=4.0,
)

#: Kepler-generation card used for "previous generation" comparisons
#: (smaller device memory, cheaper cudaMalloc, fewer resident blocks).
K40 = DeviceSpec(
    name="Tesla K40",
    sm_count=15,
    cores_per_sm=192,
    clock_ghz=0.745,
    warp_size=32,
    max_threads_per_block=1024,
    max_threads_per_sm=2048,
    max_blocks_per_sm=16,
    shared_mem_per_sm=48 * 1024,
    max_shared_per_block=48 * 1024,
    global_mem_bytes=12 * 1024 ** 3,
    mem_bandwidth_gbps=288.0,
    mem_latency_cycles=350,
    transaction_bytes=32,
    shared_lanes_per_cycle=32,
    shared_atomic_cycles=4.0,
    global_atomic_cycles=60.0,
    dp_throughput_ratio=1.0 / 3.0,
    mlp_per_warp=4.0,
    kernel_launch_us=5.0,
    block_overhead_cycles=400.0,
    malloc_base_us=40.0,
    malloc_per_mib_us=0.4,
    free_base_us=15.0,
)


#: AMD Vega-class device (the paper's future work: "Our algorithm should
#: work well on AMD Radeon GPU since the architecture is similar to
#: NVIDIA GPUs").  64 CUs with 64-KB LDS each; occupancy semantics mapped
#: onto the same model.
VEGA56 = DeviceSpec(
    name="Radeon Vega 56",
    sm_count=56,
    cores_per_sm=64,
    clock_ghz=1.471,
    warp_size=64,
    max_threads_per_block=1024,
    max_threads_per_sm=2560,
    max_blocks_per_sm=40,
    shared_mem_per_sm=64 * 1024,
    max_shared_per_block=32 * 1024,
    global_mem_bytes=8 * 1024 ** 3,
    mem_bandwidth_gbps=410.0,
    mem_latency_cycles=350,
    transaction_bytes=64,
    shared_lanes_per_cycle=32,
    shared_atomic_cycles=2.0,
    global_atomic_cycles=40.0,
    dp_throughput_ratio=1.0 / 16.0,
    mlp_per_warp=16.0,
    kernel_launch_us=3.0,
    block_overhead_cycles=800.0,
    malloc_base_us=20.0,
    malloc_per_mib_us=0.5,
    free_base_us=5.0,
)

#: Named specs exposed to the CLI (``--device``) and to heterogeneous
#: device pools (``DevicePool.from_names``).
DEVICE_PRESETS: dict[str, DeviceSpec] = {
    "P100": P100,
    "K40": K40,
    "VEGA56": VEGA56,
}
