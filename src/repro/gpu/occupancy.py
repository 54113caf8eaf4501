"""Occupancy: how many blocks of a kernel fit on one SM simultaneously.

This is the lever behind Table I of the paper: halving the hash-table size
halves the per-block shared memory and thread count, doubling resident
blocks per SM ("#TB" in Table I) until the hardware cap of 32 is reached.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DeviceConfigError
from repro.gpu.device import DeviceSpec


@dataclass(frozen=True)
class Occupancy:
    """Result of the occupancy calculation for one kernel configuration."""

    blocks_per_sm: int       #: concurrently resident blocks per SM
    warps_per_block: int     #: warps in one block (threads rounded up)
    limited_by: str          #: 'threads' | 'shared' | 'blocks'


def occupancy_for(device: DeviceSpec, block_threads: int,
                  shared_bytes_per_block: int) -> Occupancy:
    """Compute resident blocks/SM for a launch configuration.

    Raises :class:`DeviceConfigError` when the configuration cannot launch
    at all (block too large, too much shared memory).
    """
    if block_threads <= 0:
        raise DeviceConfigError(f"block of {block_threads} threads")
    if block_threads > device.max_threads_per_block:
        raise DeviceConfigError(
            f"block of {block_threads} threads exceeds device limit "
            f"{device.max_threads_per_block}")
    if shared_bytes_per_block > device.max_shared_per_block:
        raise DeviceConfigError(
            f"{shared_bytes_per_block} B shared per block exceeds device limit "
            f"{device.max_shared_per_block} B")
    if shared_bytes_per_block < 0:
        raise DeviceConfigError("negative shared memory request")

    warps = -(-block_threads // device.warp_size)      # ceil division
    threads_rounded = warps * device.warp_size

    limits = {
        "threads": device.max_threads_per_sm // threads_rounded,
        "blocks": device.max_blocks_per_sm,
    }
    if shared_bytes_per_block > 0:
        limits["shared"] = device.shared_mem_per_sm // shared_bytes_per_block

    limit = min(limits, key=lambda k: (limits[k], k != "threads", k != "shared"))
    blocks = limits[limit]
    if blocks <= 0:
        raise DeviceConfigError(
            f"configuration (threads={block_threads}, "
            f"shared={shared_bytes_per_block}B) fits zero blocks per SM")
    return Occupancy(blocks_per_sm=int(blocks), warps_per_block=int(warps),
                     limited_by=limit)
