"""Distributed multi-GPU SpGEMM: pool, partitioner, interconnect, driver.

The subsystem scales the single-device simulation out to a pool of
simulated devices connected by a bandwidth-latency interconnect model;
:class:`DistSpGEMM` is the entry point, and ``devices=`` on the options
facade builds it (``repro.multiply(A, B, devices=4)``).
"""

from repro.dist.dist import LOSS_DETECT_SECONDS, DistSpGEMM
from repro.dist.interconnect import (NVLINK, PCIE3, PRESETS, Interconnect,
                                     parse_interconnect)
from repro.dist.partition import (Partition, estimate_row_work,
                                  partition_rows)
from repro.dist.pool import DevicePool, DeviceSlot

__all__ = [
    "DistSpGEMM",
    "LOSS_DETECT_SECONDS",
    "Interconnect",
    "PCIE3",
    "NVLINK",
    "PRESETS",
    "parse_interconnect",
    "Partition",
    "estimate_row_work",
    "partition_rows",
    "DevicePool",
    "DeviceSlot",
]
