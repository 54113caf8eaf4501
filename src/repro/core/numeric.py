"""Numeric phase: computing, gathering and sorting the output rows (step (7)).

Same kernel shapes as the symbolic phase but on the *numeric* grouping (by
output nnz, step (6)) and with value work added: value-column init, one
atomic accumulation per intermediate product, the gather over occupied
slots and the rank sort by column index (Section III-C).  Group-0 rows go
directly to global-memory tables sized from their (now known) nnz.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import work as W
from repro.core.count_products import chunk_maxes, chunk_sums
from repro.core.grouping import GroupAssignment
from repro.core.params import ASSIGN_GLOBAL, ASSIGN_PWARP, GroupParams
from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import BlockWorks, KernelLaunch
from repro.types import Precision, next_pow2_array


@dataclass
class NumericPlan:
    """Kernels and memory demands of the numeric phase."""

    kernels: list[KernelLaunch] = field(default_factory=list)
    global_table_bytes: int = 0    #: Group-0 value tables in device memory
    #: per-group hash-table occupancy (emitted as ``hash_stats`` events)
    table_stats: list[dict] = field(default_factory=list)


def _shared_kernel(params: GroupParams, nnz_a, nprod, nnz_out,
                   precision: Precision, device: DeviceSpec,
                   stream: int) -> KernelLaunch:
    """TB/ROW or PWARP/ROW numeric kernel on shared-memory tables."""
    tsize = params.table_numeric
    shared_ops, shared_atomics, sort_flops = W.shared_hash_numeric(
        nprod, nnz_out, tsize, precision)
    flops = W.hash_flops(nprod) + 2.0 * np.asarray(nprod, np.float64) + sort_flops
    coalesced = W.stream_bytes_numeric(nnz_a, nprod, nnz_out, precision)
    scattered = W.scattered_transactions(nnz_a)

    pwarp = params.assignment == ASSIGN_PWARP
    if pwarp:
        rows_per_block = params.rows_per_block
        serial = W.pwarp_serial_cycles(nnz_a, nprod, params.pwarp_width,
                                       device.mem_latency_cycles)
        serial_col = chunk_maxes(serial, rows_per_block)
        # one dependent-chain latency pair per block, amortized over the
        # rows it hosts (all rows' chains overlap)
        flops = chunk_sums(flops, rows_per_block)
        shared_ops = chunk_sums(shared_ops, rows_per_block)
        shared_atomics = chunk_sums(shared_atomics, rows_per_block)
        coalesced = chunk_sums(coalesced, rows_per_block)
        scattered = chunk_sums(scattered, rows_per_block)
        shared_bytes = rows_per_block * tsize * precision.hash_entry_bytes
    else:
        # single-row block: the rpt_B -> col_B dependent chain is serial
        serial_col = np.full_like(np.asarray(flops, np.float64),
                                  2.0 * device.mem_latency_cycles)
        shared_bytes = tsize * precision.hash_entry_bytes

    works = BlockWorks(flops=flops, shared_ops=shared_ops,
                       shared_atomics=shared_atomics,
                       gmem_coalesced_bytes=coalesced,
                       gmem_random=scattered,
                       serial_cycles=serial_col)
    kind = "pwarp" if pwarp else "tb"
    return KernelLaunch(name=f"numeric_{kind}_g{params.gid}",
                        block_threads=params.block_threads,
                        shared_bytes_per_block=shared_bytes,
                        works=works, stream=stream, phase="calc",
                        tag=f"g{params.gid}")


def _global_kernel(params: GroupParams, nnz_a, nprod, nnz_out, table_sizes,
                   precision: Precision, stream: int) -> KernelLaunch:
    """Group-0 numeric kernel: hash accumulate on global tables."""
    rand, atomics, sort_flops = W.global_hash_numeric(nprod, nnz_out,
                                                      table_sizes)
    entry = precision.hash_entry_bytes
    works = BlockWorks(
        flops=W.hash_flops(nprod) + 2.0 * np.asarray(nprod, np.float64)
        + sort_flops,
        gmem_coalesced_bytes=(W.stream_bytes_numeric(nnz_a, nprod, nnz_out,
                                                     precision)
                              + entry * table_sizes),   # table init
        gmem_random=rand + W.scattered_transactions(nnz_a),
        gmem_atomics=atomics,
    )
    return KernelLaunch(name="numeric_tb_g0",
                        block_threads=params.block_threads,
                        shared_bytes_per_block=0,
                        works=works, stream=stream, phase="calc", tag="g0")


def group0_table_entries(nnz_out_rows: np.ndarray) -> np.ndarray:
    """Global numeric table sizes: next power of two above ``2 * nnz``.

    The factor 2 keeps the load factor at or below 0.5, mirroring the slack
    the symbolic tables get from being sized on intermediate products.
    """
    doubled = 2 * np.asarray(nnz_out_rows, dtype=np.int64)
    return next_pow2_array(doubled).astype(np.float64)


def plan_numeric(nnz_a_all: np.ndarray, assignment: GroupAssignment,
                 row_products: np.ndarray, row_nnz: np.ndarray,
                 precision: Precision, device: DeviceSpec) -> NumericPlan:
    """Build the numeric-phase kernels for the nnz-grouped matrix from
    full-length per-row arrays: A's row lengths, products and nnz."""
    plan = NumericPlan()
    for params, rows in assignment.nonempty():
        nnz_a = nnz_a_all[rows].astype(np.float64)
        nprod = row_products[rows].astype(np.float64)
        nnz_out = row_nnz[rows].astype(np.float64)
        stream = params.gid + 1
        if params.assignment == ASSIGN_GLOBAL:
            sizes = group0_table_entries(row_nnz[rows])
            plan.global_table_bytes += int(
                (precision.hash_entry_bytes * sizes).sum())
            plan.kernels.append(
                _global_kernel(params, nnz_a, nprod, nnz_out, sizes,
                               precision, stream))
            load = nnz_out / np.maximum(sizes, 1.0)
            plan.table_stats.append({
                "group": params.gid, "tables": int(rows.shape[0]),
                "table_entries": int(sizes.sum()),
                "load_mean": float(load.mean()) if load.size else 0.0,
                "load_max": float(load.max()) if load.size else 0.0,
            })
        else:
            plan.kernels.append(
                _shared_kernel(params, nnz_a, nprod, nnz_out, precision,
                               device, stream))
            tsize = params.table_numeric
            load = nnz_out / max(tsize, 1)
            plan.table_stats.append({
                "group": params.gid, "tables": int(rows.shape[0]),
                "table_entries": int(tsize),
                "load_mean": float(load.mean()) if load.size else 0.0,
                "load_max": float(load.max()) if load.size else 0.0,
            })
    return plan
