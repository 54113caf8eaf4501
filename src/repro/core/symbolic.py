"""Symbolic phase: counting the output nnz of each row (steps (3)-(4)).

Builds one kernel launch per non-empty group -- PWARP/ROW (Alg. 3) for the
tiny-row group, TB/ROW (Alg. 4) otherwise -- each on its own CUDA stream,
plus the Group-0 two-phase: a first *try* with the largest shared-memory
table (rows that overflow record themselves and abort) and a *retry* on
per-row global-memory tables sized by the intermediate-product count
(Section III-B.2).

The functional result (exact per-row nnz) is computed by the vectorized
distinct-count oracle; the hash kernels are semantically a distinct count,
and the exact :class:`~repro.core.hashtable.HashTable` is checked against
the oracle in the unit tests.
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
from repro.types import next_pow2_array


@dataclass
class SymbolicPlan:
    """Kernels and memory demands of the symbolic phase."""

    kernels: list[KernelLaunch] = field(default_factory=list)
    retry_kernel: KernelLaunch | None = None
    failed_rows: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    global_table_bytes: int = 0        #: global hash tables for failed rows
    row_nnz: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    #: per-group hash-table occupancy (emitted as ``hash_stats`` events)
    table_stats: list[dict] = field(default_factory=list)


def _table_stat(gid: int, tables: int, entries: int,
                nnz_out: np.ndarray) -> dict:
    """Occupancy of one group's hash tables: load = distinct keys / size."""
    load = np.asarray(nnz_out, np.float64) / max(entries, 1)
    return {"group": gid, "tables": int(tables), "table_entries": int(entries),
            "load_mean": float(load.mean()) if load.size else 0.0,
            "load_max": float(load.max()) if load.size else 0.0}


def _tb_kernel(params: GroupParams, nnz_a, nprod, nnz_out,
               device: DeviceSpec, stream: int) -> KernelLaunch:
    """TB/ROW counting kernel: one block per row (Alg. 4).

    A one-row block cannot start hashing before its dependent chain of
    ``rpt_A -> rpt_B -> col_B`` loads resolves: two memory latencies of
    unhideable serial time per block."""
    tsize = params.table_symbolic
    shared_ops, shared_atomics = W.shared_hash_symbolic(nprod, nnz_out, tsize)
    works = BlockWorks(
        flops=W.hash_flops(nprod),
        shared_ops=shared_ops,
        shared_atomics=shared_atomics,
        gmem_coalesced_bytes=W.stream_bytes_symbolic(nnz_a, nprod),
        gmem_random=W.scattered_transactions(nnz_a),
        serial_cycles=np.full_like(nprod, 2.0 * device.mem_latency_cycles),
    )
    return KernelLaunch(name=f"symbolic_tb_g{params.gid}",
                        block_threads=params.block_threads,
                        shared_bytes_per_block=tsize * 4,
                        works=works, stream=stream, phase="count",
                        tag=f"g{params.gid}")


def _pwarp_kernel(params: GroupParams, nnz_a, nprod, nnz_out,
                  device: DeviceSpec, stream: int) -> KernelLaunch:
    """PWARP/ROW counting kernel: ``pwarp_width`` threads per row, many
    rows per block (Alg. 3)."""
    rows_per_block = params.rows_per_block
    tsize = params.table_symbolic
    shared_ops, shared_atomics = W.shared_hash_symbolic(nprod, nnz_out, tsize)
    serial = W.pwarp_serial_cycles(nnz_a, nprod, params.pwarp_width,
                                   device.mem_latency_cycles)
    works = BlockWorks(
        flops=chunk_sums(W.hash_flops(nprod), rows_per_block),
        shared_ops=chunk_sums(shared_ops, rows_per_block),
        shared_atomics=chunk_sums(shared_atomics, rows_per_block),
        gmem_coalesced_bytes=chunk_sums(
            W.stream_bytes_symbolic(nnz_a, nprod), rows_per_block),
        gmem_random=chunk_sums(W.scattered_transactions(nnz_a), rows_per_block),
        serial_cycles=chunk_maxes(serial, rows_per_block),
    )
    return KernelLaunch(name=f"symbolic_pwarp_g{params.gid}",
                        block_threads=params.block_threads,
                        shared_bytes_per_block=rows_per_block * tsize * 4,
                        works=works, stream=stream, phase="count",
                        tag=f"g{params.gid}")


def _group0_try_kernel(params: GroupParams, try_table: int, nnz_a, nprod,
                       nnz_out, stream: int) -> KernelLaunch:
    """Group-0 first phase: attempt with the largest shared table.

    Rows whose distinct-column count exceeds ``try_table`` abort once the
    table fills; the work charged for them is the fraction of products
    expected before overflow detection (products are assumed evenly
    interleaved among distinct columns) plus the flag write.
    """
    failed = nnz_out > try_table
    frac = np.where(failed, np.minimum(1.0, try_table / np.maximum(nnz_out, 1)),
                    1.0)
    eff_prod = nprod * frac
    eff_nnz = np.minimum(nnz_out, try_table)
    shared_ops, shared_atomics = W.shared_hash_symbolic(eff_prod, eff_nnz,
                                                        try_table)
    works = BlockWorks(
        flops=W.hash_flops(eff_prod),
        shared_ops=shared_ops,
        shared_atomics=shared_atomics,
        gmem_coalesced_bytes=W.stream_bytes_symbolic(nnz_a, eff_prod) + 4.0,
        gmem_random=W.scattered_transactions(nnz_a) * frac,
    )
    return KernelLaunch(name="symbolic_tb_g0_try",
                        block_threads=params.block_threads,
                        shared_bytes_per_block=try_table * 4,
                        works=works, stream=stream, phase="count", tag="g0")


def global_recount_kernel(name: str, tag: str, block_threads: int,
                          nnz_a, row_products, nnz_out
                          ) -> tuple[KernelLaunch, np.ndarray]:
    """Exact recount of rows on per-row global-memory hash tables.

    The Group-0 retry (Section III-B.2) and the estimated symbolic
    phase's recount of bound-violating rows are this one kernel: each
    row's table holds the next power of two above its intermediate
    products, every probe is a scattered global load, every insert a
    global CAS, plus the streaming table init and operand reads.
    Returns the launch and the per-row table sizes in entries.
    """
    sizes = next_pow2_array(row_products).astype(np.float64)
    nnz_a = np.asarray(nnz_a, dtype=np.float64)
    nprod = np.asarray(row_products, dtype=np.float64)
    rand, atomics = W.global_hash_symbolic(
        nprod, np.asarray(nnz_out, dtype=np.float64), sizes)
    works = BlockWorks(
        flops=W.hash_flops(nprod),
        gmem_coalesced_bytes=(W.stream_bytes_symbolic(nnz_a, nprod)
                              + 4.0 * sizes),   # table init store
        gmem_random=rand + W.scattered_transactions(nnz_a),
        gmem_atomics=atomics,
    )
    return KernelLaunch(name=name, block_threads=block_threads,
                        shared_bytes_per_block=0, works=works, stream=0,
                        phase="count", tag=tag), sizes


def plan_symbolic(nnz_a_all: np.ndarray, assignment: GroupAssignment,
                  row_products: np.ndarray, row_nnz: np.ndarray,
                  device: DeviceSpec) -> SymbolicPlan:
    """Build the symbolic-phase kernels for a grouped matrix.

    ``nnz_a_all`` (A's row lengths), ``row_products`` and ``row_nnz``
    are full-length per-row arrays (the last from the functional oracle
    standing in for the hash count).
    """
    plan = SymbolicPlan(row_nnz=row_nnz)
    try_table = assignment.table.max_shared_table_symbolic

    for params, rows in assignment.nonempty():
        nnz_a = nnz_a_all[rows].astype(np.float64)
        nprod = row_products[rows].astype(np.float64)
        nnz_out = row_nnz[rows].astype(np.float64)
        stream = params.gid + 1
        if params.assignment == ASSIGN_PWARP:
            plan.kernels.append(
                _pwarp_kernel(params, nnz_a, nprod, nnz_out, device, stream))
            plan.table_stats.append(_table_stat(
                params.gid, rows.shape[0], params.table_symbolic, nnz_out))
        elif params.assignment == ASSIGN_GLOBAL:
            plan.kernels.append(
                _group0_try_kernel(params, try_table, nnz_a, nprod, nnz_out,
                                   stream))
            # the try tables' load factor exceeding 1.0 is exactly the
            # overflow that routes rows into the global retry
            plan.table_stats.append(_table_stat(
                params.gid, rows.shape[0], try_table, nnz_out))
            failed_mask = nnz_out > try_table
            failed = rows[failed_mask]
            if failed.shape[0]:
                plan.failed_rows = failed
                plan.retry_kernel, sizes = global_recount_kernel(
                    "symbolic_tb_g0_retry", "g0retry", params.block_threads,
                    nnz_a[failed_mask], row_products[failed],
                    nnz_out[failed_mask])
                plan.global_table_bytes = int(4 * sizes.sum())
                retry_load = nnz_out[failed_mask] / sizes
                plan.table_stats.append({
                    "group": params.gid, "tables": int(failed.shape[0]),
                    "table_entries": int(sizes.sum()),
                    "load_mean": float(retry_load.mean()),
                    "load_max": float(retry_load.max()),
                    "retry": True,
                })
        else:
            plan.kernels.append(
                _tb_kernel(params, nnz_a, nprod, nnz_out, device, stream))
            plan.table_stats.append(_table_stat(
                params.gid, rows.shape[0], params.table_symbolic, nnz_out))
    return plan
