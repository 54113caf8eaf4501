"""Discrete-event simulation of thread-block dispatch onto SMs.

This is where load balance -- the central concern of the paper -- comes
from.  Each kernel is a bag of blocks with individual durations (from
:mod:`repro.gpu.cost`).  Blocks are dispatched FIFO onto any SM with free
resources (threads, shared memory, block slots), mirroring the GPU's
hardware work distributor.  A single 4700-nnz webbase row therefore holds
one SM hostage while the rest drain, exactly the pathology the paper's
grouping fixes.

Stream semantics follow CUDA: kernels on the same stream serialize in
issue order; kernels on different streams co-schedule whenever SM
resources allow.  Passing ``use_streams=False`` forces serialization --
that switch is the paper's Section IV-C stream ablation (x1.3 on Circuit).

Two exact implementations share that model.  A phase whose launches all
serialize (one stream, or ``use_streams=False``) is list-scheduled onto
*lanes*, the kernel's resident-block slots: each kernel starts on an
empty device, every block has one footprint, so FIFO dispatch starts
each block at the earliest lane-free time and the SM it lands on never
changes a timestamp.  Phases with launches on two or more streams (the
proposal's per-group kernels, Section IV-C) run the discrete-event loop,
which tracks per-SM threads, shared memory and block slots and hands a
freed slot straight back to the kernel it came from whenever the full
dispatch scan could only do the same.  Both equal, bit for bit, the
per-block event loop that the tests keep as their oracle.

:func:`list_schedule` takes the lane counts and the issue gap as
arguments, so it is the one list-scheduling routine of both backends:
the CPU backend (:func:`repro.cpu.cost.simulate_cpu_phase`) runs every
phase through it with a region's worker threads as its lanes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import math
from bisect import insort
from dataclasses import dataclass

import numpy as np

from repro import perf
from repro.errors import HashTableError, SchedulerError
from repro.gpu.cost import block_durations
from repro.gpu.device import DeviceSpec
from repro.gpu.faults import FaultPlan
from repro.gpu.kernel import KernelLaunch
from repro.gpu.occupancy import occupancy_for
from repro.gpu.timeline import KernelRecord
from repro.types import Precision

#: Hard cap on simulated events, as a runaway guard (not a tuning knob).
MAX_EVENTS = 20_000_000

#: Retained phase schedules.  Iterative workloads re-simulate identical
#: kernel sets at identical clock offsets every iteration; the memo turns
#: those repeats into a dict lookup.  256 entries cover the bench suites'
#: working sets with room to spare (each entry is a handful of records).
_MEMO_CAPACITY = 256

#: digest -> (end time, records)
_memo = perf.LRUCache(_MEMO_CAPACITY)

#: Per-DeviceSpec key bytes, cached by identity (the spec is frozen-by-
#: convention; the strong reference keeps the id valid while cached):
#: id(spec) -> (spec, key bytes).
_device_keys = perf.LRUCache(64)


@perf.register_cache_clearer
def clear_phase_memo() -> None:
    """Drop every memoized phase schedule (tests, wall-clock harness)."""
    _memo.clear()
    _device_keys.clear()


def _device_key(device: DeviceSpec) -> bytes:
    entry = _device_keys.get(id(device))
    if entry is None or entry[0] is not device:
        entry = (device, repr(dataclasses.astuple(device)).encode())
        _device_keys.put(id(device), entry)
    return entry[1]


def _phase_key(kernels: list[KernelLaunch], device: DeviceSpec,
               precision: Precision, start_time: float,
               use_streams: bool) -> bytes:
    """Content digest of everything the simulation is a function of.

    The schedule depends on the device's *full* resource model (not just
    its name -- tests run modified presets under the same name), the
    precision, the stream switch, the start time (timestamps are stored
    absolute, so a hit reproduces them bit-for-bit) and, per kernel, the
    launch configuration plus the seven work columns that determine the
    block durations.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(_device_key(device))
    h.update(precision.value.encode())
    h.update(b"s" if use_streams else b"n")
    h.update(np.float64(start_time).tobytes())
    for k in kernels:
        h.update(k.work_digest())
    return h.digest()


@dataclass
class PhaseSchedule:
    """Result of simulating one phase (a set of kernel launches)."""

    start: float
    end: float
    records: list[KernelRecord]

    @property
    def duration(self) -> float:
        """Phase wall-clock span in seconds."""
        return self.end - self.start


class _KernelState:
    __slots__ = ("kernel", "durations", "seconds", "n_blocks", "threads",
                 "shared", "next_block", "done", "ready_at", "first_start",
                 "finish", "index")

    def __init__(self, index: int, kernel: KernelLaunch, durations,
                 device: DeviceSpec) -> None:
        occ = occupancy_for(device, kernel.block_threads,
                            kernel.shared_bytes_per_block)
        self.index = index
        self.kernel = kernel
        self.durations = durations
        self.seconds = durations.tolist()   # float per block, for events
        self.n_blocks = len(durations)
        # resource footprint of one block on an SM
        self.threads = occ.warps_per_block * device.warp_size
        self.shared = kernel.shared_bytes_per_block
        self.next_block = 0
        self.done = 0
        self.ready_at: float | None = None   # None = not yet ready
        self.first_start: float | None = None
        self.finish: float | None = None

    @property
    def dispatch_complete(self) -> bool:
        return self.next_block >= self.n_blocks


def simulate_phase(kernels: list[KernelLaunch], device: DeviceSpec,
                   precision: Precision | str, *, start_time: float = 0.0,
                   use_streams: bool = True,
                   faults: FaultPlan | None = None) -> PhaseSchedule:
    """Simulate the concurrent execution of ``kernels`` on ``device``.

    Kernels are issued host-side in list order, each issue costing
    ``kernel_launch_us``; a kernel becomes *ready* when its issue has
    happened and its stream predecessor (if any) has finished.  Returns the
    phase schedule with one :class:`KernelRecord` per launch.

    A :class:`~repro.gpu.faults.FaultPlan` may inject a hash-table-full
    event at launch time -- the model of a global retry table overflowing
    mid-kernel, surfaced host-side as :class:`HashTableError`.

    The simulation is a pure function of (kernels, device, precision,
    stream switch, start time), so fault-free phases are memoized by a
    content digest of exactly those inputs: iterative workloads replay
    identical kernel sets at identical clock offsets every iteration,
    and a hit returns bit-identical records (stored with absolute
    timestamps) without re-running the schedule.  Fault plans always
    simulate live (``check_kernel`` is stateful).
    """
    if not kernels:
        return PhaseSchedule(start=start_time, end=start_time, records=[])
    raise_injected_faults(kernels, faults)

    p = Precision.parse(precision)
    key: bytes | None = None
    if faults is None:
        key = _phase_key(kernels, device, p, start_time, use_streams)
        hit = _memo.get(key)
        if hit is not None:
            end, records = hit
            return PhaseSchedule(start=start_time, end=end,
                                 records=[dataclasses.replace(r)
                                          for r in records])
    durations = [block_durations(k, device, p) for k in kernels]
    serial = not use_streams or all(k.stream == kernels[0].stream
                                    for k in kernels)
    if serial:
        records = _lane_schedule(kernels, durations, device, start_time,
                                 use_streams)
    else:
        records = _event_loop(kernels, durations, device, start_time,
                              use_streams)
    end = max(r.end for r in records)
    if key is not None:
        _memo.put(key, (end, tuple(dataclasses.replace(r) for r in records)))
    return PhaseSchedule(start=start_time, end=end, records=records)


def raise_injected_faults(kernels: list[KernelLaunch],
                          faults: FaultPlan | None) -> None:
    """Raise :class:`HashTableError` at the first launch ``faults`` fails.

    Both backends' schedulers call this first, before any memo lookup
    or simulation: ``check_kernel`` is stateful.
    """
    if faults is None:
        return
    for k in kernels:
        event = faults.check_kernel(k.name)
        if event is not None:
            raise HashTableError(
                f"hash table full in kernel {k.name!r} "
                f"(injected: {event.rule})")


def list_schedule(kernels: list[KernelLaunch], durations: list[np.ndarray],
                  lanes: list[int], issue_gap: float, start_time: float,
                  use_streams: bool) -> list[KernelRecord]:
    """Records of a phase whose launches all serialize, without events.

    Kernel ``i`` is issued at ``start_time + (i + 1) * issue_gap``, is
    ready at ``max(predecessor's finish, its issue time)`` and then owns
    ``lanes[i]`` identical lanes.  Blocks start in index order at the
    earliest lane-free time (``now + d``, the event loop's float
    expression), so on the GPU the records equal :func:`_event_loop`'s
    bit for bit.
    """
    if sum(len(d) for d in durations) + len(kernels) > MAX_EVENTS:
        raise SchedulerError("event budget exceeded; runaway simulation")
    records = []
    finish = -math.inf
    for i, (k, d, n) in enumerate(zip(kernels, durations, lanes)):
        if d.shape[0] == 0:
            raise SchedulerError(
                f"{len(kernels) - i} kernels never completed "
                "(dispatch deadlock)")
        ready = max(finish, start_time + (i + 1) * issue_gap)
        h = (ready + d[:n]).tolist()
        heapq.heapify(h)
        for x in d[n:].tolist():
            heapq.heapreplace(h, h[0] + x)
        finish = max(h)
        records.append(KernelRecord(
            name=k.name, phase=k.phase,
            stream=k.stream if use_streams else 0,
            start=float(ready), end=finish, n_blocks=d.shape[0],
            block_seconds=float(d.sum())))
    return records


def _lane_schedule(kernels: list[KernelLaunch], durations: list[np.ndarray],
                   device: DeviceSpec, start_time: float,
                   use_streams: bool) -> list[KernelRecord]:
    """:func:`list_schedule` on ``device``: each kernel owns an empty
    device, ``blocks_per_sm x sm_count`` lanes, and each issue costs
    ``kernel_launch_us``."""
    lanes = [occupancy_for(device, k.block_threads,
                           k.shared_bytes_per_block).blocks_per_sm
             * device.sm_count for k in kernels]
    return list_schedule(kernels, durations, lanes,
                         device.kernel_launch_us * 1e-6, start_time,
                         use_streams)


def _event_loop(kernels: list[KernelLaunch], durations: list[np.ndarray],
                device: DeviceSpec, start_time: float,
                use_streams: bool) -> list[KernelRecord]:
    """Discrete-event simulation of FIFO block dispatch onto SMs.

    Tracks every SM's free threads, shared memory and block slots, so
    kernels on different streams co-schedule whenever they fit.  A
    dispatch round offers the ready kernels, in issue order, every freed
    SM in ascending order, and leaves a *fixed point*: no SM has room
    for another block of any ready kernel with blocks left.

    So a block completion of the lowest-index such kernel frees room for
    exactly one more of its blocks on that SM, and the round after it
    places that kernel's next block there and changes nothing else.  A
    lone completion of that kind is one heap replace; several at one
    instant, with blocks left for all of them, refill their SMs in
    ascending order.  Every other event (another kernel's completion, a
    kernel becoming ready, a kernel running out of blocks) runs the full
    round.  Records, event counts and the sequence numbers that break
    time ties are those of the per-block loop the tests keep as oracle.
    """
    states = [_KernelState(i, k, d, device)
              for i, (k, d) in enumerate(zip(kernels, durations))]

    issue_gap = device.kernel_launch_us * 1e-6
    heap: list[tuple[float, int, int, int, int, int]] = []
    seq = 0
    # event tuples: (time, seq, kind, kernel_idx, sm, threads) where kind
    # 0 = kernel becomes ready, 1 = block completion; a kernel's stream
    # successor (all on one stream when streams are disabled) becomes
    # ready when it finishes; first issues are appended in time order,
    # so the list is a heap
    successor: list[int | None] = [None] * len(states)
    last_on_stream: dict[int, int] = {}
    for st in states:
        stream = st.kernel.stream if use_streams else 0
        if stream in last_on_stream:
            successor[last_on_stream[stream]] = st.index
        else:
            heap.append((start_time + (st.index + 1) * issue_gap, seq, 0,
                         st.index, -1, 0))
            seq += 1
        last_on_stream[stream] = st.index

    # per-SM free resources
    threads_free = [device.max_threads_per_sm] * device.sm_count
    shared_free = [device.shared_mem_per_sm] * device.sm_count
    blocks_free = [device.max_blocks_per_sm] * device.sm_count

    n_events = 0
    finished = 0
    # indices of ready kernels with blocks left, kept sorted (FIFO by
    # issue order) via insort -- no per-insert sort, no O(n) removals
    ready: list[int] = []

    all_sms = range(device.sm_count)

    def try_dispatch(now: float, sms) -> None:
        nonlocal seq
        still_ready = []
        for idx in ready:
            st = states[idx]
            for sm in sms:
                if st.dispatch_complete:
                    break
                fit_t = threads_free[sm] // st.threads
                fit_b = blocks_free[sm]
                fit_s = (shared_free[sm] // st.shared) if st.shared > 0 else fit_b
                n_fit = min(fit_t, fit_b, fit_s,
                            st.n_blocks - st.next_block)
                if n_fit <= 0:
                    continue
                threads_free[sm] -= n_fit * st.threads
                shared_free[sm] -= n_fit * st.shared
                blocks_free[sm] -= n_fit
                if st.first_start is None:
                    st.first_start = now
                for b in range(st.next_block, st.next_block + n_fit):
                    heapq.heappush(heap, (now + st.seconds[b], seq, 1,
                                          st.index, sm, st.threads))
                    seq += 1
                st.next_block += n_fit
            if not st.dispatch_complete:
                still_ready.append(idx)
        ready[:] = still_ready

    # SM of every block completed since the last round; whether a
    # completion of another kernel than ready[0] is among them
    freed: list[int] = []
    foreign = False
    new_ready = False
    while heap:
        if ready and not freed and not new_ready:
            # at the fixed point: lone completions of ready[0] refill
            st = states[ready[0]]
            k, seconds, b0 = st.index, st.seconds, st.next_block
            b, end = b0, min(st.n_blocks, b0 + MAX_EVENTS - n_events)
            n = len(heap)    # a replace keeps the size
            replace = heapq.heapreplace
            while b < end:
                now, _, _, idx, sm, threads = heap[0]
                # another event at this instant makes a group
                if idx != k or n > 1 and (heap[1][0] == now
                                          or n > 2 and heap[2][0] == now):
                    break
                replace(heap, (now + seconds[b], seq, 1, k, sm, threads))
                seq += 1
                b += 1
            n_events += b - b0
            st.done += b - b0
            st.next_block = b
            if st.dispatch_complete:
                del ready[0]
        n_events += 1
        if n_events > MAX_EVENTS:
            raise SchedulerError("event budget exceeded; runaway simulation")
        now, _, kind, k_idx, sm, threads = heapq.heappop(heap)
        st = states[k_idx]
        if kind == 0:
            st.ready_at = now
            insort(ready, st.index)
            new_ready = True
        else:
            threads_free[sm] += threads
            shared_free[sm] += st.shared
            blocks_free[sm] += 1
            freed.append(sm)
            foreign = foreign or not ready or ready[0] != k_idx
            st.done += 1
            if st.done == st.n_blocks:
                st.finish = now
                finished += 1
                succ = successor[k_idx]
                if succ is not None:
                    issue_time = start_time + (succ + 1) * issue_gap
                    heapq.heappush(heap, (max(now, issue_time), seq, 0, succ,
                                          -1, 0))
                    seq += 1
        # coalesce simultaneous events before dispatching
        if heap and heap[0][0] == now:
            continue
        if ready and (new_ready or freed):
            head = states[ready[0]]
            if (new_ready or foreign
                    or head.n_blocks - head.next_block < len(freed)):
                try_dispatch(now, all_sms if new_ready else sorted(set(freed)))
            else:
                # the fixed-point refill of several completions at once
                for sm in sorted(freed):
                    threads_free[sm] -= head.threads
                    shared_free[sm] -= head.shared
                    blocks_free[sm] -= 1
                    heapq.heappush(heap, (now + head.seconds[head.next_block],
                                          seq, 1, head.index, sm,
                                          head.threads))
                    seq += 1
                    head.next_block += 1
                if head.dispatch_complete:
                    del ready[0]
        freed.clear()
        foreign = new_ready = False

    if finished != len(states):
        raise SchedulerError(
            f"{len(states) - finished} kernels never completed "
            "(dispatch deadlock)")

    records = []
    for st in states:
        records.append(KernelRecord(
            name=st.kernel.name,
            phase=st.kernel.phase,
            stream=st.kernel.stream if use_streams else 0,
            start=float(st.first_start if st.first_start is not None else st.ready_at),
            end=float(st.finish),
            n_blocks=st.n_blocks,
            block_seconds=float(st.durations.sum()),
        ))
    return records
