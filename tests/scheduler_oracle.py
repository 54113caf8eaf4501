"""The per-block discrete-event loop: the scheduler tests' oracle.

:func:`event_loop` is the GPU block scheduler as it was written before
the lane schedule and the fixed-point refill: every block completion
pops one event and every dispatch round scans the ready kernels over
the freed SMs.  It tracks every SM's free threads, shared memory and
block slots, so kernels on different streams co-schedule whenever they
fit.  ``repro.gpu.scheduler``'s two implementations (``_lane_schedule``
for serialized phases, ``_event_loop`` for multi-stream ones) must
return its records bit for bit.
"""

from __future__ import annotations

import heapq
from bisect import insort

import numpy as np

from repro.errors import SchedulerError
from repro.gpu import scheduler
from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import KernelLaunch
from repro.gpu.occupancy import occupancy_for
from repro.gpu.timeline import KernelRecord


class _KernelState:
    __slots__ = ("kernel", "durations", "threads", "shared", "next_block",
                 "done", "ready_at", "first_start", "finish", "index")

    def __init__(self, index: int, kernel: KernelLaunch, durations,
                 device: DeviceSpec) -> None:
        occ = occupancy_for(device, kernel.block_threads,
                            kernel.shared_bytes_per_block)
        self.index = index
        self.kernel = kernel
        self.durations = durations
        # resource footprint of one block on an SM
        self.threads = occ.warps_per_block * device.warp_size
        self.shared = kernel.shared_bytes_per_block
        self.next_block = 0
        self.done = 0
        self.ready_at: float | None = None   # None = not yet ready
        self.first_start: float | None = None
        self.finish: float | None = None

    @property
    def n_blocks(self) -> int:
        return len(self.durations)

    @property
    def dispatch_complete(self) -> bool:
        return self.next_block >= self.n_blocks


def event_loop(kernels: list[KernelLaunch], durations: list[np.ndarray],
               device: DeviceSpec, start_time: float,
               use_streams: bool) -> list[KernelRecord]:
    """Discrete-event simulation of FIFO block dispatch onto SMs, one
    event per block; raises at ``scheduler.MAX_EVENTS`` events, as the
    package's scheduler does."""
    states = [_KernelState(i, k, d, device)
              for i, (k, d) in enumerate(zip(kernels, durations))]

    # stream predecessor chains (all on one stream when streams disabled)
    prev_on_stream: dict[int, int] = {}
    predecessor: list[int | None] = [None] * len(states)
    for st in states:
        stream = st.kernel.stream if use_streams else 0
        if stream in prev_on_stream:
            predecessor[st.index] = prev_on_stream[stream]
        prev_on_stream[stream] = st.index

    # per-SM free resources
    threads_free = [device.max_threads_per_sm] * device.sm_count
    shared_free = [device.shared_mem_per_sm] * device.sm_count
    blocks_free = [device.max_blocks_per_sm] * device.sm_count

    issue_gap = device.kernel_launch_us * 1e-6
    heap: list[tuple[float, int, int, int, int, int]] = []
    seq = 0
    # event tuples: (time, seq, kind, kernel_idx, sm, threads) where kind
    # 0 = kernel becomes ready, 1 = block completion
    for st in states:
        issue_time = start_time + (st.index + 1) * issue_gap
        if predecessor[st.index] is None:
            heapq.heappush(heap, (issue_time, seq, 0, st.index, -1, 0))
            seq += 1

    n_events = 0
    finished = 0
    # indices of ready kernels with blocks left, kept sorted (FIFO by
    # issue order) via insort -- no per-insert sort, no O(n) removals
    ready: list[int] = []

    all_sms = range(device.sm_count)

    def try_dispatch(now: float, sms=None) -> None:
        nonlocal seq
        scan = all_sms if sms is None else sms
        still_ready = []
        for idx in ready:
            st = states[idx]
            for sm in scan:
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
                    heapq.heappush(
                        heap,
                        (now + float(st.durations[b]), seq, 1, st.index, sm,
                         st.threads))
                    seq += 1
                st.next_block += n_fit
            if not st.dispatch_complete:
                still_ready.append(idx)
        ready[:] = still_ready

    freed_sms: set[int] = set()
    new_ready = False
    while heap:
        n_events += 1
        if n_events > scheduler.MAX_EVENTS:
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
            freed_sms.add(sm)
            st.done += 1
            if st.done == st.n_blocks:
                st.finish = now
                finished += 1
                # wake stream successors
                for succ in states:
                    if predecessor[succ.index] == st.index:
                        issue_time = start_time + (succ.index + 1) * issue_gap
                        heapq.heappush(heap,
                                       (max(now, issue_time), seq, 0,
                                        succ.index, -1, 0))
                        seq += 1
        # coalesce simultaneous events before dispatching
        if heap and heap[0][0] == now:
            continue
        if ready and (new_ready or freed_sms):
            try_dispatch(now, None if new_ready else sorted(freed_sms))
        freed_sms.clear()
        new_ready = False

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
