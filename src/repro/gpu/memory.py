"""Device memory allocator with peak tracking and a ``cudaMalloc`` model.

Two of the paper's headline results hinge on memory:

* Figure 4 compares *maximum memory usage during SpGEMM* across libraries;
* Table III shows CUSP and BHSPARSE failing outright ("-") on cage15 and
  wb-edu because their temporaries exceed the 16 GB device.

Every algorithm in this package routes allocations through
:class:`DeviceMemory`, which tracks live bytes, records the high-water
mark, raises :class:`~repro.errors.DeviceMemoryError` past capacity, and
accumulates simulated ``cudaMalloc`` / ``cudaFree`` time (Section IV-C
singles out Pascal's allocation cost as a visible breakdown component).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DeviceFreeError, DeviceMemoryError, ReproError
from repro.gpu.device import DeviceSpec
from repro.gpu.faults import FaultPlan


@dataclass
class Allocation:
    """A live device allocation (returned by :meth:`DeviceMemory.alloc`)."""

    name: str
    nbytes: int
    freed: bool = False


@dataclass
class AllocationEvent:
    """One entry of the allocation trace (for tests and reports)."""

    kind: str        #: 'alloc' | 'free'
    name: str
    nbytes: int
    in_use_after: int


class DeviceMemory:
    """Tracks simulated device-memory usage for one SpGEMM run.

    Parameters
    ----------
    device:
        Supplies the capacity and the malloc/free cost model.
    charge_time:
        When False, allocations are accounted for peak/OOM purposes but add
        no simulated time (used for the full-scale analytic memory planner,
        where only sizes matter).
    faults:
        Optional :class:`~repro.gpu.faults.FaultPlan` consulted on every
        allocation: it can shrink the effective capacity or force an OOM
        at a chosen site.
    observer:
        Optional callback ``observer(event, peak)`` invoked with every
        :class:`AllocationEvent` as it is appended (including the
        teardown frees of :meth:`release_all`).  The run context uses it
        to mirror memory traffic onto its observability event bus.
    """

    def __init__(self, device: DeviceSpec, *, charge_time: bool = True,
                 faults: FaultPlan | None = None,
                 observer=None) -> None:
        self.device = device
        self.charge_time = charge_time
        self.faults = faults
        self.observer = observer
        self.in_use = 0
        self.peak = 0
        self.malloc_seconds = 0.0
        self.free_seconds = 0.0
        self.n_allocs = 0
        self.events: list[AllocationEvent] = []
        self._live: dict[int, Allocation] = {}

    def _record(self, event: AllocationEvent) -> None:
        self.events.append(event)
        if self.observer is not None:
            self.observer(event, self.peak)

    # ------------------------------------------------------------------

    def capacity(self) -> int:
        """Effective capacity: the device's, shrunk by any fault plan."""
        cap = self.device.global_mem_bytes
        if self.faults is not None:
            cap = self.faults.effective_capacity(cap)
        return cap

    def top_live(self, n: int = 5) -> list[tuple[str, int]]:
        """The ``n`` largest live allocations as ``(name, bytes)`` pairs."""
        live = sorted(self._live.values(), key=lambda a: a.nbytes, reverse=True)
        return [(a.name, a.nbytes) for a in live[:n]]

    def alloc(self, name: str, nbytes: int) -> Allocation:
        """Allocate ``nbytes``; raises :class:`DeviceMemoryError` on OOM
        (genuine or injected by the fault plan)."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ReproError(f"negative allocation {name!r}: {nbytes}")
        capacity = self.capacity()
        event = self.faults.check_alloc(name, nbytes) if self.faults else None
        if event is not None:
            raise DeviceMemoryError(
                f"cudaMalloc({name!r}, {nbytes:,} B) failed "
                f"(injected: {event.rule}): {self.in_use:,} B in use of "
                f"{capacity:,} B",
                requested=nbytes, in_use=self.in_use, capacity=capacity,
                live=self.top_live(), injected=True)
        if self.in_use + nbytes > capacity:
            raise DeviceMemoryError(
                f"cudaMalloc({name!r}, {nbytes:,} B) exceeds device capacity: "
                f"{self.in_use:,} B in use of {capacity:,} B",
                requested=nbytes, in_use=self.in_use,
                capacity=capacity, live=self.top_live())
        a = Allocation(name=name, nbytes=nbytes)
        self._live[id(a)] = a
        self.in_use += nbytes
        self.peak = max(self.peak, self.in_use)
        self.n_allocs += 1
        if self.charge_time:
            self.malloc_seconds += self.device.malloc_seconds(nbytes)
        self._record(AllocationEvent("alloc", name, nbytes, self.in_use))
        return a

    def free(self, allocation: Allocation) -> None:
        """Release an allocation (idempotence is an error: double free raises)."""
        if allocation.freed:
            raise DeviceFreeError(
                f"double free of {allocation.name!r} "
                f"({self.in_use:,} B in use)",
                requested=allocation.nbytes, in_use=self.in_use,
                capacity=self.capacity(), live=self.top_live())
        if id(allocation) not in self._live:
            raise DeviceFreeError(
                f"cudaFree of {allocation.name!r} not owned by this "
                f"allocator ({self.in_use:,} B in use)",
                requested=allocation.nbytes, in_use=self.in_use,
                capacity=self.capacity(), live=self.top_live())
        allocation.freed = True
        del self._live[id(allocation)]
        self.in_use -= allocation.nbytes
        if self.charge_time:
            self.free_seconds += self.device.free_seconds()
        self._record(
            AllocationEvent("free", allocation.name, allocation.nbytes, self.in_use))

    def free_all(self) -> None:
        """Release everything still live (end-of-run cleanup)."""
        for a in list(self._live.values()):
            self.free(a)

    def release_all(self) -> list[Allocation]:
        """Teardown: free every live allocation *without* charging simulated
        time -- the cleanup of an aborted (or finished) run happens outside
        the measured region, like the resident-input uploads.  Returns the
        allocations that were still live, so error paths can report what a
        non-exception-safe implementation would have leaked."""
        released = list(self._live.values())
        for a in released:
            a.freed = True
            self.in_use -= a.nbytes
            self._record(AllocationEvent("free", a.name, a.nbytes, self.in_use))
        self._live.clear()
        return released

    # -- context manager: guarantees no allocation outlives the run --------

    def __enter__(self) -> "DeviceMemory":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release_all()
        return False

    # ------------------------------------------------------------------

    @property
    def live_allocations(self) -> list[Allocation]:
        """Currently live allocations, in insertion order."""
        return list(self._live.values())

    def __repr__(self) -> str:
        return (f"DeviceMemory(in_use={self.in_use:,}, peak={self.peak:,}, "
                f"capacity={self.device.global_mem_bytes:,})")
