"""Deterministic weighted-fair queueing for multi-tenant job dispatch.

Classic WFQ virtual-time scheduling (start/finish tags), at job
granularity: each tenant owns a weight, each job a cost (its estimated
intermediate-product count, so one tenant's huge multiplies consume its
share faster than another's small ones).  A job's finish tag is::

    start  = max(queue_virtual_time, tenant_last_finish)
    finish = start + cost / weight

and dispatch always picks the smallest finish tag (FIFO within a
tenant, sequence number as the deterministic tie-break).  A tenant
flooding the queue only pushes its *own* finish tags out; other
tenants' jobs keep overtaking it -- the fairness half of the serving
layer's isolation story (the circuit breaker is the failure half).

The queue itself is not thread-safe; :class:`~repro.serve.SpGEMMServer`
serializes access under its own lock.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator


class WeightedFairQueue:
    """Bounded priority queue ordered by WFQ virtual finish time."""

    def __init__(self, *, capacity: int = 64,
                 default_weight: float = 1.0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.default_weight = float(default_weight)
        self._heap: list[tuple[float, int, Any]] = []
        self._vtime = 0.0
        self._seq = 0
        self._weights: dict[str, float] = {}
        self._tenant_finish: dict[str, float] = {}

    # -- configuration -----------------------------------------------------

    def set_weight(self, tenant: str, weight: float) -> None:
        """Give ``tenant`` a share ``weight`` (relative to the default 1.0)."""
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        self._weights[tenant] = float(weight)

    def weight(self, tenant: str) -> float:
        return self._weights.get(tenant, self.default_weight)

    # -- queue discipline --------------------------------------------------

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.capacity

    def push(self, item: Any, *, tenant: str, cost: float = 1.0) -> float:
        """Enqueue ``item`` for ``tenant``; returns its finish tag.

        Raises :class:`OverflowError` when the bound is hit -- the server
        translates that into the typed
        :class:`~repro.errors.ServerOverloadedError`.
        """
        if self.full:
            raise OverflowError(
                f"queue full ({len(self._heap)}/{self.capacity})")
        start = max(self._vtime, self._tenant_finish.get(tenant, 0.0))
        finish = start + max(cost, 1.0) / self.weight(tenant)
        self._tenant_finish[tenant] = finish
        heapq.heappush(self._heap, (finish, self._seq, item))
        self._seq += 1
        return finish

    def peek(self) -> Any:
        """The next item to dispatch (None when empty)."""
        return self._heap[0][2] if self._heap else None

    def pop(self) -> Any:
        """Dispatch the smallest-finish-tag item; advances virtual time."""
        finish, _, item = heapq.heappop(self._heap)
        # virtual time never runs ahead of the served tag and never
        # backwards: the invariant that keeps later start tags monotone
        self._vtime = max(self._vtime, finish)
        return item

    def remove(self, item: Any) -> bool:
        """Drop one queued item (identity match); True when found.

        Used for deadline expiry of still-queued jobs; O(n) but the
        queue is bounded and small.
        """
        for i, (_, _, it) in enumerate(self._heap):
            if it is item:
                self._heap[i] = self._heap[-1]
                self._heap.pop()
                heapq.heapify(self._heap)
                return True
        return False

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[Any]:
        """Queued items in dispatch order (non-destructive)."""
        return (item for _, _, item in sorted(self._heap))
