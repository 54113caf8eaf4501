"""Shared stores of the simulator core's cross-run memos.

Two concerns live here, both deliberately tiny and dependency-free:

* the fast-cache registry -- every module that keeps a cross-run memo
  registers a clearer here, so tests and the wall-clock harness can
  restore a cold-process state with one call
  (:func:`clear_fast_caches`);
* :class:`LRUCache` -- the one bounded, thread-safe store behind those
  memos (the product cache, the recipe store, the pattern-fingerprint
  memo, the phase memo).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

_clearers: list[Callable[[], None]] = []


def register_cache_clearer(fn: Callable[[], None]) -> Callable[[], None]:
    """Register a module's cache-drop callback; returns ``fn`` (decorator
    friendly).  Idempotent per function object."""
    if fn not in _clearers:
        _clearers.append(fn)
    return fn


def clear_fast_caches() -> None:
    """Drop every registered cross-run memo (cold-process state).

    Covers the functional product cache, the recipe store, the
    pattern-fingerprint memo and the scheduler's phase memo; modules
    register themselves on import, and the product module is imported
    here so a bare ``clear_fast_caches()`` always reaches its stores.
    """
    from repro.sparse import product

    product.clear_cache()
    for fn in _clearers:
        fn()


class LRUCache:
    """Thread-safe LRU map bounded by the total ``size`` of its values.

    ``size`` defaults to counting entries; the recipe store passes host
    bytes.  :meth:`put` evicts least-recently-used entries until the new
    total fits, so a value larger than the whole budget is kept alone as
    the only entry.  Every access takes one lock (as
    :class:`~repro.engine.cache.PlanCache` does), so concurrent callers
    -- the engine's batch pool, the serving workers -- never evict the
    same key twice.
    """

    def __init__(self, budget: int,
                 size: Callable[[Any], int] | None = None) -> None:
        self.budget = int(budget)
        self._size = size
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._total = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total(self) -> int:
        """Summed size of the retained values."""
        return self._total

    def get(self, key: Hashable) -> Any:
        """The value under ``key`` (now most recently used), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key``, evicting LRU entries until the
        budget holds."""
        n = 1 if self._size is None else int(self._size(value))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._total -= old[1]
            while self._entries and self._total + n > self.budget:
                self._total -= self._entries.popitem(last=False)[1][1]
            self._entries[key] = (value, n)
            self._total += n

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
            self._total = 0
