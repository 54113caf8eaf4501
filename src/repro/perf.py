"""Fast-path switches shared by the vectorized simulator core.

Three concerns live here, all deliberately tiny and dependency-free:

* :func:`scalar_core_enabled` -- the ``REPRO_SCALAR_CORE=1`` escape
  hatch.  The vectorized hot paths (the recipe store of
  :mod:`repro.sparse.product`, the phase-schedule memo of
  :mod:`repro.gpu.scheduler`) are bit-identical to the original
  scalar/recomputing paths by construction, and the dual-path
  equivalence suite (``tests/test_vectorized.py``) holds them to it.
  Setting the environment variable routes every multiply through the
  original paths -- the reference the fast paths are judged against,
  and a one-line mitigation if a fast-path bug ever ships.
* the fast-cache registry -- every module that keeps a cross-run memo
  registers a clearer here, so tests and the wall-clock harness can
  restore a cold-process state with one call
  (:func:`clear_fast_caches`);
* :class:`LRUCache` -- the one bounded, thread-safe store behind those
  memos (the product cache, the recipe store, the phase memo).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

_ENV_FLAG = "REPRO_SCALAR_CORE"

_clearers: list[Callable[[], None]] = []


def scalar_core_enabled() -> bool:
    """True when ``REPRO_SCALAR_CORE`` requests the original scalar paths.

    Read from the environment on every call (a dict lookup -- it is
    checked once per multiply/phase, never per element) so tests can
    flip it with ``monkeypatch.setenv`` without reloading modules.
    """
    return os.environ.get(_ENV_FLAG, "") not in ("", "0")


def register_cache_clearer(fn: Callable[[], None]) -> Callable[[], None]:
    """Register a module's cache-drop callback; returns ``fn`` (decorator
    friendly).  Idempotent per function object."""
    if fn not in _clearers:
        _clearers.append(fn)
    return fn


def clear_fast_caches() -> None:
    """Drop every registered cross-run memo (cold-process state).

    Covers the functional product cache, the recipe store and the
    scheduler's phase memo; modules register themselves on import, and
    the product cache is imported here so a bare ``clear_fast_caches()``
    always reaches it.
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
