"""Device-memory allocator tests: peak tracking, OOM, malloc time."""

import pytest

from repro.errors import DeviceMemoryError, ReproError
from repro.gpu.device import P100
from repro.gpu.memory import DeviceMemory


@pytest.fixture
def mem():
    return DeviceMemory(P100.with_memory(1 << 20))   # 1 MiB device


class TestAllocFree:
    def test_alloc_tracks_usage(self, mem):
        mem.alloc("a", 1000)
        assert mem.in_use == 1000

    def test_free_returns_memory(self, mem):
        a = mem.alloc("a", 1000)
        mem.free(a)
        assert mem.in_use == 0

    def test_peak_is_high_water_mark(self, mem):
        a = mem.alloc("a", 600)
        b = mem.alloc("b", 300)
        mem.free(a)
        mem.alloc("c", 200)
        assert mem.peak == 900
        assert mem.in_use == 500
        _ = b

    def test_zero_byte_alloc_ok(self, mem):
        a = mem.alloc("empty", 0)
        mem.free(a)
        assert mem.peak == 0

    def test_negative_alloc_rejected(self, mem):
        with pytest.raises(ReproError, match="negative"):
            mem.alloc("bad", -5)

    def test_double_free_rejected(self, mem):
        a = mem.alloc("a", 10)
        mem.free(a)
        with pytest.raises(ReproError, match="double free"):
            mem.free(a)


class TestOOM:
    def test_over_capacity_raises(self, mem):
        with pytest.raises(DeviceMemoryError) as exc:
            mem.alloc("huge", 2 << 20)
        assert exc.value.requested == 2 << 20
        assert exc.value.capacity == 1 << 20

    def test_cumulative_oom(self, mem):
        mem.alloc("a", 900 * 1024)
        with pytest.raises(DeviceMemoryError):
            mem.alloc("b", 200 * 1024)

    def test_exact_fit_allowed(self, mem):
        mem.alloc("a", 1 << 20)
        assert mem.in_use == 1 << 20

    def test_failed_alloc_does_not_change_state(self, mem):
        mem.alloc("a", 100)
        try:
            mem.alloc("b", 2 << 20)
        except DeviceMemoryError:
            pass
        assert mem.in_use == 100
        assert mem.peak == 100


class TestTimeAccounting:
    def test_malloc_time_accumulates(self, mem):
        before = mem.malloc_seconds
        mem.alloc("a", 512 * 1024)
        assert mem.malloc_seconds > before

    def test_event_trace(self, mem):
        a = mem.alloc("a", 10)
        mem.free(a)
        kinds = [(e.kind, e.name) for e in mem.events]
        assert kinds == [("alloc", "a"), ("free", "a")]
        assert mem.events[-1].in_use_after == 0

    def test_alloc_counter(self, mem):
        mem.alloc("a", 1)
        mem.alloc("b", 1)
        assert mem.n_allocs == 2
