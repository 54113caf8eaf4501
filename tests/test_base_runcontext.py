"""Tests for the shared RunContext accounting and the timeline records."""

import numpy as np
import pytest

from repro.base import RunContext, SpGEMMAlgorithm
from repro.errors import DeviceMemoryError, ShapeMismatchError
from repro.gpu.device import P100
from repro.gpu.kernel import BlockWorks, KernelLaunch
from repro.gpu.timeline import PHASES, KernelRecord, SimReport
from repro.types import Precision


@pytest.fixture
def ctx():
    return RunContext("test", "matrix", P100, Precision.SINGLE)


def kernel(n_blocks=10, stream=0, phase="calc"):
    return KernelLaunch(name="k", block_threads=128,
                        shared_bytes_per_block=0,
                        works=BlockWorks(n_blocks=n_blocks,
                                         flops=np.full(n_blocks, 1e5)),
                        stream=stream, phase=phase)


class TestRunContext:
    def test_alloc_advances_clock_and_phase(self, ctx):
        ctx.alloc("buf", 1 << 20, phase="setup")
        assert ctx.clock > 0
        assert ctx.phase_seconds["setup"] == pytest.approx(ctx.clock)

    def test_alloc_resident_costs_no_time(self, ctx):
        ctx.alloc_resident("A", 1 << 20)
        assert ctx.clock == 0.0
        assert ctx.memory.in_use == 1 << 20

    def test_free_charges_malloc_phase(self, ctx):
        a = ctx.alloc("buf", 100)
        before = ctx.phase_seconds["malloc"]
        ctx.free(a)
        assert ctx.phase_seconds["malloc"] > before

    def test_run_advances_clock(self, ctx):
        dt = ctx.run("calc", [kernel()])
        assert dt > 0
        assert ctx.clock == pytest.approx(dt)
        assert len(ctx.kernels) == 1

    def test_run_empty_is_noop(self, ctx):
        assert ctx.run("calc", []) == 0.0
        assert ctx.clock == 0.0

    def test_host_sync(self, ctx):
        ctx.host_sync("count", 5e-6)
        assert ctx.clock == pytest.approx(5e-6)
        assert ctx.phase_seconds["count"] == pytest.approx(5e-6)

    def test_phases_accumulate_into_report(self, ctx):
        ctx.alloc("x", 10, phase="setup")
        ctx.run("count", [kernel(phase="count")])
        ctx.run("calc", [kernel(phase="calc")])
        report = ctx.report(n_products=1000, nnz_out=100)
        total = sum(report.phase_seconds.get(p, 0.0) for p in PHASES)
        assert total == pytest.approx(report.total_seconds)
        assert report.flops == 2000
        assert report.malloc_count == 1

    def test_oom_propagates(self, ctx):
        with pytest.raises(DeviceMemoryError):
            ctx.alloc("huge", 64 << 30)

    def test_sequential_runs_do_not_overlap(self, ctx):
        ctx.run("count", [kernel()])
        mid = ctx.clock
        ctx.run("calc", [kernel()])
        first_end = max(k.end for k in ctx.kernels[:1])
        second_start = ctx.kernels[1].start
        assert second_start >= first_end - 1e-15
        assert ctx.clock > mid


class TestAlgorithmBase:
    def test_prepare_casts_both_operands(self, rng):
        from repro.sparse import generators

        A = generators.banded(30, 4, rng=rng)                    # double
        B = generators.banded(30, 4, rng=rng).astype("single")
        a, b, p = SpGEMMAlgorithm._prepare(A, B, "single")
        assert a.dtype == np.float32 and b.dtype == np.float32
        assert p is Precision.SINGLE

    def test_prepare_shape_check(self, rng):
        from repro.sparse import generators

        A = generators.random_csr(5, 7, 2, rng=rng)
        with pytest.raises(ShapeMismatchError):
            SpGEMMAlgorithm._prepare(A, A, "double")


class TestTimelineRecords:
    def test_kernel_record_duration(self):
        r = KernelRecord(name="k", phase="calc", stream=1, start=1.0,
                         end=3.0, n_blocks=4, block_seconds=5.0)
        assert r.duration == 2.0

    def test_simreport_gflops_zero_guard(self):
        r = SimReport(algorithm="a", matrix="m", precision="single",
                      device="d", n_products=10, nnz_out=5,
                      total_seconds=0.0, phase_seconds={}, peak_bytes=0,
                      malloc_count=0)
        assert r.gflops == 0.0
        assert r.phase_fraction("calc") == 0.0

    def test_simreport_summary_format(self):
        r = SimReport(algorithm="proposal", matrix="web", precision="double",
                      device="d", n_products=1_000_000, nnz_out=5,
                      total_seconds=1e-3, phase_seconds={"calc": 1e-3},
                      peak_bytes=1 << 20, malloc_count=3)
        s = r.summary()
        assert "proposal" in s and "web" in s and "2.000 GFLOPS" in s
