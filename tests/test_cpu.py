"""CPU-backend conformance: oracle, conservation, scheduling, tuning.

Every algorithm of the CPU family must satisfy the exact contracts the
GPU algorithms are held to -- same functional result (bit-identical to
the proposal, since both reconstruct from the shared product cache),
same conservation laws over the event stream, same tuning invariants --
plus the mixed-architecture pool contract: distributing over CPU+GPU
slots changes scheduling only, never the numbers.
"""

import numpy as np
import pytest

import repro
from repro.core.spgemm import HashSpGEMM
from repro.cpu import KNL64, XEON24, CPUParams
from repro.cpu import cost as cpu_cost
from repro.cpu.algorithms import HashCPUSpGEMM, HeapCPUSpGEMM, PropBlockSpGEMM
from repro.cpu.cost import chunk_durations, simulate_cpu_phase, workers_for
from repro.errors import SchedulerError
from repro.gpu import scheduler
from repro.gpu.kernel import BlockWorks, KernelLaunch
from repro.obs.metrics import check_conservation
from repro.sparse import generators
from repro.sparse.reference import spgemm_reference

pytestmark = pytest.mark.cpu

CPU_ALGOS = (HashCPUSpGEMM, HeapCPUSpGEMM, PropBlockSpGEMM)
CPU_SPECS = (KNL64, XEON24)


@pytest.fixture
def A():
    return generators.power_law(250, 3.5, 70, rng=9)


def _same_matrix(C1, C2):
    return (np.array_equal(C1.rpt, C2.rpt)
            and np.array_equal(C1.col, C2.col)
            and np.array_equal(C1.val, C2.val))


@pytest.mark.parametrize("cls", CPU_ALGOS, ids=lambda c: c.name)
@pytest.mark.parametrize("spec", CPU_SPECS, ids=lambda s: s.name)
class TestPerAlgorithm:
    def test_matches_reference(self, cls, spec, A):
        r = cls().multiply(A, A, device=spec)
        ref = spgemm_reference(A, A)
        assert r.matrix.canonicalize().allclose(ref, rtol=1e-9)

    def test_bit_identical_to_gpu_proposal(self, cls, spec, A):
        # both sides reconstruct from the shared product cache: moving
        # an instance between architectures must never change a bit
        gold = HashSpGEMM().multiply(A, A).matrix
        C = cls().multiply(A, A, device=spec).matrix
        assert _same_matrix(C, gold)

    def test_conservation_laws(self, cls, spec, A):
        r = cls().multiply(A, A, device=spec)
        check_conservation(r.report)
        assert r.report.flops == 2 * r.report.n_products
        assert r.report.algorithm == cls.name
        assert r.report.device == spec.name

    def test_single_precision(self, cls, spec, A):
        r = cls().multiply(A, A, device=spec, precision="single")
        check_conservation(r.report)
        assert r.matrix.dtype == np.float32
        ref = spgemm_reference(A, A)
        assert r.matrix.canonicalize().allclose(ref, rtol=1e-4)

    def test_deterministic_schedule(self, cls, spec, A):
        r1 = cls().multiply(A, A, device=spec)
        r2 = cls().multiply(A, A, device=spec)
        assert r1.report.total_seconds == r2.report.total_seconds
        assert r1.report.peak_bytes == r2.report.peak_bytes
        ev1 = [(e.kind, e.ts, e.name) for e in r1.report.events]
        ev2 = [(e.kind, e.ts, e.name) for e in r2.report.events]
        assert ev1 == ev2

    def test_streams_off_never_faster(self, cls, spec, A):
        on = cls(use_streams=True).multiply(A, A, device=spec)
        off = cls(use_streams=False).multiply(A, A, device=spec)
        assert off.report.total_seconds >= on.report.total_seconds - 1e-12
        assert _same_matrix(on.matrix, off.matrix)


class TestDeviceCoercion:
    def test_cpu_algorithm_on_gpu_spec_runs_native_preset(self, A):
        # foreign spec -> the backend's default preset, mirroring how
        # GPU algorithms already coerce CPU specs
        r = HashCPUSpGEMM().multiply(A, A, device=repro.P100)
        assert r.report.device == KNL64.name

    def test_gpu_algorithm_on_cpu_spec_runs_native_preset(self, A):
        r = HashSpGEMM().multiply(A, A, device=XEON24)
        assert r.report.device == repro.P100.name


class TestParams:
    def test_round_trip(self):
        p = CPUParams(threads=64, block_rows=128, bins=1024)
        assert CPUParams.from_dict(p.to_dict()) == p
        assert not p.is_default()
        assert CPUParams().is_default()

    def test_gpu_overrides_declined(self):
        algo = HashCPUSpGEMM()
        assert not algo.apply_param_overrides(repro.ParamOverrides())
        assert algo.apply_param_overrides(CPUParams(threads=32))
        assert algo.params == CPUParams(threads=32)

    def test_cpu_params_declined_by_gpu_algorithm(self):
        assert not HashSpGEMM().apply_param_overrides(CPUParams(threads=8))

    def test_explicit_params_change_the_schedule(self, A):
        base = HashCPUSpGEMM().multiply(A, A, device=KNL64)
        narrow = HashCPUSpGEMM(params=CPUParams(threads=4)).multiply(
            A, A, device=KNL64)
        check_conservation(narrow.report)
        assert narrow.report.total_seconds != base.report.total_seconds
        assert _same_matrix(base.matrix, narrow.matrix)


class TestTuning:
    def test_tuned_never_slower(self, A):
        from repro.tune import Autotuner

        for spec in CPU_SPECS:
            res = Autotuner(spec, "double").tune(A, A)
            assert res.tuned_seconds <= res.default_seconds
            assert isinstance(res.overrides, CPUParams)

    def test_facade_tune_on_cpu_device(self, A):
        r = repro.multiply(A, A, options=repro.SpGEMMOptions(
            algorithm="hash-cpu", device="KNL64", tune=True))
        check_conservation(r.report)
        assert r.report.algorithm == "hash-cpu"


class TestMixedPools:
    def test_mixed_pool_bit_identical_to_single_device(self, A):
        single = repro.multiply(A, A, options=repro.SpGEMMOptions())
        mixed = repro.multiply(A, A, options=repro.SpGEMMOptions(
            devices=("P100", "KNL64", "XEON24")))
        assert _same_matrix(single.matrix, mixed.matrix)

    def test_pool_translates_algorithm_per_slot(self):
        from repro.dist import DevicePool

        pool = DevicePool.from_names(["P100", "KNL64"], engine=False)
        names = [s.runner.name for s in pool.slots]
        assert names == ["proposal", "hash-cpu"]

    def test_pool_weights_follow_backends(self):
        from repro.backend import CPU_BACKEND
        from repro.dist import DevicePool

        pool = DevicePool.from_names(["P100", "KNL64"])
        w = pool.weights()
        assert w[0] == repro.P100.mem_bandwidth_gbps
        assert w[1] == CPU_BACKEND.work_weight(KNL64)

    def test_unknown_pool_name_typed_error(self):
        from repro.dist import DevicePool
        from repro.errors import UnknownDeviceError

        with pytest.raises(UnknownDeviceError, match="unknown device"):
            DevicePool.from_names(["P100", "A64FX"])

    def test_all_cpu_pool_runs(self, A):
        r = repro.multiply(A, A, options=repro.SpGEMMOptions(
            algorithm="hash-cpu", devices=("KNL64", "KNL64")))
        ref = spgemm_reference(A, A)
        assert r.matrix.canonicalize().allclose(ref, rtol=1e-9)


class TestResilience:
    def test_cpu_fallback_chain_stays_on_cpu(self, A):
        r = repro.multiply(A, A, options=repro.SpGEMMOptions(
            algorithm="hash-cpu", resilient=True, device="KNL64"))
        check_conservation(r.report)
        assert r.report.algorithm in ("hash-cpu", "heap-cpu")


def _region(n_chunks, flops, *, workers=4, stream=0, name="r"):
    """A parallel region of ``n_chunks`` identical chunks."""
    return KernelLaunch(name=name, block_threads=workers,
                        shared_bytes_per_block=0,
                        works=BlockWorks(n_blocks=n_chunks,
                                         flops=np.full(n_chunks, flops)),
                        stream=stream)


class TestLaneSchedule:
    """CPU phases run through the GPU's list schedule: a region owns
    :func:`workers_for` lanes and each issue costs one fork/join."""

    def test_one_list_scheduling_routine(self):
        assert cpu_cost.list_schedule is scheduler.list_schedule

    def test_regions_below_at_and_above_the_worker_count(self):
        # four workers each: 3 chunks leave a lane idle, 4 fill one wave
        # and 9 take three; the first region is too short to outlast the
        # second fork/join, the second outlasts the third
        regions = [_region(3, 0.0, name="below"), _region(4, 4e5, name="at"),
                   _region(9, 4e5, name="above")]
        assert [workers_for(k, KNL64) for k in regions] == [4, 4, 4]
        d = [chunk_durations(k, KNL64, "double") for k in regions]
        assert all(np.all(x == x[0]) for x in d)
        start, gap = 1e-3, KNL64.fork_join_us * 1e-6
        r0 = start + gap
        e0 = r0 + d[0][0]
        r1 = start + 2 * gap
        e1 = r1 + d[1][0]
        r2 = e1
        e2 = ((r2 + d[2][0]) + d[2][0]) + d[2][0]
        assert e0 < r1 and start + 3 * gap < e1

        sched = simulate_cpu_phase(regions, KNL64, "double", start_time=start)
        assert [(r.name, r.start, r.end, r.n_blocks)
                for r in sched.records] == [("below", r0, e0, 3),
                                            ("at", r1, e1, 4),
                                            ("above", r2, e2, 9)]
        assert sched.start == start and sched.end == e2

    def test_two_streams_raise_unless_serialized(self):
        regions = [_region(5, 4e5, stream=1, name="a"),
                   _region(5, 4e5, stream=2, name="b")]
        with pytest.raises(SchedulerError, match=r"streams \[1, 2\]"):
            simulate_cpu_phase(regions, KNL64, "double")
        a, b = simulate_cpu_phase(regions, KNL64, "double",
                                  use_streams=False).records
        (d,) = set(chunk_durations(regions[0], KNL64, "double"))
        gap = KNL64.fork_join_us * 1e-6
        assert (a.stream, b.stream) == (0, 0)
        assert (a.start, a.end) == (gap, (gap + d) + d)
        assert (b.start, b.end) == (a.end, (a.end + d) + d)
