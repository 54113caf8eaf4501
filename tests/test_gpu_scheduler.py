"""Block scheduler tests: conservation, streams, imbalance, and both
scheduler implementations -- the lane schedule of serialized phases and
the fixed-point event loop of multi-stream ones -- pinned to the
per-block event loop kept in :mod:`tests.scheduler_oracle`."""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.errors import DeviceConfigError, SchedulerError
from repro.gpu import scheduler
from repro.gpu.cost import block_durations
from repro.gpu.device import P100
from repro.gpu.kernel import BlockWorks, KernelLaunch
from repro.gpu.occupancy import occupancy_for
from repro.gpu.scheduler import simulate_phase
from repro.types import Precision

from tests.scheduler_oracle import event_loop


def uniform_kernel(n_blocks, flops_per_block=1e5, threads=256, shared=0,
                   stream=0, name="k"):
    return KernelLaunch(
        name=name, block_threads=threads, shared_bytes_per_block=shared,
        works=BlockWorks(n_blocks=n_blocks,
                         flops=np.full(n_blocks, flops_per_block)),
        stream=stream)


class TestBasics:
    def test_empty_phase(self):
        sched = simulate_phase([], P100, "single")
        assert sched.duration == 0.0

    def test_single_kernel_completes(self):
        sched = simulate_phase([uniform_kernel(100)], P100, "single")
        assert len(sched.records) == 1
        rec = sched.records[0]
        assert rec.n_blocks == 100
        assert rec.end > rec.start >= 0

    def test_start_time_offsets_schedule(self):
        a = simulate_phase([uniform_kernel(10)], P100, "single")
        b = simulate_phase([uniform_kernel(10)], P100, "single",
                           start_time=1.0)
        assert b.records[0].end == pytest.approx(1.0 + a.records[0].end)

    def test_launch_latency_delays_start(self):
        sched = simulate_phase([uniform_kernel(1)], P100, "single")
        assert sched.records[0].start >= P100.kernel_launch_us * 1e-6


class TestWaveBehaviour:
    def test_makespan_scales_with_waves(self):
        slots = P100.sm_count * 8   # 256 threads, no shared -> 8 blocks/SM
        one_wave = simulate_phase([uniform_kernel(slots)], P100, "single")
        four_waves = simulate_phase([uniform_kernel(4 * slots)], P100,
                                    "single")
        ratio = four_waves.duration / one_wave.duration
        assert 3.0 < ratio < 5.0

    def test_uniform_blocks_near_analytic_bound(self):
        from repro.gpu.cost import kernel_duration_alone

        k = uniform_kernel(2000, flops_per_block=2e5)
        sched = simulate_phase([k], P100, "single")
        bound = kernel_duration_alone(k, P100, "single")
        start = sched.records[0].start
        assert sched.duration - start >= bound * 0.95
        assert sched.duration - start <= bound * 1.5

    def test_one_giant_block_dominates_makespan(self):
        # the webbase pathology: one row 100x the others
        flops = np.full(500, 1e4)
        flops[250] = 1e7
        k = KernelLaunch(name="imb", block_threads=256,
                         shared_bytes_per_block=0,
                         works=BlockWorks(n_blocks=500, flops=flops))
        sched = simulate_phase([k], P100, "single")
        giant_seconds = 1e7 / P100.flops_per_cycle_per_sm(False) / P100.clock_hz
        assert sched.duration >= giant_seconds


class TestStreams:
    def test_same_stream_serializes(self):
        ks = [uniform_kernel(50, stream=3, name="a"),
              uniform_kernel(50, stream=3, name="b")]
        sched = simulate_phase(ks, P100, "single")
        a, b = sched.records
        assert b.start >= a.end

    def test_different_streams_overlap(self):
        # two slow kernels that together underfill the device
        ks = [uniform_kernel(20, flops_per_block=1e7, stream=1, name="a"),
              uniform_kernel(20, flops_per_block=1e7, stream=2, name="b")]
        sched = simulate_phase(ks, P100, "single")
        a, b = sched.records
        assert b.start < a.end     # concurrent

    def test_use_streams_false_serializes_everything(self):
        ks = [uniform_kernel(20, flops_per_block=1e7, stream=1),
              uniform_kernel(20, flops_per_block=1e7, stream=2)]
        con = simulate_phase(ks, P100, "single", use_streams=True)
        ser = simulate_phase(ks, P100, "single", use_streams=False)
        assert ser.duration > 1.5 * con.duration

    def test_streams_do_not_oversubscribe_sms(self):
        # two full-wave kernels on different streams cannot finish faster
        # than the resource bound
        slots = P100.sm_count * 8
        ks = [uniform_kernel(slots, stream=1),
              uniform_kernel(slots, stream=2)]
        both = simulate_phase(ks, P100, "single")
        one = simulate_phase([uniform_kernel(slots, stream=1)], P100,
                             "single")
        assert both.duration >= 1.8 * (one.duration - one.records[0].start)

    def test_stream_chain_of_three(self):
        ks = [uniform_kernel(10, stream=1, name=f"k{i}") for i in range(3)]
        sched = simulate_phase(ks, P100, "single")
        r = sched.records
        assert r[1].start >= r[0].end and r[2].start >= r[1].end


class TestConservation:
    def test_every_block_runs_exactly_once(self):
        ks = [uniform_kernel(37, stream=1), uniform_kernel(91, stream=2)]
        sched = simulate_phase(ks, P100, "single")
        assert [r.n_blocks for r in sched.records] == [37, 91]
        # device-seconds actually executed match the per-block durations
        for rec, k in zip(sched.records, ks):
            from repro.gpu.cost import block_durations

            assert rec.block_seconds == pytest.approx(
                float(block_durations(k, P100, "single").sum()))

    def test_makespan_at_least_total_work_over_capacity(self):
        k = uniform_kernel(1000, flops_per_block=1e5)
        sched = simulate_phase([k], P100, "single")
        total = sched.records[0].block_seconds
        assert sched.duration >= total / (P100.sm_count * 8)

    def test_shared_memory_limits_concurrency(self):
        # 48KB blocks: one per SM -> 10 blocks on 56 SMs take ~1 wave;
        # but 112 blocks need exactly 2 waves
        k1 = uniform_kernel(56, shared=48 * 1024, threads=64)
        k2 = uniform_kernel(112, shared=48 * 1024, threads=64)
        s1 = simulate_phase([k1], P100, "single")
        s2 = simulate_phase([k2], P100, "single")
        d1 = s1.duration - s1.records[0].start
        d2 = s2.duration - s2.records[0].start
        assert d2 > 1.7 * d1


# -- lane schedule == oracle on serialized phases --------------------------

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: (threads, shared bytes) footprints limited by each P100 resource:
#: threads (2/SM), shared memory (1/SM and 5/SM), block slots (32/SM),
#: plus an odd thread count that rounds up to whole warps.
FOOTPRINTS = {"threads": (1024, 0), "shared": (64, 48 * 1024),
              "shared5": (128, 12 * 1024), "blocks": (32, 0),
              "warps": (100, 0)}


def _lanes(threads, shared):
    return occupancy_for(P100, threads, shared).blocks_per_sm * P100.sm_count


def _values(kind, n, rng):
    """Tied, zero, random or mixed (ties + zeros) per-block values."""
    if kind == "tied":
        return np.full(n, 3e-6)
    if kind == "zero":
        return np.zeros(n)
    if kind == "random":
        return rng.random(n) * 1e-5
    return rng.choice([0.0, 2e-6, 2e-6, 7e-6], n)


@st.composite
def serial_phases(draw):
    """1-5 launches that all serialize: one shared stream, or any streams
    under ``use_streams=False``; each kernel below or above one wave."""
    use_streams = draw(st.booleans())
    shared_stream = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernels, values = [], []
    for i in range(draw(st.integers(1, 5))):
        threads, shared = FOOTPRINTS[draw(st.sampled_from(sorted(FOOTPRINTS)))]
        lanes = _lanes(threads, shared)
        n = draw(st.one_of(st.integers(1, lanes),
                           st.integers(lanes + 1, 3 * lanes)))
        values.append(_values(draw(st.sampled_from(
            ["tied", "zero", "random", "mixed"])), n, rng))
        kernels.append(KernelLaunch(
            name=f"k{i}", block_threads=threads,
            shared_bytes_per_block=shared,
            works=BlockWorks(n_blocks=n, flops=values[-1] * 1e11),
            stream=shared_stream if use_streams else draw(st.integers(0, 3))))
    start = draw(st.sampled_from([0.0, 1e-3, 0.123456789]))
    return kernels, values, start, use_streams


class TestLaneSchedule:
    """Serialized phases are list-scheduled onto lanes without events;
    the oracle's per-block event loop is the reference they must equal
    bit for bit."""

    @SETTINGS
    @given(phase=serial_phases())
    def test_lanes_equal_event_loop_on_drawn_durations(self, phase):
        kernels, durations, start, use_streams = phase
        lanes = scheduler._lane_schedule(kernels, durations, P100, start,
                                         use_streams)
        ref = event_loop(kernels, durations, P100, start, use_streams)
        assert lanes == ref

    @SETTINGS
    @given(phase=serial_phases(),
           precision=st.sampled_from(["single", "double"]))
    def test_simulate_phase_equals_event_loop_cold_and_warm(self, phase,
                                                            precision):
        kernels, _, start, use_streams = phase
        start += 2e-3   # nonzero: records are stored with absolute times
        p = Precision.parse(precision)
        ref = event_loop(
            kernels, [block_durations(k, P100, p) for k in kernels], P100,
            start, use_streams)
        scheduler.clear_phase_memo()
        cold = simulate_phase(kernels, P100, p, start_time=start,
                              use_streams=use_streams)
        assert cold.records == ref
        assert cold.end == max(r.end for r in ref)
        assert len(scheduler._memo) == 1
        warm = simulate_phase(kernels, P100, p, start_time=start,
                              use_streams=use_streams)
        assert warm.records == cold.records and warm.end == cold.end

    def test_serialized_phases_skip_the_event_loop(self, monkeypatch):
        def no_events(*args):
            raise AssertionError("event loop ran on a serialized phase")

        monkeypatch.setattr(scheduler, "_event_loop", no_events)
        scheduler.clear_phase_memo()
        same = [uniform_kernel(300, stream=2), uniform_kernel(9, stream=2)]
        mixed = [uniform_kernel(300, stream=1), uniform_kernel(9, stream=2)]
        simulate_phase(same, P100, "single")
        simulate_phase(mixed, P100, "single", use_streams=False)
        with pytest.raises(AssertionError, match="event loop"):
            simulate_phase(mixed, P100, "single")

    def test_event_budget_guards_the_lane_path(self, monkeypatch):
        # blocks + launches: 20 + 1 events
        scheduler.clear_phase_memo()
        monkeypatch.setattr(scheduler, "MAX_EVENTS", 20)
        with pytest.raises(SchedulerError, match="event budget"):
            simulate_phase([uniform_kernel(20)], P100, "single")
        monkeypatch.setattr(scheduler, "MAX_EVENTS", 21)
        simulate_phase([uniform_kernel(20)], P100, "single")

    def test_unlaunchable_config_raises_on_the_lane_path(self):
        scheduler.clear_phase_memo()
        too_wide = uniform_kernel(4, threads=P100.max_threads_per_block + 1)
        with pytest.raises(DeviceConfigError):
            simulate_phase([too_wide], P100, "single", use_streams=False)


# -- fixed-point event loop == oracle on multi-stream phases ---------------

#: A kernel's blocks last ~1 us ("tiny": well under the 2 us issue gap,
#: so later kernels issue after earlier ones finished) or the values of
#: :func:`_values`.
_KINDS = ("tied", "zero", "random", "mixed", "tiny")


@st.composite
def multi_stream_phases(draw):
    """2-6 launches on two or more of four streams, so kernels co-schedule,
    wait behind one another and share a stream; each has one of
    :data:`FOOTPRINTS` and sits below or above one wave."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 6))
    streams = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if len(set(streams)) == 1:
        streams[draw(st.integers(0, n - 1))] = (streams[0] + 1) % 4
    kernels, values = [], []
    for i, stream in enumerate(streams):
        threads, shared = FOOTPRINTS[draw(st.sampled_from(sorted(FOOTPRINTS)))]
        lanes = _lanes(threads, shared)
        n_blocks = draw(st.one_of(st.integers(1, lanes),
                                  st.integers(lanes + 1, 2 * lanes)))
        kind = draw(st.sampled_from(_KINDS))
        values.append(rng.random(n_blocks) * 1e-6 if kind == "tiny"
                      else _values(kind, n_blocks, rng))
        kernels.append(KernelLaunch(
            name=f"k{i}", block_threads=threads,
            shared_bytes_per_block=shared,
            works=BlockWorks(n_blocks=n_blocks, flops=values[-1] * 1e11),
            stream=stream))
    start = draw(st.sampled_from([0.0, 1e-3, 0.123456789]))
    return kernels, values, start


def _two_streams():
    """A TB/ROW-like kernel of many blocks with a smaller kernel waiting
    behind it on another stream."""
    return [uniform_kernel(3000, threads=256, stream=0, name="wide"),
            uniform_kernel(40, threads=64, stream=1, name="late")]


class TestEventLoop:
    """Multi-stream phases refill freed slots at the fixed point; the
    oracle's per-block event loop is the reference they must equal bit
    for bit, budget and deadlock guards included."""

    @SETTINGS
    @given(phase=multi_stream_phases())
    def test_refill_equals_oracle_on_drawn_durations(self, phase):
        kernels, durations, start = phase
        got = scheduler._event_loop(kernels, durations, P100, start, True)
        assert got == event_loop(kernels, durations, P100, start, True)

    @SETTINGS
    @given(phase=multi_stream_phases(),
           precision=st.sampled_from(["single", "double"]))
    def test_simulate_phase_equals_oracle_cold_and_warm(self, phase,
                                                        precision):
        kernels, _, start = phase
        start += 2e-3   # nonzero: records are stored with absolute times
        p = Precision.parse(precision)
        ref = event_loop(kernels, [block_durations(k, P100, p)
                                   for k in kernels], P100, start, True)
        scheduler.clear_phase_memo()
        cold = simulate_phase(kernels, P100, p, start_time=start)
        assert cold.records == ref
        warm = simulate_phase(kernels, P100, p, start_time=start)
        assert warm.records == cold.records and warm.end == cold.end

    def test_refill_takes_most_completions(self, monkeypatch):
        """The waiting kernel does not send the wide one's completions
        back to full dispatch rounds: all but the rounds around its
        start and its arrival refill by heap replace."""
        replaced = []
        real = scheduler.heapq.heapreplace
        monkeypatch.setattr(scheduler.heapq, "heapreplace",
                            lambda h, x: replaced.append(1) or real(h, x))
        kernels = _two_streams()
        durations = [np.random.default_rng(0).random(k.works.n_blocks) * 1e-5
                     for k in kernels]
        got = scheduler._event_loop(kernels, durations, P100, 0.0, True)
        assert got == event_loop(kernels, durations, P100, 0.0, True)
        assert len(replaced) > 0.9 * (3000 - _lanes(256, 0))

    def test_event_budget_guards_the_event_path(self, monkeypatch):
        # blocks + launches: 3040 + 2 events, on the oracle as here
        kernels = _two_streams()
        durations = [block_durations(k, P100, Precision.SINGLE)
                     for k in kernels]
        monkeypatch.setattr(scheduler, "MAX_EVENTS", 3041)
        for loop in (scheduler._event_loop, event_loop):
            with pytest.raises(SchedulerError, match="event budget"):
                loop(kernels, durations, P100, 0.0, True)
        scheduler.clear_phase_memo()
        with pytest.raises(SchedulerError, match="event budget"):
            simulate_phase(kernels, P100, "single")
        monkeypatch.setattr(scheduler, "MAX_EVENTS", 3042)
        simulate_phase(kernels, P100, "single")
        assert (scheduler._event_loop(kernels, durations, P100, 0.0, True)
                == event_loop(kernels, durations, P100, 0.0, True))

    def test_a_kernel_without_blocks_deadlocks(self):
        # it never completes, so its stream successor never becomes ready
        # (a launch cannot have an empty grid: the durations are made up)
        kernels = [uniform_kernel(300, stream=0),
                   uniform_kernel(1, stream=1, name="empty"),
                   uniform_kernel(5, stream=1, name="after")]
        durations = [np.full(300, 1e-6), np.empty(0), np.full(5, 1e-6)]
        for loop in (scheduler._event_loop, event_loop):
            with pytest.raises(SchedulerError, match="2 kernels never "
                               "completed \\(dispatch deadlock\\)"):
                loop(kernels, durations, P100, 0.0, True)


class TestSharedCaches:
    """The phase memo and the device-key cache are shared by every
    thread that simulates, the serving workers included."""

    def test_concurrent_callers_agree_with_fresh_schedules(self,
                                                           monkeypatch):
        """Eight threads make 4000 calls each over 3 phases on 3 devices
        into a 4-entry phase memo and a 2-entry device-key cache under a
        1 us switch interval, so puts keep evicting while other threads
        read.  Without the caches' lock two threads pop the same LRU
        entry (a ``KeyError``) or lose a size update; with it every
        schedule equals a fresh one and each cache's size stays its
        entry count."""
        devices = [dataclasses.replace(P100, kernel_launch_us=us)
                   for us in (1.0, 2.0, 3.0)]
        phases = [[uniform_kernel(n, stream=0), uniform_kernel(2, stream=1)]
                  for n in (1, 2, 3)]
        expected = [[simulate_phase(p, d, "single").records for d in devices]
                    for p in phases]
        picks = [np.random.default_rng(seed).integers(3, size=(4000, 2))
                 .tolist() for seed in range(8)]
        memo, device_keys = perf.LRUCache(4), perf.LRUCache(2)
        monkeypatch.setattr(scheduler, "_memo", memo)
        monkeypatch.setattr(scheduler, "_device_keys", device_keys)
        start = threading.Barrier(8)
        errors: list[str] = []

        def worker(seed: int) -> None:
            start.wait()
            try:
                for i, j in picks[seed]:
                    got = simulate_phase(phases[i], devices[j], "single")
                    if got.records != expected[i][j]:
                        errors.append(f"thread {seed}: phase {i} differs "
                                      f"on device {j}")
            except Exception as e:      # surfaced by the assert below
                errors.append(repr(e))

        threads = [threading.Thread(target=worker, args=(k,), daemon=True)
                   for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # a lost update on either cache's bookkeeping would break this
        assert len(memo) <= 4 and memo.total == len(memo)
        assert len(device_keys) <= 2 and device_keys.total == len(device_keys)
