"""Observability layer: event bus, metrics registry, exporters, properties.

The property-based section pins down the conservation laws the layer is
built on, for every runner (leaf algorithm or wrapper layer) over
generated matrices:

* summing the ``charge`` events of a phase reproduces
  ``SimReport.phase_seconds`` (and kernel wall time is a component of it);
* allocated minus freed bytes is zero at run exit (teardown included);
* event timestamps are nondecreasing;
* the Chrome-trace export's per-phase slice totals match the report
  to 1e-9.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.gpu.faults import FaultPlan
from repro.obs import events as OBS
from repro.obs.events import Event, EventBus, is_nondecreasing
from repro.obs.export import (chrome_phase_totals, chrome_trace, trace_summary,
                              write_chrome_trace)
from repro.obs.metrics import (MetricsRegistry, check_conservation,
                               metrics_from_report)
from repro.sparse import generators

from tests.conftest import RUNNERS
from tests.test_properties import square_csr

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestEventBus:
    def test_emit_and_read(self):
        bus = EventBus()
        e = bus.emit(OBS.ALLOC, "buf", 1.5, nbytes=64)
        assert e.ts == 1.5 and e.attrs["nbytes"] == 64
        assert len(bus) == 1

    def test_batch_sorted(self):
        bus = EventBus()
        bus.emit_batch([Event(2.0, OBS.KERNEL_RETIRE, "k"),
                        Event(1.0, OBS.KERNEL_LAUNCH, "k")])
        assert [e.ts for e in bus] == [1.0, 2.0]
        assert is_nondecreasing(bus.events)

    def test_shifted_copies(self):
        e = Event(1.0, OBS.FREE, "buf", {"nbytes": 8})
        s = e.shifted(2.5)
        assert s.ts == 3.5 and s.attrs == e.attrs
        assert s.attrs is not e.attrs

    def test_nondecreasing_detects_regression(self):
        assert not is_nondecreasing([Event(1.0, "x", "a"),
                                     Event(0.5, "x", "b")])


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2.0, phase="setup")
        reg.counter("c").inc(3.0, phase="setup")
        assert reg.value("c", phase="setup") == 5.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1.0)

    def test_kind_conflict(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_total_filters_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("t")
        c.inc(1.0, phase="setup", stream=0)
        c.inc(2.0, phase="setup", stream=1)
        c.inc(4.0, phase="calc", stream=0)
        assert reg.total("t", phase="setup") == 3.0
        assert reg.total("t") == 7.0

    def test_histogram_renders_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (1.0, 3.0, 2.0):
            h.observe(v, phase="calc")
        text = "\n".join(h.render())
        assert 'h_count{phase="calc"} 3' in text
        assert 'h_min{phase="calc"} 1' in text
        assert 'h_max{phase="calc"} 3' in text

    def test_render_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b").inc(1, z="2", a="1")
            reg.gauge("a").set(0.5)
            return reg.render()
        assert build() == build()

    def test_missing_family_reads_zero(self):
        reg = MetricsRegistry()
        assert reg.value("nope") == 0.0 and reg.total("nope") == 0.0
        assert "nope" not in reg


def _run(algo="proposal", gen=None, **kw):
    A = gen if gen is not None else generators.banded(120, 8, rng=7)
    return repro.multiply(A, A, algorithm=algo, **kw)


class TestReportMetrics:
    def test_report_metrics_accessor(self):
        r = _run().report
        m = r.metrics()
        assert m.value("total_seconds") == pytest.approx(r.total_seconds)
        assert m.value("peak_bytes") == r.peak_bytes

    def test_phase_seconds_exported(self):
        r = _run().report
        m = metrics_from_report(r)
        for p, dt in r.phase_seconds.items():
            assert m.value("phase_seconds", phase=p) == pytest.approx(dt)

    def test_kernel_component_bounds(self):
        """The ``kernels`` charge of a phase is its wall-clock span, so it
        must cover every single kernel of that phase (streams overlap and
        launches leave gaps, so it is not the *sum* of durations)."""
        r = _run().report
        m = metrics_from_report(r)
        for p in ("setup", "count", "calc"):
            comp = m.total("phase_component_seconds", phase=p,
                           component="kernels")
            longest = max(k.duration for k in r.kernels if k.phase == p)
            assert comp >= longest > 0

    def test_grouping_and_hash_metrics_present(self):
        m = metrics_from_report(_run().report)
        assert m.total("group_rows", stage="symbolic") == 120
        assert m.total("group_rows", stage="numeric") == 120
        assert m.total("hash_load_factor") > 0

    def test_fault_recovery_attempts_counted(self):
        plan = FaultPlan()
        plan.fail_alloc(name="C")     # one-shot: the retry rung succeeds
        A = generators.power_law(200, 6.0, 150, rng=3)
        result = repro.multiply(A, A, resilient=True, faults=plan)
        m = metrics_from_report(result.report)
        assert m.total("resilience_attempts_total", ok="False") == 1
        assert m.total("resilience_attempts_total", ok="True") == 1

    def test_resilience_attempts_metric(self):
        A = generators.power_law(200, 6.0, 80, rng=3)
        result = repro.multiply(A, A, resilient=True,
                                memory_budget=1 << 16)
        m = metrics_from_report(result.report)
        assert m.value("resilience_attempts_total", algorithm="proposal",
                       strategy="panels", ok="True") == 1
        assert m.total("resilience_attempts_total", ok="False") >= 1


class TestChromeTrace:
    def test_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(_run().report, path)
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        # required Trace Event Format fields on every slice
        for ev in doc["traceEvents"]:
            assert "ph" in ev and "pid" in ev
            if ev["ph"] == "X":
                assert ev["dur"] >= 0

    def test_phase_totals_match_report(self):
        r = _run().report
        totals = chrome_phase_totals(chrome_trace(r))
        for p, dt in r.phase_seconds.items():
            assert abs(totals.get(p, 0.0) - dt) < 1e-9

    def test_memory_counter_track(self):
        doc = chrome_trace(_run().report)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert counters[-1]["args"]["in_use"] == 0

    def test_kernels_on_stream_tracks(self):
        doc = chrome_trace(_run().report)
        names = {e["name"] for e in doc["traceEvents"]
                 if e["ph"] == "X" and e.get("cat") == "kernel"}
        assert any(n.startswith("symbolic") for n in names)
        assert any(n.startswith("numeric") for n in names)


class TestTraceSummary:
    def test_sections_present(self):
        text = trace_summary(_run().report)
        for section in ("[phases]", "[kernels]", "[grouping]",
                        "[hash_tables]", "[memory]", "[events]", "[metrics]"):
            assert section in text, section

    def test_incidents_on_abort(self):
        plan = FaultPlan()
        plan.fail_alloc(name="C")
        with pytest.raises(repro.ReproError) as exc:
            _run(faults=plan)
        report = getattr(exc.value, "report", None)
        assert report is not None
        text = trace_summary(report)
        assert "[incidents]" in text
        assert "fault_injected" in text and "run_abort" in text


class TestConservationProperties:
    """The hypothesis suite: conservation for every algorithm."""

    @SETTINGS
    @given(square_csr(max_dim=16, max_nnz=50),
           st.sampled_from(sorted(RUNNERS)))
    def test_conservation_all_algorithms(self, A, algo):
        result = repro.multiply(A, A, **RUNNERS[algo])
        check_conservation(result.report)

    @SETTINGS
    @given(square_csr(max_dim=14, max_nnz=40))
    def test_conservation_single_precision(self, A):
        check_conservation(repro.multiply(A, A, precision="single").report)

    @SETTINGS
    @given(square_csr(max_dim=14, max_nnz=40))
    def test_conservation_serial_streams(self, A):
        result = repro.multiply(A, A,
                                algo_options={"use_streams": False})
        check_conservation(result.report)

    def test_conservation_after_abort(self):
        """The abort path frees everything it allocated, too."""
        plan = FaultPlan()
        plan.fail_alloc(name="C")
        with pytest.raises(repro.ReproError) as exc:
            _run(faults=plan)
        report = exc.value.report
        m = metrics_from_report(report)
        assert m.total("alloc_bytes_total") == m.total("free_bytes_total")
        assert is_nondecreasing(report.events)

    def test_conservation_under_panel_chunking(self):
        A = generators.power_law(200, 6.0, 80, rng=3)
        result = repro.multiply(A, A, resilient=True,
                                memory_budget=1 << 16)
        assert result.report.algorithm.endswith("panels")
        check_conservation(result.report)
