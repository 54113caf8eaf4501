"""Tests for the CLI and the timeline renderer."""

import numpy as np
import pytest

from repro.cli import main
from repro.gpu.timeline import KernelRecord
from repro.gpu.trace import render_timeline


def rec(name, stream, start, end):
    return KernelRecord(name=name, phase="calc", stream=stream, start=start,
                        end=end, n_blocks=1, block_seconds=end - start)


class TestTrace:
    def test_empty(self):
        assert render_timeline([]) == "(no kernels)"

    def test_bars_positioned(self):
        text = render_timeline([rec("a", 0, 0.0, 0.5), rec("b", 1, 0.5, 1.0)],
                               width=20)
        lines = text.splitlines()
        assert lines[0].startswith("a s0 |==========")
        assert "| " in lines[1]
        a_bar = lines[0].split("|")[1]
        b_bar = lines[1].split("|")[1]
        # a occupies the left half, b the right half
        assert a_bar[:10].strip("=") == ""
        assert b_bar[:10].strip() == ""

    def test_minimum_one_char_bar(self):
        text = render_timeline([rec("tiny", 0, 0.0, 1e-9),
                                rec("long", 0, 0.0, 1.0)], width=30)
        assert "=" in text.splitlines()[0]

    def test_same_name_across_streams_keeps_rows_attached(self):
        """Regression: two kernels sharing a name on different streams
        used to render in scheduler-record order, so the label next to a
        bar could belong to the other stream's kernel."""
        text = render_timeline([rec("numeric_tb", 2, 0.5, 1.0),
                                rec("numeric_tb", 1, 0.0, 0.5),
                                rec("scan", 1, 0.5, 0.6)], width=20)
        lines = text.splitlines()
        # rows sorted by (stream, start): s1 first, and within s1 by start
        assert lines[0].startswith("numeric_tb s1 ")
        assert lines[1].startswith("scan")
        assert lines[2].startswith("numeric_tb s2 ")
        # the s1 bar sits in the left half, the s2 bar in the right half
        s1_bar = lines[0].split("|")[1]
        s2_bar = lines[2].split("|")[1]
        assert "=" in s1_bar[:10] and "=" not in s1_bar[10:]
        assert "=" not in s2_bar[:10] and "=" in s2_bar[10:]

    def test_narrow_width_does_not_crash(self):
        """Regression: width smaller than the bar area (or <= 0) used to
        produce negative slice bounds and garbled or crashing output."""
        kernels = [rec("a_rather_long_kernel_name", 0, 0.0, 1.0),
                   rec("b", 1, 0.9, 1.1)]
        for width in (5, 1, 0, -3):
            text = render_timeline(kernels, width=width)
            for line in text.splitlines():
                assert "=" in line or "-" in line
        # clamped to MIN_WIDTH, all rows share one axis width
        from repro.gpu.trace import MIN_WIDTH

        bars = [ln.split("|")[1] for ln in
                render_timeline(kernels, width=-3).splitlines()]
        assert {len(b) for b in bars} == {MIN_WIDTH}


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Tesla P100" in out and "PWARP/ROW" in out

    def test_info_k40(self, capsys):
        assert main(["info", "--device", "K40"]) == 0
        assert "K40" in capsys.readouterr().out

    def test_multiply_generated(self, capsys):
        assert main(["multiply", "--generate", "stencil:500:4",
                     "--algorithm", "proposal", "--precision", "single",
                     "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "GFLOPS" in out
        assert "numeric" in out        # timeline includes numeric kernels

    def test_multiply_mtx_file(self, capsys, tmp_path, rng):
        from repro.sparse import generators
        from repro.sparse.io import write_matrix_market

        A = generators.banded(80, 6, rng=rng)
        path = tmp_path / "a.mtx"
        write_matrix_market(path, A)
        assert main(["multiply", "--matrix", str(path),
                     "--algorithm", "cusp"]) == 0
        assert "cusp" in capsys.readouterr().out

    def test_multiply_dataset(self, capsys):
        assert main(["multiply", "--dataset", "Epidemiology",
                     "--precision", "single"]) == 0
        assert "Epidemiology" in capsys.readouterr().out

    def test_generate_spec_errors(self):
        with pytest.raises(SystemExit):
            main(["multiply", "--generate", "banded-2000-30"])
        with pytest.raises(SystemExit):
            main(["multiply", "--generate", "fractal:10:2"])

    def test_serve_trace_spec_errors(self, tmp_path):
        """``serve --trace`` parses its generator specs like
        ``--generate``: a malformed one exits with the same message."""
        import json

        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(
            [{"tenant": "a", "matrix": "banded:12x:4"}]))
        with pytest.raises(SystemExit) as err:
            main(["serve", "--trace", str(trace)])
        assert err.value.code == ("bad --generate spec 'banded:12x:4'; "
                                  "expected KIND:N:NNZ")

    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Protein" in out and "(paper)" in out

    def test_memory_planning(self, capsys):
        assert main(["memory", "--precision", "double"]) == 0
        out = capsys.readouterr().out
        assert "cusparse" in out and "geomean" in out

    def test_suite_large(self, capsys):
        assert main(["suite", "--large", "--precision", "single"]) == 0
        out = capsys.readouterr().out
        assert "cage15" in out and "geomean" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestObservabilityFlags:
    def test_bare_flags_route_to_multiply(self, capsys):
        """The acceptance invocation: no subcommand, alias algo name."""
        assert main(["--algo", "hash"]) == 0
        assert "proposal" in capsys.readouterr().out

    def test_trace_json_loadable_and_consistent(self, capsys, tmp_path):
        import json

        from repro.obs.export import chrome_phase_totals

        path = tmp_path / "out.json"
        assert main(["--algo", "hash", "--trace-json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        # per-phase totals in the export match the printed breakdown
        totals = chrome_phase_totals(doc)
        assert set(totals) == {"setup", "count", "calc", "malloc"}
        assert all(v > 0 for v in totals.values())

    def test_metrics_flag(self, capsys):
        assert main(["--algo", "proposal", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE phase_seconds counter" in out
        assert 'kernel_seconds{' in out

    def test_trace_summary_to_file(self, capsys, tmp_path):
        path = tmp_path / "summary.txt"
        assert main(["--generate", "banded:200:8",
                     "--trace-summary", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("# repro trace summary v1")
        assert "[phases]" in text and "[metrics]" in text

    def test_trace_summary_stdout(self, capsys):
        assert main(["--trace-summary", "-"]) == 0
        assert "# repro trace summary v1" in capsys.readouterr().out

    def test_suite_breakdown(self, capsys):
        assert main(["suite", "--large", "--breakdown"]) == 0
        out = capsys.readouterr().out
        assert "phase_seconds{phase=" in out
