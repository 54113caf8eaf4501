"""E4 -- Table III: SpGEMM on large graph matrices, with OOM entries.
E14 -- resilience: recovering a Table III analogue under memory pressure.

Three components:

* performance of all four algorithms on the cage15 / wb-edu / cit-Patents
  analogues, both precisions (the GFLOPS columns);
* feasibility at *full* paper scale against the 16 GB P100: CUSP and
  BHSPARSE must show "-" (out of memory) for cage15 and wb-edu, exactly as
  in Table III, which is evaluated with the analytic full-scale memory
  model;
* E14: at a device budget of 0.7x the proposal's own peak -- where the
  plain run is an OOM "-" entry -- the resilience ladder completes the
  multiplication by row-panel chunking, bit-identical to the unconstrained
  result.
"""

import repro
from repro.bench.datasets import LARGE_GRAPHS, get_dataset
from repro.bench.memory_model import fits_device, full_scale_peak
from repro.bench.runner import run_suite
from repro.errors import DeviceMemoryError
from repro.gpu.device import P100

from benchmarks.conftest import run_once

ALGS = ("cusp", "cusparse", "bhsparse", "proposal")


def _render(runs, precision):
    by_key = {(r.dataset, r.algorithm): r for r in runs
              if r.precision == precision}
    lines = [f"{'Matrix':<14}" + "".join(f"{a:>11}" for a in ALGS)
             + f"{'Speedup':>9}   [GFLOPS, {precision}]"]
    for name in LARGE_GRAPHS:
        cells = []
        ours = best = 0.0
        for a in ALGS:
            r = by_key[(name, a)]
            # full-scale feasibility decides the "-" entries
            if not fits_device(a, get_dataset(name), precision):
                cells.append(f"{'-':>11}")
                continue
            cells.append(f"{r.gflops:>11.3f}")
            if a == "proposal":
                ours = r.gflops
            else:
                best = max(best, r.gflops)
        sp = f"x{ours / best:.1f}" if best else "-"
        lines.append(f"{name:<14}" + "".join(cells) + f"{sp:>9}")
    return "\n".join(lines)


def test_table3_large_graph_performance(benchmark, show):
    runs = run_once(benchmark, lambda: run_suite(
        list(LARGE_GRAPHS), precisions=("single", "double")))

    for precision in ("single", "double"):
        show(f"Table III ({precision})", _render(runs, precision))

    # paper pattern: CUSP/BHSPARSE OOM on cage15+wb-edu, all run cit-Patents
    for precision in ("single", "double"):
        for name in ("cage15", "wb-edu"):
            ds = get_dataset(name)
            assert not fits_device("cusp", ds, precision)
            assert not fits_device("bhsparse", ds, precision)
            assert fits_device("cusparse", ds, precision)
            assert fits_device("proposal", ds, precision)

    # proposal beats every runnable baseline on every large graph
    by_key = {(r.dataset, r.algorithm, r.precision): r.gflops for r in runs}
    for precision in ("single", "double"):
        for name in LARGE_GRAPHS:
            ours = by_key[(name, "proposal", precision)]
            runnable = [a for a in ("cusp", "cusparse", "bhsparse")
                        if fits_device(a, get_dataset(name), precision)]
            assert ours > max(by_key[(name, a, precision)] for a in runnable)


def test_table3_full_scale_peaks(benchmark, show):
    def peaks():
        rows = []
        for name in LARGE_GRAPHS:
            ds = get_dataset(name)
            row = [f"{name:<14}"]
            for a in ALGS:
                gib = full_scale_peak(a, ds, "single") / 2 ** 30
                row.append(f"{gib:>9.1f}{'*' if gib > 16 else ' '}")
            rows.append("".join(row))
        return "\n".join(rows)

    table = run_once(benchmark, peaks)
    show("Full-scale peak memory [GiB, single; * = exceeds 16 GB]",
         f"{'Matrix':<14}" + "".join(f"{a:>10}" for a in ALGS) + "\n" + table)


def test_e14_resilience_recovery(benchmark, show):
    """E14: finish cit-Patents under a budget where the plain proposal OOMs."""
    ds = get_dataset("cit-Patents")
    A = ds.matrix()

    def run():
        plain = repro.multiply(A, A, algorithm="proposal",
                               precision="single", matrix_name=ds.name)
        budget = int(0.7 * plain.report.peak_bytes)
        try:
            repro.multiply(A, A, algorithm="proposal", precision="single",
                           device=P100.with_memory(budget),
                           matrix_name=ds.name)
            oomed = False
        except DeviceMemoryError:
            oomed = True
        res = repro.multiply(A, A, algorithm="resilient",
                             precision="single", memory_budget=budget,
                             matrix_name=ds.name)
        return plain, budget, oomed, res

    plain, budget, oomed, res = run_once(benchmark, run)
    rep = res.resilience

    assert oomed, "plain proposal should not fit 0.7x its own peak"
    assert rep.recovered and rep.final_strategy == "panels"
    assert max(rep.panel_peaks) <= budget
    assert res.matrix.allclose(plain.matrix)

    mib = 1 << 20
    show(
        "E14 -- resilience (cit-Patents @ 0.7x plain peak)",
        f"plain peak      {plain.report.peak_bytes / mib:8.1f} MiB "
        f"@ {plain.report.gflops:.3f} GFLOPS\n"
        f"budget          {budget / mib:8.1f} MiB (plain: OOM)\n"
        f"recovered peak  {max(rep.panel_peaks) / mib:8.1f} MiB "
        f"@ {res.report.gflops:.3f} GFLOPS "
        f"({rep.panels_used} panels)\n" + rep.summary())
