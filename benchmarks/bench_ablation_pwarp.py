"""E9 -- Section IV-C PWARP ablation: "for the matrix 'Epidemiology' ...
the PWARP/ROW significantly improves the performance ... the speedup is
x3.1 compared to the proposal without PWARP/ROW".

Without PWARP/ROW, tiny rows are dispatched one thread block each through
the smallest TB/ROW group -- per-block prologue, oversized tables and the
serial rpt_B -> col_B chain then dominate.
"""

from repro.bench.datasets import LOW_THROUGHPUT, get_dataset
from repro.core.spgemm import HashSpGEMM

from benchmarks.conftest import run_once


def _ratio(name: str) -> tuple[float, float, float]:
    A = get_dataset(name).matrix()
    with_pwarp = HashSpGEMM().multiply(
        A, A, precision="single", matrix_name=name).report.total_seconds
    without = HashSpGEMM(use_pwarp=False).multiply(
        A, A, precision="single", matrix_name=name).report.total_seconds
    return with_pwarp, without, without / with_pwarp


def test_ablation_pwarp_row(benchmark, show):
    results = run_once(benchmark,
                       lambda: {n: _ratio(n) for n in LOW_THROUGHPUT})
    lines = [f"{'Matrix':<16}{'pwarp [us]':>13}{'tb-only [us]':>14}"
             f"{'speedup':>9}"]
    for name, (w, wo, r) in results.items():
        lines.append(f"{name:<16}{w * 1e6:>13.1f}{wo * 1e6:>14.1f}"
                     f"{'x%.2f' % r:>9}")
    show("PWARP/ROW ablation (paper: x3.1 on Epidemiology)",
         "\n".join(lines))

    # Epidemiology benefits strongly (all of its rows are PWARP rows);
    # the factor compresses at instance scale (paper x3.1, band >= 1.25
    # here) and every low-throughput matrix must benefit
    _, _, epi = results["Epidemiology"]
    assert epi >= 1.25
    assert all(r >= 1.0 for _, _, r in results.values())
