"""E12 -- ablation of the Table I halving scheme (Section III-D).

The paper's central design choice: each smaller group halves the hash
table and the thread block "to increase the number of concurrently
executing thread blocks on each SM".  ``uniform_tb=True`` disables the
halving (every TB/ROW group keeps 1024 threads and the maximum table).

Note on expectations: the cost model is deliberately throughput-neutral
in co-residency, so the occupancy gain only shows through per-block
floors (prologue + serial chains + table-init) -- a few percent at
instance scale, versus the larger gains the paper observes on hardware.
Recorded as a known model limitation in EXPERIMENTS.md.
"""

from repro.bench.datasets import HIGH_THROUGHPUT, get_dataset
from repro.core.spgemm import HashSpGEMM

from benchmarks.conftest import run_once


def _compare(name: str):
    A = get_dataset(name).matrix()
    grouped = HashSpGEMM().multiply(A, A, precision="single",
                                    matrix_name=name)
    uniform = HashSpGEMM(uniform_tb=True).multiply(
        A, A, precision="single", matrix_name=name)
    return grouped, uniform


def test_ablation_table1_halving(benchmark, show):
    results = run_once(benchmark, lambda: {n: _compare(n)
                                           for n in HIGH_THROUGHPUT})
    lines = [f"{'Matrix':<18}{'grouped [us]':>14}{'uniform [us]':>14}"
             f"{'speedup':>9}"]
    ratios = []
    for name, (grouped, uniform) in results.items():
        g = grouped.report.total_seconds
        u = uniform.report.total_seconds
        ratios.append(u / g)
        lines.append(f"{name:<18}{g * 1e6:>14.1f}{u * 1e6:>14.1f}"
                     f"{'x%.3f' % (u / g):>9}")
    show("Table I halving-scheme ablation (grouped vs uniform configs)",
         "\n".join(lines))

    # results identical either way; grouped never loses on the
    # high-throughput suite in aggregate
    for name, (grouped, uniform) in results.items():
        assert grouped.matrix.allclose(uniform.matrix, rtol=1e-12), name
    assert sum(ratios) / len(ratios) >= 1.0
