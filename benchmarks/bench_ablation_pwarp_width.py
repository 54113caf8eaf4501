"""E10 -- Section III-B preliminary experiment: threads per PWARP row.

"We did preliminary evaluation with changing the number of threads per
row as 1, 2, 4, 8 and 16.  In the result, 4 threads per row stably shows
best performance."  Reproduced by sweeping the ``pwarp_width`` override
on the two lowest-degree matrices.
"""

from repro.bench.datasets import get_dataset
from repro.core.params import ParamOverrides
from repro.core.spgemm import HashSpGEMM

from benchmarks.conftest import run_once

WIDTHS = (1, 2, 4, 8, 16)
MATRICES = ("Epidemiology", "webbase")


def _sweep():
    out = {}
    for name in MATRICES:
        A = get_dataset(name).matrix()
        out[name] = {
            w: HashSpGEMM(overrides=ParamOverrides(pwarp_width=w)).multiply(
                A, A, precision="single",
                matrix_name=name).report.total_seconds
            for w in WIDTHS
        }
    return out


def test_ablation_pwarp_width(benchmark, show):
    results = run_once(benchmark, _sweep)
    lines = [f"{'Matrix':<16}" + "".join(f"{w:>10}" for w in WIDTHS)
             + "   [total us]"]
    for name, times in results.items():
        lines.append(f"{name:<16}"
                     + "".join(f"{times[w] * 1e6:>10.1f}" for w in WIDTHS))
    show("PWARP width sweep (paper: 4 threads/row stably best)",
         "\n".join(lines))

    for name, times in results.items():
        # narrow widths lose to the serial per-thread chain; 4 is at or
        # near the optimum (within 15% -- at instance scale, wave
        # quantization lets 8 edge ahead occasionally; the paper's full
        # sizes smooth this out)
        assert times[4] <= times[1], name
        assert times[4] <= times[2], name
        assert times[4] <= min(times.values()) * 1.15, name
