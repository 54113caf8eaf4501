"""E20 -- real-seconds cost of the simulator on iterative workloads.

Every other experiment reports *modeled* device time; E20 measures the
host CPU seconds the simulator itself burns serving the E16/E17
iterative suites -- the quantity that bounds ``repro.serve`` throughput
and CI latency.  The vectorization pass (sort-recipe replay, phase-
schedule memo, batched group/table primitives, unobserved fast path)
targets exactly this number; the recipe tests, the lane-schedule
properties and the goldens hold its output to the reference oracles.

Reference points measured on the CI container (median of 5):

======================  ==========  =========  ========
suite                   before (s)  after (s)  speedup
======================  ==========  =========  ========
e16-iterative               0.8648     0.1511    x5.72
e17-dist-iterative          0.2074     0.0854    x2.43
======================  ==========  =========  ========

The table printed below is the *current* measurement on this machine;
the SCHEMA-5 slice of ``benchmarks/regression.py`` pins it at 1.5x.
"""

from repro.bench.wallclock import run_wallclock_suite

from benchmarks.conftest import run_once

#: The pre-vectorization medians (CI container), for the speedup column.
BEFORE_SECONDS = {"e16-iterative": 0.8648, "e17-dist-iterative": 0.2074}


def test_e20_wallclock(benchmark, show):
    stats = run_once(benchmark, lambda: run_wallclock_suite(repeats=3))

    rows = [f"{'suite':<22}{'median s':>10}{'before s':>10}{'speedup':>9}"]
    for name in sorted(stats):
        s = stats[name]
        before = BEFORE_SECONDS.get(name)
        sp = f"x{before / s.median_seconds:.2f}" if before else "-"
        bf = f"{before:.4f}" if before else "-"
        rows.append(f"{name:<22}{s.median_seconds:>10.4f}{bf:>10}{sp:>9}")
    show("E20 wall-clock (real seconds, median of 3)", "\n".join(rows))
