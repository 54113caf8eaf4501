"""E20 -- multi-stream block scheduling at a Table II row count.

Squares the Economics analogue's generator at Table II's 206,500 rows
(``diagonal_plus_random(206500, 5.2, rng=0)``, 7.94 M intermediate
products) with the proposal in single precision.  Its symbolic and
numeric phases each put the TB/ROW group g5 (one row per block) and the
PWARP group g6 on their own streams (Section IV-C): 305,563 blocks in
two multi-stream phases, nearly all of them g5's, with g6 waiting
behind it.  The fixed-point event loop must return the per-block oracle
loop's records (``tests/scheduler_oracle.py``) on both phases, and the
one cold pass the product's ``rpt``, ``col`` and float64 values that
the whole-product lexsort and ``reduceat`` give
(``tests/recipe_oracle.py``); the log shows the host seconds of each
against its oracle's.
"""

import time

import repro
from repro import perf
from repro.gpu import scheduler
from repro.sparse import generators, product

from benchmarks.conftest import run_once
from tests.recipe_oracle import assert_cold_pass
from tests.scheduler_oracle import event_loop


def test_e20_multistream_schedule(benchmark, show, monkeypatch):
    A = generators.diagonal_plus_random(206_500, 5.2, rng=0)
    real = scheduler._event_loop
    phases = []

    def checked(kernels, durations, device, start_time, use_streams):
        t0 = time.perf_counter()
        got = real(kernels, durations, device, start_time, use_streams)
        t1 = time.perf_counter()
        ref = event_loop(kernels, durations, device, start_time, use_streams)
        assert got == ref, [k.name for k in kernels]
        phases.append((kernels[0].phase, sum(len(d) for d in durations),
                       t1 - t0, time.perf_counter() - t1))
        return got

    real_build = product.build_sort_recipe
    builds = []

    def checked_build(A, B):
        t0 = time.perf_counter()
        recipe, values = real_build(A, B)
        t1 = time.perf_counter()
        assert_cold_pass(recipe, values, A, B)
        builds.append((t1 - t0, time.perf_counter() - t1))
        return recipe, values

    monkeypatch.setattr(scheduler, "_event_loop", checked)
    monkeypatch.setattr(product, "build_sort_recipe", checked_build)
    perf.clear_fast_caches()
    t0 = time.perf_counter()
    result = run_once(benchmark, lambda: repro.multiply(
        A, A, algorithm="proposal", precision="single"))
    host_s = (time.perf_counter() - t0 - sum(p[3] for p in phases)
              - sum(b[1] for b in builds))
    assert result.report.n_products == 7_938_501
    assert sum(p[1] for p in phases) == 305_563
    assert len(builds) == 1

    rows = [f"{'phase':<10}{'blocks':>9}{'refill s':>10}{'oracle s':>10}"]
    for phase, blocks, new_s, oracle_s in phases:
        rows.append(f"{phase:<10}{blocks:>9}{new_s:>10.3f}{oracle_s:>10.3f}")
    rows.append(f"{'total':<10}{sum(p[1] for p in phases):>9}"
                f"{sum(p[2] for p in phases):>10.3f}"
                f"{sum(p[3] for p in phases):>10.3f}")
    build_s, lexsort_s = builds[0]
    rows.append(f"{'cold pass':<10}{result.report.n_products:>9}"
                f"{build_s:>10.3f}{lexsort_s:>10.3f}"
                "   (products; cold pass s, lexsort oracle s)")
    rows.append(f"multiply host seconds without the oracles: {host_s:.3f}")
    show("E20 multi-stream schedule, Economics at 206,500 rows "
         "(records equal the oracle's)", "\n".join(rows))
