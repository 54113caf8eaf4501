"""E17 -- distributed strong scaling: one problem, 1/2/4/8 devices.

The ``repro.dist`` layer row-partitions A by per-row work estimates,
broadcasts B over a modeled interconnect, runs the panels concurrently
on per-device engines and gathers C.  This experiment fixes the problem
size and grows the pool, on both interconnect presets:

1. *cold* leg: first multiply of each pool -- plan caches empty, B not
   yet resident.  Per-panel launch/malloc latency is paid on every
   device, so scaling is modest.
2. *steady-state* leg: the same multiply repeated until the per-device
   plan caches replay numeric-only and the broadcast cache holds B.
   This is the iterative-workload shape (E16) distributed; the panel
   compute dominates and speedup approaches the balance the partitioner
   achieved.

Speedups are T_dist(1) / T_dist(N) on the modeled clock, with the
interconnect wall broken out.  Every merged report must pass the
conservation checks (comm wall <= link occupancy, critical-device
decomposition) and stay bit-identical to a single-device run.
"""

import numpy as np

import repro
from repro.bench.datasets import get_dataset
from repro.bench.runner import dist_scaling_table, run_dist_scaling
from repro.obs.metrics import check_conservation

from benchmarks.conftest import run_once

DATASETS = ("Protein", "QCD", "Epidemiology")
DEVICE_COUNTS = (1, 2, 4, 8)

#: Acceptance bar: steady-state NVLink speedup at 4 devices on at least
#: two of the Table II datasets above.
TARGET_SPEEDUP = 2.5
TARGET_DEVICES = 4
TARGET_MIN_DATASETS = 2


def test_e17_dist_strong_scaling(benchmark, show):
    def run():
        nv = run_dist_scaling(list(DATASETS), DEVICE_COUNTS,
                              interconnect="nvlink", precision="single")
        pcie = run_dist_scaling(list(DATASETS[:1]), DEVICE_COUNTS,
                                interconnect="pcie", precision="single")
        return nv, pcie

    nv, pcie = run_once(benchmark, run)

    body = ["NVLink:", dist_scaling_table(nv), "",
            "PCIe (Protein):", dist_scaling_table(pcie)]
    show("E17: distributed strong scaling (modeled time)", "\n".join(body))

    # every merged report satisfies the dist conservation laws (raises)
    for r in nv + pcie:
        check_conservation(r.cold)
        check_conservation(r.steady)

    # comm is really broken out: multi-device runs charge the link
    assert all(r.steady_comm_seconds > 0.0 for r in nv if r.n_devices > 1)

    # steady state replays numeric-only on every shard
    assert all(r.steady.numeric_only for r in nv)

    # the distributed result is bit-identical to a single-device multiply
    A = get_dataset(DATASETS[0]).matrix()
    single = repro.multiply(A, A, precision="single")
    from repro.dist import DistSpGEMM
    dist = DistSpGEMM(n_devices=4, interconnect="nvlink")
    C = dist.multiply(A, A, precision="single").matrix
    assert np.array_equal(single.matrix.rpt, C.rpt)
    assert np.array_equal(single.matrix.col, C.col)
    assert np.array_equal(single.matrix.val, C.val)

    # acceptance: >= 2.5x steady-state at 4 devices on >= 2 datasets
    base = {r.dataset: r.steady.total_seconds
            for r in nv if r.n_devices == 1}
    hits = [r.dataset for r in nv
            if r.n_devices == TARGET_DEVICES
            and base[r.dataset] / r.steady.total_seconds >= TARGET_SPEEDUP]
    assert len(hits) >= TARGET_MIN_DATASETS, \
        f"steady {TARGET_DEVICES}-device NVLink speedup >= " \
        f"{TARGET_SPEEDUP}x only on {hits}"

    # more devices never slow the steady state down (monotone per dataset)
    for d in DATASETS:
        ts = [r.steady.total_seconds for r in nv if r.dataset == d]
        assert all(a >= b - 1e-12 for a, b in zip(ts, ts[1:]))
