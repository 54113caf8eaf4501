"""E16 -- plan-cache amortization: cold vs engine on iterative workloads.

The paper pays the symbolic phase (product counting, both grouping
passes, the counting kernels, the row-pointer scan) on every multiply.
Iterative consumers -- Jacobi-style value updates on a fixed pattern,
Markov-clustering expansions -- repeat the same sparsity pattern with
fresh values, so the engine's plan cache replays only the numeric phase
after the first multiply.  This experiment measures that amortization on
the modeled clock:

1. *fixed-pattern leg*: N multiplies of the same banded structure with
   new values each iteration, cold vs through one engine.  Every
   iteration after the first must hit, drop the full symbolic+setup
   component, and stay bit-identical to the cold result.
2. *MCL leg*: Markov clustering on a community (block-dense) graph with
   the engine on (the ``markov_cluster`` default) vs off -- the pattern
   stabilizes after a few expansions and later iterations hit.
"""

import numpy as np

import repro
from repro.apps import markov_cluster
from repro.engine import SpGEMMEngine
from repro.sparse import generators
from repro.sparse.csr import CSRMatrix

from benchmarks.conftest import run_once

N_ITERS = 8


def _iterates(A: CSRMatrix, n: int):
    """Fresh values on a shared structure: the iterative-solver shape."""
    rng = np.random.default_rng(7)
    return [CSRMatrix(A.rpt, A.col, A.val * rng.uniform(0.5, 1.5),
                      A.shape, check=False) for _ in range(n)]


def test_e16_engine_amortization(benchmark, show):
    A = generators.banded(1200, 20, rng=0)
    mats = _iterates(A, N_ITERS)
    G = generators.block_dense(120, 12, rng=0)

    def run():
        cold = [repro.multiply(M, M) for M in mats]
        eng = SpGEMMEngine("proposal")
        warm = [eng.multiply(M, M) for M in mats]
        mcl_on = markov_cluster(G, max_iters=15)
        mcl_off = markov_cluster(G, max_iters=15, engine=False)
        return cold, warm, eng, mcl_on, mcl_off

    cold, warm, eng, mcl_on, mcl_off = run_once(benchmark, run)

    rows = [f"{'iter':>4}{'cold us':>12}{'engine us':>12}{'mode':>8}"]
    for i, (c, w) in enumerate(zip(cold, warm)):
        mode = "replay" if w.report.numeric_only else "cold"
        rows.append(f"{i:>4}{c.report.total_seconds * 1e6:>12.1f}"
                    f"{w.report.total_seconds * 1e6:>12.1f}{mode:>8}")
    cold_total = sum(c.report.total_seconds for c in cold)
    warm_total = sum(w.report.total_seconds for w in warm)
    s = eng.stats()
    rows.append(f"total cold {cold_total * 1e6:.1f} us  "
                f"engine {warm_total * 1e6:.1f} us  "
                f"(x{cold_total / warm_total:.2f}); "
                f"hit-rate {100 * s.hit_rate:.0f}%, "
                f"amortized {s.saved_seconds * 1e6:.1f} us")
    mo, mf = mcl_on.engine.stats(), mcl_off
    rows.append(f"MCL ({mcl_on.iterations} expansions): engine hits "
                f"{mo.hits}/{mo.lookups} once the pattern stabilizes")
    show("E16: plan-cache amortization (modeled time)", "\n".join(rows))

    # every repeat of the fixed pattern hits and replays numeric-only
    assert s.hits == N_ITERS - 1 and s.misses == 1
    assert all(w.report.numeric_only for w in warm[1:])

    # replays are bit-identical to the cold multiplies, per iteration
    for c, w in zip(cold, warm):
        assert np.array_equal(c.matrix.rpt, w.matrix.rpt)
        assert np.array_equal(c.matrix.col, w.matrix.col)
        assert np.array_equal(c.matrix.val, w.matrix.val)

    # each hit drops at least the full symbolic+setup component
    symbolic = (cold[0].report.phase_seconds.get("setup", 0.0)
                + cold[0].report.phase_seconds.get("count", 0.0))
    assert symbolic > 0.0
    assert warm_total <= cold_total - (N_ITERS - 1) * symbolic + 1e-9

    # the MCL default engages the engine and converts stabilized-pattern
    # expansions into hits; the clustering itself is unchanged
    assert mo.hits >= 3
    assert mf.engine is None
    assert np.array_equal(mcl_on.matrix.col, mcl_off.matrix.col)
    assert np.allclose(mcl_on.matrix.val, mcl_off.matrix.val)
