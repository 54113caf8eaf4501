"""Real-seconds smoke tests for the vectorized core (marked ``perf``).

Tier-1 deselects no marker, so these run in every tier-1 run (CI's
``tier1`` job); ``-m perf`` selects them alone.  They hold two
properties:

* the E16 iterative mini-suite completes under a *generous* real-seconds
  ceiling -- a smoke alarm for order-of-magnitude regressions, not a
  benchmark (the calibrated 1.5x fence lives in the SCHEMA-5 slice of
  ``benchmarks/regression.py``);
* the unobserved fast path (``SpGEMMOptions(observe=False)`` /
  ``observe_runs(False)``) emits *zero* events -- through the dist,
  engine, resilience and tuning wrappers too -- while the observed run
  of the same multiply emits the full stream with identical results and
  identical modeled seconds.
"""

import time

import numpy as np
import pytest

import repro
from repro import perf
from repro.bench.wallclock import e16_iterative_pass
from repro.obs.events import observe_runs
from repro.sparse import generators

pytestmark = pytest.mark.perf

#: Generous ceiling: the suite runs in ~0.15 s on the CI container; a
#: 20x margin keeps slow shared runners from flaking while still
#: catching a return to per-row scalar behavior (~0.9 s) times any
#: plausible machine factor.
E16_CEILING_SECONDS = 3.0


def test_e16_mini_suite_under_ceiling():
    perf.clear_fast_caches()
    start = time.perf_counter()
    e16_iterative_pass()
    elapsed = time.perf_counter() - start
    assert elapsed < E16_CEILING_SECONDS, \
        f"E16 iterative pass took {elapsed:.3f}s (ceiling {E16_CEILING_SECONDS}s)"


def _pair(A, fields: dict, *, observe: bool):
    perf.clear_fast_caches()
    opts = repro.SpGEMMOptions(algorithm="proposal", observe=observe,
                               **fields)
    return repro.multiply(A, A, options=opts)


#: The plain run plus each wrapper layer that frames a run with events
#: of its own: the dist driver, the plan-cache engine, the resilience
#: ladder and the tuner.
WRAPPERS = {"plain": {}, "dist": {"devices": 2}, "engine": {"engine": True},
            "resilient": {"resilient": True}, "tune": {"tune": True}}


@pytest.mark.parametrize("fields", list(WRAPPERS.values()), ids=list(WRAPPERS))
def test_unobserved_emits_zero_events(fields):
    A = generators.banded(300, 10, rng=np.random.default_rng(3))
    observed = _pair(A, fields, observe=True)
    silent = _pair(A, fields, observe=False)

    assert len(observed.report.events) > 0
    assert silent.report.events == []

    # silence is free of semantic cost: same matrix, same modeled time
    assert np.array_equal(observed.matrix.rpt, silent.matrix.rpt)
    assert np.array_equal(observed.matrix.col, silent.matrix.col)
    assert np.array_equal(observed.matrix.val, silent.matrix.val)
    assert observed.report.total_seconds == silent.report.total_seconds
    assert observed.report.phase_seconds == silent.report.phase_seconds


def test_observe_runs_ambient_flag():
    A = generators.banded(200, 8, rng=np.random.default_rng(4))
    perf.clear_fast_caches()
    with observe_runs(False):
        r = repro.multiply(A, A)
    assert r.report.events == []
    perf.clear_fast_caches()
    r2 = repro.multiply(A, A)
    assert len(r2.report.events) > 0
    assert r.report.total_seconds == r2.report.total_seconds
