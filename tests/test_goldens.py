"""Golden-trace regression suite.

Every (workload, case) pair has a checked-in canonical trace summary
under ``tests/goldens/``.  A case is a cold run of the four paper
algorithms, of ``tile`` or of a CPU leaf on ``KNL64``, the proposal's
estimated symbolic phase (plain, and forced to violate its bounds so
the recount fires), or the second, replayed multiply through
:class:`~repro.engine.SpGEMMEngine`.  The summaries capture the full observable
behaviour of a run -- phase times, kernel schedule, grouping decisions,
hash-table occupancy, the allocation ledger and the exported metrics -- so
any change to the simulator's timing, grouping or memory behaviour shows
up as a readable unified diff here.

To bless intentional changes, regenerate the files::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens
"""

import difflib
from pathlib import Path

import pytest

from repro.baselines.registry import DISPLAY_ORDER, create
from repro.cpu.device import KNL64
from repro.engine import SpGEMMEngine
from repro.obs.export import trace_summary
from repro.sparse import generators

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Small deterministic workloads: one regular band matrix and one skewed
#: power-law matrix (the two structural regimes the grouping distinguishes).
WORKLOADS = {
    "banded120": lambda: generators.banded(120, 8, rng=7),
    "powerlaw150": lambda: generators.power_law(150, 4.0, 60, rng=9),
}



def _cold(name: str, **options):
    return lambda A, w: create(name, **options).multiply(A, A, matrix_name=w)


def _on_knl(name: str):
    return lambda A, w: create(name).multiply(A, A, device=KNL64,
                                              matrix_name=w)


def _replayed(name: str):
    def run(A, w):
        engine = SpGEMMEngine(name)
        engine.multiply(A, A, matrix_name=w)
        return engine.multiply(A, A, matrix_name=w)
    return run


#: Case name -> run producing the summarized result.  The forced
#: estimate (one sample, no margin) violates its bounds on both
#: workloads, so its golden pins the exact recount of violated rows.
RUNS = {
    **{a: _cold(a) for a in DISPLAY_ORDER},
    "tile": _cold("tile"),
    **{a: _on_knl(a) for a in ("hash-cpu", "heap-cpu", "propblock")},
    "proposal-estimate": _cold("proposal", symbolic="estimate"),
    "proposal-estimate-forced": _cold("proposal", symbolic="estimate",
                                      estimate_samples=1,
                                      estimate_margin=0.0),
    "proposal-replay": _replayed("proposal"),
    "tile-replay": _replayed("tile"),
}

CASES = [(w, a) for w in sorted(WORKLOADS) for a in RUNS]


def _summarize(workload: str, case: str) -> str:
    A = WORKLOADS[workload]()
    return trace_summary(RUNS[case](A, workload).report)


@pytest.mark.parametrize("workload,algorithm", CASES,
                         ids=[f"{w}-{a}" for w, a in CASES])
def test_golden_trace(workload, algorithm, update_goldens):
    got = _summarize(workload, algorithm)
    path = GOLDEN_DIR / f"{workload}__{algorithm}.txt"
    if update_goldens:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(got, encoding="utf-8")
        pytest.skip(f"golden rewritten: {path.name}")
    if not path.exists():
        pytest.fail(f"missing golden {path}; run with --update-goldens")
    want = path.read_text(encoding="utf-8")
    if got != want:
        diff = "".join(difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True),
            fromfile=f"goldens/{path.name}", tofile="current run"))
        pytest.fail(f"trace summary drifted from golden:\n{diff}")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_summary_deterministic(workload):
    """Two consecutive runs must produce byte-identical summaries."""
    assert _summarize(workload, "proposal") == _summarize(workload, "proposal")


def test_goldens_complete():
    """Every checked-in golden corresponds to a live (workload, case)
    case -- stale files would silently stop being compared."""
    expected = {f"{w}__{a}.txt" for w, a in CASES}
    actual = {p.name for p in GOLDEN_DIR.glob("*.txt")}
    assert actual == expected
