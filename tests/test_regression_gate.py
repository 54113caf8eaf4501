"""The bench-regression gate's check (``benchmarks/regression.py``).

Modeled fields must match the committed baseline to round-off in both
directions; only the E20 real-seconds medians and the whole run's wall
clock are fenced loosely.
"""

import copy
import json
from pathlib import Path

import pytest

from benchmarks.regression import WALLCLOCK_TOLERANCE, compare

BASELINE = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCH_BASELINE.json").read_text())

PROPOSAL = ("Protein", "proposal")
STORM = ("storm-42@0.1", "serve")
E16 = ("e16-iterative", "wallclock")


def _edited(key, path, fn, doc=BASELINE):
    """A copy of ``doc`` with the field at ``path`` of run ``key``
    replaced by ``fn(old value)``."""
    doc = copy.deepcopy(doc)
    rec = next(r for r in doc["runs"]
               if (r["dataset"], r["algorithm"]) == key)
    *parents, field = path
    for p in parents:
        rec = rec[p]
    rec[field] = fn(rec[field])
    return doc


def test_copy_of_the_baseline_passes():
    assert compare(BASELINE, copy.deepcopy(BASELINE)) == []


@pytest.mark.parametrize("rel", [1e-12, -1e-12])
def test_round_off_passes(rel):
    cur = _edited(PROPOSAL, ["gflops"], lambda v: v * (1.0 + rel))
    assert compare(BASELINE, cur) == []


@pytest.mark.parametrize("path", ["gflops", "total_seconds",
                                  "phase_seconds/calc"])
@pytest.mark.parametrize("rel", [1e-6, -1e-6])
def test_modeled_change_fails_in_either_direction(path, rel):
    cur = _edited(PROPOSAL, path.split("/"), lambda v: v * (1.0 + rel))
    problems = compare(BASELINE, cur)
    assert len(problems) == 1
    assert problems[0].startswith(f"Protein/proposal/{path}: ")


def test_changed_count_fails():
    cur = _edited(STORM, ["serve_completed"], lambda v: v + 1)
    assert compare(BASELINE, cur) == [
        "storm-42@0.1/serve/serve_completed: 18 -> 19"]


def test_changed_oom_status_fails():
    cur = copy.deepcopy(BASELINE)
    rec = next(r for r in cur["runs"]
               if (r["dataset"], r["algorithm"]) == PROPOSAL)
    for field in ("gflops", "total_seconds", "phase_seconds"):
        del rec[field]
    rec["oom"] = True
    problems = compare(BASELINE, cur)
    assert len(problems) == 1 and "fields changed" in problems[0]
    assert "new ['oom']" in problems[0]


@pytest.mark.parametrize("factor,passes", [
    (0.5, True), (1.0 + 0.9 * WALLCLOCK_TOLERANCE, True),
    (1.0 + 1.1 * WALLCLOCK_TOLERANCE, False)])
def test_wallclock_median_is_fenced_not_matched(factor, passes):
    cur = _edited(E16, ["wall_seconds_median"], lambda v: v * factor)
    cur = _edited(E16, ["wall_runs"], lambda v: [x * factor for x in v], cur)
    problems = compare(BASELINE, cur)
    assert (problems == []) == passes
    assert all("wall clock regressed" in p for p in problems)


def test_tuned_slower_than_default_fails_on_the_current_run():
    # the baseline itself holds the violation: only the current run's own
    # tuned <= default invariant can catch it
    doc = _edited(("Protein", "tune-K40"), ["default_seconds"],
                  lambda v: v / 2)
    problems = compare(doc, copy.deepcopy(doc))
    assert len(problems) == 1 and "exceeds default" in problems[0]
