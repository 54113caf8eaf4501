"""Tests of the benchmark itself: seeds, tracing, output contract.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import tracer as T
import workloads as W
from repro.bench.datasets import DATASETS, dataset_rng

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Two small Table II analogues keep the paper-cold passes short.
SMALL = ("FEM/Harbor", "Circuit")


def _workload(name: str, seed: int = 0):
    wl = W.make(name, seed, serve_rate=200.0)
    wl.setup()
    if name == "paper-cold":
        wl.mats = {n: wl.mats[n] for n in SMALL}
    wl.prepare()
    return wl


def _run(name: str, tracer=None):
    """One pass / round / minimal serve phase; the segment keeps results."""
    wl = _workload(name)
    seg = W.Segment()
    seg.kept = []
    try:
        if tracer is None:
            wl.measure(seg, 0.0)
        else:
            with tracer:
                wl.measure(seg, 0.0, tracer)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    return seg


@pytest.fixture(scope="module", params=W.WORKLOADS)
def runs(request):
    """(untraced segment, two traced segments and their tracers)."""
    plain = _run(request.param)
    tracers = [T.Tracer(), T.Tracer()]
    traced = [_run(request.param, t) for t in tracers]
    return request.param, plain, traced, tracers


# -- seeds ----------------------------------------------------------------


def _same(a, b) -> bool:
    return (a.shape == b.shape and np.array_equal(a.rpt, b.rpt)
            and np.array_equal(a.col, b.col) and np.array_equal(a.val, b.val))


def test_default_seed_reproduces_the_table2_datasets():
    for name, build in W.PAPER_SHAPES.items():
        assert _same(build(dataset_rng(name)), DATASETS[name].matrix()), name


def test_default_seed_reproduces_e16_and_e19_inputs():
    from repro.bench import wallclock
    from repro.bench.runner import _storm_matrices
    from repro.sparse import generators as G

    it = W.Iterative(0)
    it.setup()
    A = G.banded(1200, 20, rng=0)
    for got, want in zip(it._iterates(), wallclock._iterates(A, 8)):
        assert _same(got, want)
    assert _same(it.graph, G.block_dense(120, 12, rng=0))

    sv = W.Serve(0, rate=100.0)
    sv.setup()
    sv.close()
    storm = _storm_matrices("double")
    for got, key in zip(sv.patterns, ("banded", "powerlaw", "rmat")):
        assert _same(got, storm[key])


def test_other_seeds_keep_shapes_and_change_content():
    a, b = W.PaperCold(0), W.PaperCold(7)
    a.setup()
    b.setup()
    for name in W.PAPER_SHAPES:
        assert a.mats[name].shape == b.mats[name].shape
        assert not _same(a.mats[name], b.mats[name]), name
    c = W.PaperCold(7)
    c.setup()
    assert all(_same(b.mats[n], c.mats[n]) for n in W.PAPER_SHAPES)


# -- tracing ----------------------------------------------------------------


def test_traced_and_untraced_runs_agree(runs):
    name, plain, traced, _ = runs
    assert plain.failed == 0 and all(t.failed == 0 for t in traced)
    # a served job's modeled seconds depend on the job dispatched before it
    # (the dist driver's resident-B cache); the open loop dispatches in
    # arrival order, the bursts in fair-queue order, which varies
    fixed = W.CYCLE if name == "serve" else len(plain.kept)
    for seg in traced:
        assert len(seg.kept) == len(plain.kept) > 0
        for i, ((m1, s1), (m2, s2)) in enumerate(zip(plain.kept, seg.kept)):
            assert _same(m1, m2), name
            assert s1 == s2 or i >= fixed, name


def test_span_tree_invariants(runs):
    _, _, _, tracers = runs
    spans = tracers[0].spans
    assert spans
    for s in spans:
        assert s.end >= s.start > 0.0
        assert s.self_s >= -1e-9
        assert s.child_s <= s.duration + 1e-9
        if s.name.startswith("bench."):
            assert s.parent is None
            # the root span sits inside the caller's stopwatch reading
            assert 0.0 <= s.info - s.duration < 1e-3
    names = {s.name for s in spans}
    assert names <= {n for _, _, n in T.ENTRY_POINTS} | {
        "bench.multiply", "bench.iterate", "bench.mcl"}


def test_layer_counts_repeat_exactly(runs):
    name, _, traced, tracers = runs
    counts = ("sparse.recipe_builds", "sparse.fingerprint_calls",
              "gpu.schedule_calls", "sparse.product_hit_ratio",
              "gpu.memo_hit_ratio", "engine.plan_hit_ratio",
              "tune.store_hit_ratio")
    if name == "serve":      # caches carry over between runs in a process
        counts = ()
    a, b = (T.layer_metrics(t.spans, s.attempted)
            for t, s in zip(tracers, traced))
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert traced[0].events == traced[1].events
    for key in ("retries", "degraded", "coalesced"):
        assert sum(traced[0].serve[key]) == sum(traced[1].serve[key])


def test_tracer_restores_every_entry_point():
    import importlib

    before = {}
    for module, attr, _ in T.ENTRY_POINTS:
        mod = importlib.import_module(module)
        owner, key = ((getattr(mod, attr.split(".")[0]), attr.split(".")[1])
                      if "." in attr else (mod, attr))
        before[module, attr] = owner.__dict__[key] if "." in attr \
            else getattr(owner, key)
    from repro.backend.gpu_backend import GPUBackend

    hook = GPUBackend.__dict__["simulate_phase"]
    with T.Tracer() as tr:
        assert GPUBackend.__dict__["simulate_phase"] is not hook
        repro.multiply(*([repro.generators.poisson2d(8)] * 2))
        assert any(s.name == "gpu.schedule" for s in tr.spans)
    assert GPUBackend.__dict__["simulate_phase"] is hook
    for (module, attr), obj in before.items():
        mod = importlib.import_module(module)
        if "." in attr:
            cls, meth = attr.split(".")
            assert getattr(mod, cls).__dict__[meth] is obj
        else:
            assert getattr(mod, attr) is obj


def test_chrome_trace_loads_like_repro_trace_json(runs, tmp_path):
    from repro.obs.export import chrome_trace

    _, _, _, tracers = runs
    path = tmp_path / "spans.json"
    path.write_text(json.dumps(T.chrome_trace(tracers[0].spans, label="x")))
    doc = json.loads(path.read_text())
    ref = chrome_trace(repro.multiply(*([repro.generators.poisson2d(8)] * 2))
                       .report)
    assert set(doc) == set(ref)
    assert doc["displayTimeUnit"] == ref["displayTimeUnit"]
    ref_x = next(e for e in ref["traceEvents"] if e["ph"] == "X")
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == len(tracers[0].spans)
    for e in slices:
        assert set(e) == set(ref_x)
        assert e["ts"] >= 0.0 and e["dur"] >= 0.0


# -- cache hygiene ------------------------------------------------------------


def test_paper_cold_refuses_a_warm_pass(monkeypatch):
    wl = _workload("paper-cold")
    monkeypatch.setattr(W.perf, "clear_fast_caches", lambda: None)
    seg = W.Segment()
    with pytest.raises(W.HygieneError, match="sort-recipe builds"):
        wl.measure(seg, 0.0)
        wl.measure(seg, 0.0)


def test_serve_refuses_observed_runs():
    from repro.options import SpGEMMOptions
    from repro.serve import SpGEMMServer

    wl = _workload("serve")
    wl.server.shutdown()
    wl.server = SpGEMMServer(options=SpGEMMOptions(devices=2), n_workers=1,
                             observe_runs=True)
    try:
        with pytest.raises(W.HygieneError, match="unobserved run"):
            wl.measure(W.Segment(), 0.0)
    finally:
        wl.close()


# -- the command ---------------------------------------------------------------


def _command(*args, cwd=ROOT):
    cmd = [sys.executable, str(RUN) if cwd == ROOT else "perfbench/run.py",
           *SPEC["command"][2:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_smoke_end_to_end(workload):
    out = _command("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", "0")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in res["metrics"].values())
    record = json.loads(out.stdout.strip().splitlines()[-2])["record"]
    assert record["seed"] == 3 and record["nproc"] >= 1
    assert record["numpy"] == np.__version__


def test_smoke_traced(tmp_path):
    trace = tmp_path / "trace.json"
    out = _command("--workload", "iterative", "--seed", "0", "--seconds", "1",
                   "--trace", "1", "--trace-json", str(trace))
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    assert res["metrics"]["tune.search_s"]["value"] > 0
    assert json.loads(trace.read_text())["traceEvents"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _command("--workload", "paper-cold", "--seed", "1", "--seconds",
                   "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
