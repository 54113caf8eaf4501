"""The autotuner: sketches, the store, the search and its wiring.

Pins the tentpole contract: the search never regresses past the Table I
defaults on modeled time, every applied configuration stays bit-identical
to the reference oracle, tuned configs persist across processes (and
invalidate on schema or structure changes), and the overrides flow
through the plan-cache keys, the registry's ``tune`` wrapper and the
distributed driver's per-device stage.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import SpGEMMOptions, multiply
from repro.sparse.reference import spgemm_reference
from repro.core.params import ParamOverrides
from repro.core.spgemm import HashSpGEMM
from repro.gpu.device import DEVICE_PRESETS, K40, P100
from repro.obs import events as E
from repro.sparse import generators
from repro.tune import (Autotuner, STORE_SCHEMA, TunedSpGEMM, TuningStore,
                        candidate_space, sketch_matrix)


@pytest.fixture(scope="module")
def A():
    # rng pinned to a structure where the K40 search finds a strict win
    return generators.power_law(500, 8, 80, rng=0)


# -- sketches ---------------------------------------------------------------

def test_sketch_is_deterministic_and_conserves_totals(A):
    s1, s2 = sketch_matrix(A, A), sketch_matrix(A, A)
    assert s1.digest() == s2.digest()
    assert s1.n_rows == A.n_rows
    assert s1.nnz_a == A.nnz
    rp, _ = np.array([]), None
    nnz_a, products, nnz_out = s1.reconstruct()
    assert nnz_a.shape == (A.n_rows,)
    # bucket means are rounded up, never down past the real rows
    assert products.sum() >= s1.n_products


def test_sketch_digest_changes_with_structure(A):
    B = generators.power_law(500, 8, 80, rng=22)
    assert sketch_matrix(A, A).digest() != sketch_matrix(B, B).digest()


# -- the store --------------------------------------------------------------

def test_store_persists_and_reloads(tmp_path, A):
    path = str(tmp_path / "tune.json")
    res = Autotuner(K40, "double", store=TuningStore(path)).tune(A, A)
    assert not res.from_cache

    again = Autotuner(K40, "double", store=TuningStore(path)).tune(A, A)
    assert again.from_cache
    assert again.overrides == res.overrides
    assert again.digest == res.digest


def test_store_keys_by_device_and_precision(A):
    store = TuningStore()
    Autotuner(K40, "double", store=store).tune(A, A)
    assert len(store) == 1
    assert not Autotuner(P100, "double", store=store).tune(A, A).from_cache
    assert not Autotuner(K40, "single", store=store).tune(A, A).from_cache
    assert len(store) == 3


def test_store_schema_mismatch_invalidates(tmp_path):
    path = tmp_path / "tune.json"
    path.write_text(json.dumps({"schema": STORE_SCHEMA + 1,
                                "entries": {"K40|double|deadbeef": {}}}))
    assert len(TuningStore(str(path))) == 0


def test_store_corrupt_file_treated_as_empty(tmp_path):
    path = tmp_path / "tune.json"
    path.write_text("{not json")
    store = TuningStore(str(path))
    assert len(store) == 0
    store.put("K40", "double", "abc", {"overrides": {"t_max": 1024}})
    assert json.loads(path.read_text())["schema"] == STORE_SCHEMA


def test_store_concurrent_writers_lose_no_updates(tmp_path):
    # the regression this pins: two writers doing read-modify-write on the
    # same file used to drop whichever save landed first
    import threading

    path = str(tmp_path / "tune.json")
    errors: list[BaseException] = []

    def writer(name: str, n: int) -> None:
        try:
            store = TuningStore(path)      # each thread: its own handle
            for i in range(n):
                store.put("P100", "double", f"{name}-{i}",
                          {"overrides": {"t_max": 1024}, "speedup": 1.0})
        except BaseException as e:         # surfaced after join
            errors.append(e)

    threads = [threading.Thread(target=writer, args=(f"w{k}", 20))
               for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    merged = TuningStore(path)
    assert len(merged) == 40               # every key from both writers
    assert not (tmp_path / "tune.json.lock").exists()


def test_store_clear_is_authoritative(tmp_path):
    path = str(tmp_path / "tune.json")
    a, b = TuningStore(path), TuningStore(path)
    a.put("P100", "double", "x", {"speedup": 1.0})
    b.put("P100", "double", "y", {"speedup": 1.0})
    a.clear()                              # a wipe must not resurrect "y"
    assert len(TuningStore(path)) == 0


def test_store_stale_lock_is_broken(tmp_path):
    path = tmp_path / "tune.json"
    lock = tmp_path / "tune.json.lock"
    lock.write_text("999999\n")
    old = lock.stat().st_mtime
    import os
    os.utime(lock, (old - 3600, old - 3600))   # an hour-old abandoned lock
    st = TuningStore(str(path))
    st.put("P100", "double", "k", {"speedup": 1.0})   # must not time out
    assert len(TuningStore(str(path))) == 1
    assert not lock.exists()


# -- the search -------------------------------------------------------------

def test_candidate_space_includes_default_first():
    cands = candidate_space(K40)
    assert cands[0].is_default()
    assert len(cands) > 1
    assert len({c.switches() for c in cands}) == len(cands)


def test_tuned_never_slower_than_default(A):
    for preset in ("P100", "K40", "VEGA56"):
        res = Autotuner(DEVICE_PRESETS[preset], "double").tune(A, A)
        assert res.tuned_seconds <= res.default_seconds * (1.0 + 1e-9)
        assert res.speedup >= 1.0


def test_tuner_beats_default_on_k40(A):
    res = Autotuner(K40, "double").tune(A, A)
    assert res.speedup > 1.0
    assert not res.overrides.is_default()
    assert res.validated


def test_tuned_output_matches_reference_oracle(A):
    res = Autotuner(K40, "double").tune(A, A)
    algo = HashSpGEMM(overrides=res.overrides)
    C = algo.multiply(A, A, device=K40).matrix.canonicalize()
    ref = spgemm_reference(A, A).canonicalize()
    assert np.array_equal(C.rpt, ref.rpt)
    assert np.array_equal(C.col, ref.col)
    np.testing.assert_allclose(C.val, ref.val, rtol=1e-9)


# -- overrides plumbing -----------------------------------------------------

def test_param_overrides_round_trip():
    ov = ParamOverrides(t_max=1024, pwarp_width=8)
    assert ParamOverrides.from_dict(ov.to_dict()) == ov
    assert ParamOverrides.from_dict({}) == ParamOverrides()
    assert ov.describe() == "pwarp_width=8 t_max=1024"
    assert ParamOverrides().describe() == "default"


def test_overrides_partition_plan_cache_keys(A):
    from repro.engine.plan import make_key

    plain = HashSpGEMM()
    tuned = HashSpGEMM(overrides=ParamOverrides(t_max=1024))
    from repro.types import Precision

    assert plain.plan_switches() != tuned.plan_switches()
    assert make_key(A, A, plain, K40, Precision.DOUBLE) \
        != make_key(A, A, tuned, K40, Precision.DOUBLE)


def test_apply_param_overrides_protocol(A):
    from repro.baselines.registry import create
    from repro.engine import SpGEMMEngine

    assert HashSpGEMM().apply_param_overrides(ParamOverrides())
    assert not create("cusparse").apply_param_overrides(ParamOverrides())
    eng = SpGEMMEngine()
    assert eng.apply_param_overrides(ParamOverrides(t_max=1024))
    assert eng.inner.overrides.t_max == 1024


# -- the registry wrapper ---------------------------------------------------

def test_tuned_algorithm_emits_events_and_matches(A):
    res = multiply(A, A, options=SpGEMMOptions(tune=True, device=K40))
    kinds = [e.kind for e in res.report.events]
    assert E.TUNE_MISS in kinds and E.TUNE_SEARCH in kinds \
        and E.TUNE_APPLY in kinds
    assert E.is_nondecreasing(res.report.events)
    ref = multiply(A, A, options=SpGEMMOptions(device=K40))
    a, b = res.matrix.canonicalize(), ref.matrix.canonicalize()
    assert np.array_equal(a.col, b.col)
    np.testing.assert_allclose(a.val, b.val, rtol=1e-9)


def test_tuned_store_hit_on_second_multiply(A):
    algo = TunedSpGEMM()
    algo.multiply(A, A, device=K40)
    res = algo.multiply(A, A, device=K40)
    kinds = [e.kind for e in res.report.events]
    assert E.TUNE_HIT in kinds and E.TUNE_SEARCH not in kinds


def test_tuned_untunable_inner_passes_through(A):
    res = TunedSpGEMM(algorithm="cusparse").multiply(A, A, device=K40)
    miss = [e for e in res.report.events if e.kind == E.TUNE_MISS]
    assert miss and miss[0].attrs["reason"] == "inner not tunable"
    assert not any(e.kind == E.TUNE_APPLY for e in res.report.events)


# -- distributed per-device tuning ------------------------------------------

def test_dist_tunes_per_device_on_heterogeneous_pool(A):
    store = TuningStore()
    res = multiply(A, A, options=SpGEMMOptions(
        devices=("P100", "K40"), tune=True, tune_store=store, device=P100))
    applies = [e for e in res.report.events if e.kind == E.TUNE_APPLY]
    assert len(applies) == 2          # one per pool slot
    # one search per distinct device spec, keyed separately in the store
    assert len(store) == 2
    ref = multiply(A, A, options=SpGEMMOptions(devices=("P100", "K40")))
    a, b = res.matrix.canonicalize(), ref.matrix.canonicalize()
    assert np.array_equal(a.col, b.col)
    np.testing.assert_allclose(a.val, b.val, rtol=1e-9)
