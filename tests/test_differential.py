"""Differential oracle: every runner vs the reference SpGEMM.

Replaces the narrower per-algorithm checks that used to live in
``test_baselines.TestCorrectness``: instead of three baselines against
scipy, *every* leaf of the registry and every wrapper layer the options
facade builds (:data:`tests.conftest.RUNNERS`) is compared against
:func:`spgemm_reference` over a corpus of structurally adversarial
matrices (regular band, Erdos-Renyi, power-law skew, empty rows, one
fully dense row).

The full corpus sweep is marked ``corpus`` (slow); a fast subset always
runs so plain tier-1 keeps differential coverage.

The GPU scheduler has two exact implementations, the lane schedule of
serialized phases and the fixed-point event loop of multi-stream ones.
The fast subset also runs every runner's GPU phases through the
per-block oracle loop of :mod:`tests.scheduler_oracle` with the phase
memo missing, against the default schedulers and memo (the CPU leaves'
phases take the shared list schedule either way), and the whole corpus
holds every multi-stream phase's records to the oracle's.
"""

import numpy as np
import pytest

import repro
from repro import perf
from repro.gpu import scheduler
from repro.obs.export import trace_summary
from repro.sparse import generators
from repro.sparse.csr import CSRMatrix
from repro.sparse.reference import spgemm_reference

from tests.conftest import RUNNERS
from tests.scheduler_oracle import event_loop

ALL_ALGOS = sorted(RUNNERS)


def _empty_rows(rng) -> CSRMatrix:
    """Random matrix with every third row empty (grouping's G1 path)."""
    dense = generators.random_csr(150, 150, 6, rng=rng).to_dense()
    dense[::3] = 0.0
    return CSRMatrix.from_dense(dense)


def _single_dense_row(rng) -> CSRMatrix:
    """Very sparse matrix with one fully dense row (load-imbalance spike
    that must land in Group 0 / the largest bin)."""
    dense = generators.random_csr(150, 150, 3, rng=rng).to_dense()
    dense[7, :] = rng.random(150) + 0.5
    return CSRMatrix.from_dense(dense)


CORPUS = {
    "band": lambda rng: generators.banded(250, 10, rng=rng),
    "erdos_renyi": lambda rng: generators.random_csr(200, 200, 6, rng=rng),
    "power_law": lambda rng: generators.power_law(250, 3.0, 60, rng=rng),
    "empty_rows": _empty_rows,
    "single_dense_row": _single_dense_row,
}

#: Always-on subset: one regular and one skewed instance.
FAST = ("band", "power_law")


def _check(algo: str, A: CSRMatrix, B: CSRMatrix | None = None,
           precision: str = "double") -> None:
    B = A if B is None else B
    ref = spgemm_reference(A, B)
    got = repro.multiply(A, B, precision=precision, **RUNNERS[algo]).matrix
    rtol = 1e-9 if precision == "double" else 1e-4
    assert got.canonicalize().allclose(ref, rtol=rtol), \
        f"{algo} diverges from reference on {A.shape}"


@pytest.mark.parametrize("algo", ALL_ALGOS)
@pytest.mark.parametrize("gen", FAST)
def test_matches_reference_fast(algo, gen, rng):
    _check(algo, CORPUS[gen](rng))


@pytest.mark.corpus
@pytest.mark.parametrize("algo", ALL_ALGOS)
@pytest.mark.parametrize("gen", sorted(set(CORPUS) - set(FAST)))
def test_matches_reference_corpus(algo, gen, rng):
    _check(algo, CORPUS[gen](rng))


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_single_precision(algo, rng):
    A = CORPUS["band"](rng)
    result = repro.multiply(A, A, precision="single", **RUNNERS[algo])
    assert result.matrix.dtype == np.float32
    _check(algo, A, precision="single")


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_rectangular(algo, rng):
    A = generators.random_csr(30, 50, 4, rng=rng)
    B = generators.random_csr(50, 25, 4, rng=rng)
    _check(algo, A, B)


# 'resilient', 'engine' and 'tune' are wrappers: their reports carry the
# inner algorithm's name
@pytest.mark.parametrize("algo", sorted(set(ALL_ALGOS) - {"resilient",
                                                          "engine", "tune"}))
def test_report_flops_metric(algo, rng):
    A = generators.stencil_regular(300, 4, rng=rng)
    r = repro.multiply(A, A, **RUNNERS[algo]).report
    assert r.algorithm == algo
    assert r.flops == 2 * r.n_products
    assert r.total_seconds > 0


def _cold_report(algo: str, A: CSRMatrix):
    perf.clear_fast_caches()
    return repro.multiply(A, A,
                          options=repro.SpGEMMOptions(**RUNNERS[algo])).report


@pytest.mark.parametrize("algo", ALL_ALGOS)
@pytest.mark.parametrize("gen", FAST)
def test_event_loop_matches_lane_schedule(algo, gen, rng, monkeypatch):
    A = CORPUS[gen](rng)
    lanes = _cold_report(algo, A)
    monkeypatch.setattr(scheduler, "_lane_schedule", event_loop)
    monkeypatch.setattr(scheduler, "_event_loop", event_loop)
    monkeypatch.setattr(scheduler._memo, "get", lambda key: None)
    events = _cold_report(algo, A)
    assert events.total_seconds == lanes.total_seconds, algo
    assert events.phase_seconds == lanes.phase_seconds, algo
    assert events.peak_bytes == lanes.peak_bytes, algo
    assert trace_summary(events) == trace_summary(lanes), algo


@pytest.mark.parametrize("algo", ALL_ALGOS)
@pytest.mark.parametrize("gen", [
    g if g in FAST else pytest.param(g, marks=pytest.mark.corpus)
    for g in sorted(CORPUS)])
def test_multi_stream_records_match_oracle(algo, gen, rng, monkeypatch):
    real = scheduler._event_loop
    phases = []

    def checked(kernels, durations, device, start_time, use_streams):
        got = real(kernels, durations, device, start_time, use_streams)
        assert got == event_loop(kernels, durations, device, start_time,
                                 use_streams), [k.name for k in kernels]
        phases.append(len(kernels))
        return got

    monkeypatch.setattr(scheduler, "_event_loop", checked)
    _cold_report(algo, CORPUS[gen](rng))
    if algo == "proposal":
        assert phases, "the proposal ran no multi-stream phase"

