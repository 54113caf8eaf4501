"""ResilientSpGEMM: row-panel splitting, the degradation ladder, and
recovery of a Table III analogue under a budget where the plain run OOMs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.resilient import merge_panel_reports, split_row_panels
from repro.errors import (
    DeviceMemoryError,
    HashTableError,
    SparseFormatError,
)
from repro.gpu.device import P100
from repro.gpu.faults import FaultPlan
from repro.sparse import generators
from repro.sparse.csr import CSRMatrix
from repro.sparse.expansion import intermediate_product_counts
from repro.sparse.reference import spgemm_reference


class TestSplitRowPanels:
    def test_covers_all_rows_contiguously(self):
        panels = split_row_panels(np.ones(100), 4)
        assert panels[0][0] == 0 and panels[-1][1] == 100
        assert all(a[1] == b[0] for a, b in zip(panels, panels[1:]))
        assert len(panels) == 4

    def test_balances_by_weight(self):
        # one very heavy row: it must sit alone-ish, light rows grouped
        w = np.ones(100)
        w[10] = 1000.0
        panels = split_row_panels(w, 4)
        sums = [w[lo:hi].sum() for lo, hi in panels]
        heavy = [s for s in sums if s >= 1000]
        assert len(heavy) == 1

    def test_caps_at_row_count(self):
        panels = split_row_panels(np.ones(3), 10)
        assert panels == [(0, 1), (1, 2), (2, 3)]

    def test_empty(self):
        assert split_row_panels(np.empty(0), 4) == []


class TestRowPanelVstack:
    def test_roundtrip(self, small_random):
        A = small_random
        parts = [A.row_panel(lo, hi)
                 for lo, hi in split_row_panels(A.row_nnz(), 5)]
        assert CSRMatrix.vstack(parts).allclose(A)

    def test_out_of_range_raises(self, small_random):
        with pytest.raises(SparseFormatError, match="out of range"):
            small_random.row_panel(0, small_random.n_rows + 1)

    def test_vstack_empty_raises(self):
        with pytest.raises(SparseFormatError, match="zero panels"):
            CSRMatrix.vstack([])


@pytest.mark.faults
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n_panels=st.integers(1, 16))
def test_chunked_product_equals_reference(seed, n_panels):
    """Panel-by-panel multiply concatenates to exactly the full product."""
    A = generators.random_csr(50, 50, 5, rng=seed)
    B = generators.random_csr(50, 40, 4, rng=seed + 1)
    panels = split_row_panels(intermediate_product_counts(A, B), n_panels)
    C = CSRMatrix.vstack(
        [spgemm_reference(A.row_panel(lo, hi), B) for lo, hi in panels])
    assert C.allclose(spgemm_reference(A, B))


@pytest.fixture
def square():
    """A 256-row RMAT square: skewed enough to exercise panel balancing."""
    return generators.rmat(8, 4, rng=3)


@pytest.mark.faults
class TestLadder:
    def test_clean_run_has_no_degradation(self, square):
        r = repro.multiply(square, square, resilient=True)
        rep = r.resilience
        assert rep is not None and not rep.recovered
        assert rep.final_strategy == "plain" and rep.faults_seen == 0
        assert "no degradation needed" in rep.summary()
        plain = repro.multiply(square, square, algorithm="proposal")
        assert r.matrix.allclose(plain.matrix)
        assert r.resilience and plain.resilience is None

    def test_transient_fault_recovers_by_retry(self, square):
        r = repro.multiply(square, square, resilient=True,
                         faults=FaultPlan().fail_alloc(index=3))
        rep = r.resilience
        assert rep.recovered and rep.final_strategy == "retry"
        assert rep.injected_faults == 1
        assert [a.ok for a in rep.attempts] == [False, True]

    def test_budget_squeeze_recovers_by_panels(self, square):
        ref = spgemm_reference(square, square)
        plain = repro.multiply(square, square, algorithm="proposal")
        budget = int(0.7 * plain.report.peak_bytes)

        with pytest.raises(DeviceMemoryError):
            repro.multiply(square, square, algorithm="proposal",
                         device=P100.with_memory(budget))

        r = repro.multiply(square, square, resilient=True,
                         memory_budget=budget)
        rep = r.resilience
        assert rep.recovered and rep.final_strategy == "panels"
        assert rep.panels_used >= 2
        assert max(rep.panel_peaks) <= budget
        assert r.matrix.allclose(ref)
        assert r.report.peak_bytes <= budget
        assert r.report.n_products == plain.report.n_products

    def test_persistent_kernel_fault_falls_back_to_cusparse(self, square):
        r = repro.multiply(square, square, resilient=True,
                         faults=FaultPlan().fail_hash_table("symbolic",
                                                            times=None))
        rep = r.resilience
        assert rep.recovered and rep.final_algorithm == "cusparse"
        assert r.matrix.allclose(spgemm_reference(square, square))

    def test_total_failure_reraises_with_report(self, square):
        with pytest.raises(HashTableError) as exc:
            repro.multiply(square, square, resilient=True,
                         faults=FaultPlan().fail_hash_table(".*", times=None))
        rep = exc.value.resilience
        assert rep is not None and not rep.recovered
        assert all(not a.ok for a in rep.attempts)
        assert len(rep.attempts) == rep.faults_seen


@pytest.mark.faults
def test_table3_analogue_recovery_under_pressure():
    """Acceptance: finish the cit-Patents analogue at 0.7x the proposal's
    own peak -- where the plain run is an OOM "-" entry -- via row-panel
    chunking, with output equal to the unconstrained run."""
    from repro.bench.datasets import get_dataset
    from repro.bench.runner import run_one

    ds = get_dataset("cit-Patents")
    A = ds.matrix()
    plain = repro.multiply(A, A, algorithm="proposal", precision="single")
    budget = int(0.7 * plain.report.peak_bytes)
    squeezed = P100.with_memory(budget)

    assert run_one(ds, "proposal", "single", device=squeezed).oom

    r = run_one(ds, "proposal", "single", memory_budget=budget)
    assert not r.oom and r.recovered
    assert r.resilience.final_strategy == "panels"
    assert max(r.resilience.panel_peaks) <= budget

    res = repro.multiply(A, A, resilient=True, precision="single",
                       memory_budget=budget)
    assert res.matrix.allclose(plain.matrix)


class TestReportMerging:
    def test_merged_report_is_coherent(self, square):
        plain = repro.multiply(square, square, algorithm="proposal")
        r = repro.multiply(square, square, resilient=True,
                           algo_options={"initial_panels": 4},
                           memory_budget=int(0.7 * plain.report.peak_bytes))
        rep = r.report
        assert rep.n_products == plain.report.n_products
        assert rep.nnz_out == plain.report.nnz_out
        assert rep.peak_bytes == max(r.resilience.panel_peaks)
        assert rep.total_seconds == pytest.approx(
            sum(rep.phase_seconds.values()), rel=1e-9)
        # kernel records lie on one non-overlapping global timeline
        assert all(k.end <= rep.total_seconds + 1e-12 for k in rep.kernels)
        assert "panels" in rep.algorithm

    def test_merge_requires_reports(self):
        with pytest.raises(IndexError):
            merge_panel_reports([], algorithm="x", matrix_name="y")

