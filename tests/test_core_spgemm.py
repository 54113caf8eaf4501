"""End-to-end tests of the proposal algorithm (HashSpGEMM)."""

import numpy as np
import pytest

from repro.core.spgemm import HashSpGEMM
from repro.errors import DeviceMemoryError
from repro.gpu.device import P100
from repro.gpu.timeline import PHASES
from repro.sparse import generators, spgemm_reference

from tests.conftest import assert_matches_scipy, to_scipy


GENS = {
    "banded": lambda rng: generators.banded(300, 10, rng=rng),
    "stencil": lambda rng: generators.stencil_regular(400, 4, rng=rng),
    "power_law": lambda rng: generators.power_law(300, 3.0, 80, rng=rng),
    "block": lambda rng: generators.block_dense(64, 16, rng=rng),
}


class TestCorrectness:
    @pytest.mark.parametrize("gen", sorted(GENS))
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_matches_scipy(self, gen, precision, rng):
        A = GENS[gen](rng)
        result = HashSpGEMM().multiply(A, A, precision=precision)
        rtol = 1e-5 if precision == "single" else 1e-10
        assert_matches_scipy(result.matrix,
                             to_scipy(A) @ to_scipy(A), rtol=rtol)

    def test_rectangular(self, rng):
        A = generators.random_csr(40, 60, 5, rng=rng)
        B = generators.random_csr(60, 30, 4, rng=rng)
        result = HashSpGEMM().multiply(A, B)
        assert_matches_scipy(result.matrix, to_scipy(A) @ to_scipy(B))

    def test_empty_matrix(self):
        from repro.sparse.csr import CSRMatrix

        A = CSRMatrix.empty((10, 10))
        result = HashSpGEMM().multiply(A, A)
        assert result.matrix.nnz == 0

    def test_ablation_flags_do_not_change_result(self, rng):
        A = GENS["power_law"](rng)
        base = HashSpGEMM().multiply(A, A).matrix
        for options in ({"use_streams": False}, {"use_pwarp": False},
                        {"overrides": {"pwarp_width": 8}}):
            other = HashSpGEMM(**options).multiply(A, A).matrix
            assert other.allclose(base, rtol=1e-12)


class TestReport:
    @pytest.fixture(scope="class")
    def result(self):
        A = generators.banded(400, 12, rng=np.random.default_rng(5))
        return HashSpGEMM().multiply(A, A, precision="single",
                                      matrix_name="banded")

    def test_metadata(self, result):
        r = result.report
        assert r.algorithm == "proposal"
        assert r.matrix == "banded"
        assert r.precision == "single"
        assert r.device == P100.name

    def test_flops_metric(self, result):
        r = result.report
        assert r.flops == 2 * r.n_products
        assert r.gflops == pytest.approx(r.flops / r.total_seconds / 1e9)

    def test_phase_decomposition_sums_to_total(self, result):
        r = result.report
        total = sum(r.phase_seconds.get(p, 0.0) for p in PHASES)
        assert total == pytest.approx(r.total_seconds, rel=1e-9)

    def test_all_paper_phases_present(self, result):
        r = result.report
        for phase in PHASES:
            assert r.phase_seconds.get(phase, 0.0) > 0.0

    def test_kernels_recorded(self, result):
        names = [k.name for k in result.report.kernels]
        assert "count_products" in names
        assert any(n.startswith("symbolic") for n in names)
        assert any(n.startswith("numeric") for n in names)

    def test_peak_includes_inputs_and_output(self, result):
        r = result.report
        assert r.peak_bytes > 0
        assert r.malloc_count >= 5

    def test_summary_renders(self, result):
        s = result.report.summary()
        assert "GFLOPS" in s and "proposal" in s


class TestAblations:
    def test_streams_help_multi_group_matrix(self, rng):
        """Section IV-C: streams give a measurable speedup when several
        groups have few rows (the Circuit experiment, x1.3)."""
        A = generators.power_law(4000, 5.0, 200, rng=rng)
        with_streams = HashSpGEMM().multiply(A, A).report.total_seconds
        without = HashSpGEMM(use_streams=False).multiply(A, A).report.total_seconds
        assert without > with_streams

    def test_pwarp_helps_tiny_row_matrix(self, rng):
        """Section IV-C: PWARP/ROW speeds up low-nnz/row matrices
        (the Epidemiology experiment, x3.1)."""
        A = generators.stencil_regular(40000, 4, rng=rng)
        with_pwarp = HashSpGEMM().multiply(A, A).report.total_seconds
        without = HashSpGEMM(use_pwarp=False).multiply(A, A).report.total_seconds
        assert without > 1.2 * with_pwarp

    def test_pwarp_width_4_beats_extremes(self, rng):
        """Section III-B: 4 threads per row is the stable sweet spot."""
        A = generators.stencil_regular(8000, 4, rng=rng)
        times = {w: HashSpGEMM(overrides={"pwarp_width": w})
                 .multiply(A, A).report.total_seconds for w in (1, 4, 16)}
        assert times[4] < times[1]
        assert times[4] <= times[16] * 1.05


class TestMemoryBehaviour:
    def test_oom_on_tiny_device(self, rng):
        A = generators.banded(500, 12, rng=rng)
        tiny_device = P100.with_memory(64 * 1024)
        with pytest.raises(DeviceMemoryError):
            HashSpGEMM().multiply(A, A, device=tiny_device)

    def test_working_memory_released(self, rng):
        """After the run only inputs + C remain live: peak accounting via
        the event trace must end at inputs + output."""
        from repro.base import RunContext  # noqa: F401  (doc reference)

        A = generators.banded(300, 8, rng=rng)
        result = HashSpGEMM().multiply(A, A, precision="double")
        r = result.report
        expected_resident = A.device_bytes("double") \
            + result.matrix.device_bytes("double")
        # peak must be at least resident, and resident accounts must match
        assert r.peak_bytes >= expected_resident

    def test_proposal_overhead_is_row_arrays(self, rng):
        """The paper: grouping arrays are the only standing overhead."""
        A = generators.stencil_regular(2000, 4, rng=rng)
        result = HashSpGEMM().multiply(A, A, precision="double")
        resident = A.device_bytes("double") \
            + result.matrix.device_bytes("double")
        overhead = result.report.peak_bytes - resident
        # row_products + 2 group arrays + row_nnz ~ 16 B/row (+rpt slack)
        assert overhead <= 20 * A.n_rows + 64
