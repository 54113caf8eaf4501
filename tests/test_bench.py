"""Benchmark-harness tests: datasets, runner, and the full-scale memory
model's consistency with the actual algorithm implementations."""

import numpy as np
import pytest

from repro.bench import datasets as D
from repro.bench import memory_model as MM
from repro.bench.runner import (breakdown_table, gflops_table,
                                memory_ratio_table, run_one, run_suite,
                                speedup_stats)
from repro.gpu.device import P100
from repro.types import Precision


class TestPaperTable2:
    def test_all_fifteen_matrices_present(self):
        assert len(D.TABLE2) == 15
        assert set(D.DATASETS) | set(D.LARGE_GRAPHS) == set(D.TABLE2)

    def test_verbatim_spot_checks(self):
        p = D.TABLE2["Protein"]
        assert (p.rows, p.nnz, p.n_products, p.nnz_out) == \
            (36_417, 4_344_765, 555_322_659, 19_594_581)
        w = D.TABLE2["webbase"]
        assert w.max_nnz_per_row == 4700
        c = D.TABLE2["cage15"]
        assert c.rows == 5_154_859

    def test_categories(self):
        assert len(D.HIGH_THROUGHPUT) == 8
        assert len(D.LOW_THROUGHPUT) == 4
        assert len(D.LARGE_GRAPHS) == 3


class TestDatasetInstances:
    """Cheap structural checks on the smaller instances (the full suite is
    exercised by the benchmarks)."""

    @pytest.mark.parametrize("name", ["Epidemiology", "webbase", "Circuit",
                                      "Economics"])
    def test_instances_build_and_cache(self, name):
        ds = D.get_dataset(name)
        m1 = ds.matrix()
        m2 = ds.matrix()
        assert m1 is m2
        assert m1.n_rows > 0

    def test_epidemiology_regularity(self):
        m = D.get_dataset("Epidemiology").matrix()
        assert m.row_nnz().max() == m.row_nnz().min() == 4

    def test_webbase_has_huge_row(self):
        ds = D.get_dataset("webbase")
        m = ds.matrix()
        assert m.row_nnz().max() > 50 * (m.nnz / m.n_rows)

    def test_nnz_per_row_ordering_preserved(self):
        """Relative density ordering of the paper's suite survives scaling."""
        order = ["Protein", "FEM/Spheres", "FEM/Accelerator", "Economics",
                 "webbase"]
        means = []
        for name in order:
            m = D.get_dataset(name).matrix()
            means.append(m.nnz / m.n_rows)
        assert means == sorted(means, reverse=True)

    def test_scale_factors_positive(self):
        ds = D.get_dataset("Epidemiology")
        assert ds.row_factor() > 1
        assert ds.product_factor() > 1
        assert ds.nnz_out_factor() > 1

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            D.get_dataset("nonexistent")

    def test_drop_releases(self):
        ds = D.get_dataset("Epidemiology")
        ds.matrix()
        ds.drop()
        assert ds._matrix is None


class TestRunner:
    @pytest.fixture(scope="class")
    def runs(self):
        return run_suite(["Epidemiology", "webbase"],
                         precisions=("single",))

    def test_all_combinations_present(self, runs):
        assert len(runs) == 2 * 4

    def test_gflops_table_renders(self, runs):
        text = gflops_table(runs)
        assert "Epidemiology" in text and "proposal" in text
        assert "speedup" in text

    def test_proposal_wins(self, runs):
        by_key = {(r.dataset, r.algorithm): r.gflops for r in runs}
        for ds in ("Epidemiology", "webbase"):
            ours = by_key[(ds, "proposal")]
            for base in ("cusp", "cusparse", "bhsparse"):
                assert ours > by_key[(ds, base)], (ds, base)

    def test_speedup_stats(self, runs):
        stats = speedup_stats(runs)
        assert set(stats) == {"cusp", "cusparse", "bhsparse"}
        for mx, gm in stats.values():
            assert mx >= gm > 1.0

    def test_memory_ratio_table(self, runs):
        text = memory_ratio_table(runs)
        assert "1.000" in text    # the cuSPARSE column

    def test_breakdown_table(self, runs):
        text = breakdown_table(runs)
        assert "setup" in text and "malloc" in text

    def test_oom_renders_as_dash(self):
        ds = D.get_dataset("Epidemiology")
        tiny = P100.with_memory(1 << 16)
        run = run_one(ds, "cusp", "single", device=tiny)
        assert run.oom and run.gflops == 0.0
        assert "-" in gflops_table([run])


class TestMemoryModelConsistency:
    """The analytic replay must agree with the measured peak of an actual
    run when fed the *instance* arrays -- guards against model drift."""

    ALGORITHMS = ["proposal", "cusparse", "cusp", "bhsparse"]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("name", ["Epidemiology", "webbase"])
    def test_replay_matches_measured_peak(self, algorithm, name):
        self._check(algorithm, name, "double")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("name", ["Epidemiology", "webbase"])
    def test_single_precision_replay_matches_measured_peak(self, algorithm,
                                                           name):
        """The float64 dataset is cast: ``A @ A`` must stay one resident
        operand after the cast, as the replay assumes."""
        self._check(algorithm, name, "single")

    @staticmethod
    def _check(algorithm, name, precision):
        ds = D.get_dataset(name)
        inst = ds.stats()
        run = run_one(ds, algorithm, precision)
        assert run.report is not None

        fs = MM.FullScaleArrays.__new__(MM.FullScaleArrays)
        fs.rows = inst.rows
        fs.nnz = inst.nnz
        fs.nnz_out = inst.nnz_out
        fs.n_products = inst.n_products
        fs.n_cols = inst.cols
        fs.row_products = inst.row_products.astype(np.float64)
        fs.row_nnz_out = inst.row_nnz_out.astype(np.float64)

        predicted = MM.PEAK_FUNCTIONS[algorithm](fs, Precision.parse(precision),
                                                  P100)
        assert predicted == run.report.peak_bytes

    def test_scale_rows_preserves_total_and_shape(self):
        inst = np.array([1.0, 2.0, 3.0, 4.0])
        full = MM.scale_rows(inst, 10, 100)
        assert full.shape == (10,)
        assert full.sum() == pytest.approx(100)
        # shape preserved: ratios of tiled entries match
        assert full[1] / full[0] == pytest.approx(2.0)


class TestFullScaleResults:
    """Headline memory results at paper scale."""

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_proposal_below_cusparse_everywhere(self, precision):
        for ds in D.DATASETS.values():
            fs = MM.FullScaleArrays(ds)
            p = Precision.parse(precision)
            ours = MM.peak_proposal(fs, p)
            theirs = MM.peak_cusparse(fs, p)
            assert ours < theirs, ds.name

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_table3_oom_pattern(self, precision):
        """Paper Table III: CUSP and BHSPARSE fail on cage15 and wb-edu;
        everything runs cit-Patents; the proposal runs everything."""
        for name in ("cage15", "wb-edu"):
            ds = D.get_dataset(name)
            assert not MM.fits_device("cusp", ds, precision)
            assert not MM.fits_device("bhsparse", ds, precision)
            assert MM.fits_device("proposal", ds, precision)
            assert MM.fits_device("cusparse", ds, precision)
        ds = D.get_dataset("cit-Patents")
        for alg in ("cusp", "cusparse", "bhsparse", "proposal"):
            assert MM.fits_device(alg, ds, precision)

    def test_cusp_runs_all_twelve(self):
        """Figures 2/3 show CUSP bars for the whole Table II suite."""
        for ds in D.DATASETS.values():
            for precision in ("single", "double"):
                assert MM.fits_device("cusp", ds, precision), ds.name

    def test_average_reduction_band(self):
        """Paper: 14.7% (single) / 10.9% (double) average reduction vs
        cuSPARSE; our model lands in the 10-45% band."""
        for precision in ("single", "double"):
            p = Precision.parse(precision)
            ratios = []
            for ds in D.DATASETS.values():
                fs = MM.FullScaleArrays(ds)
                ratios.append(MM.peak_proposal(fs, p)
                              / MM.peak_cusparse(fs, p))
            mean_reduction = 1.0 - float(np.mean(ratios))
            assert 0.10 <= mean_reduction <= 0.45
