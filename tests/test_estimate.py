"""Estimated symbolic phase: the sampled estimator and its composition.

Pins the ISSUE-10 acceptance contract: ``symbolic='estimate'`` is
bit-identical to ``'exact'`` on the differential corpus and the
structured workloads -- including forced bound-violation recovery --
while changing only modeled time; the recovery events satisfy the
conservation law ``estimated == within_bound + recovered``; and the
mode composes with the engine (partitioned plan caches, replay
identity), the resilience ladder (downgrade-to-exact on hash faults),
distribution, serving and the autotuner's new ``symbolic`` axis.

The whole module is marked ``estimate`` (select with ``-m estimate``).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.spgemm import HashSpGEMM
from repro.engine import SpGEMMEngine
from repro.errors import OptionsError
from repro.estimate import (DEFAULT_SAMPLES, RowEstimate, estimate_row_nnz,
                            estimate_sample_kernel, splitmix64)
from repro.gpu.faults import FaultPlan
from repro.obs import events as OBS
from repro.obs.metrics import (check_conservation,
                               check_estimate_conservation,
                               metrics_from_report)
from repro.options import SpGEMMOptions, multiply, runner_for
from repro.sparse import generators
from repro.sparse.csr import CSRMatrix
from repro.sparse.expansion import intermediate_product_counts
from repro.sparse.reference import spgemm_reference

pytestmark = pytest.mark.estimate

#: Forces bound violations on any skewed matrix: a single sample with no
#: safety margin underestimates every collision-heavy row.
FORCE_VIOLATIONS = dict(estimate_samples=1, estimate_margin=0.0)


def _empty_rows(rng) -> CSRMatrix:
    dense = generators.random_csr(150, 150, 6, rng=rng).to_dense()
    dense[::3] = 0.0
    return CSRMatrix.from_dense(dense)


def _single_dense_row(rng) -> CSRMatrix:
    dense = generators.random_csr(150, 150, 3, rng=rng).to_dense()
    dense[7, :] = rng.random(150) + 0.5
    return CSRMatrix.from_dense(dense)


#: The differential corpus (mirrors test_differential) plus the
#: structured-sparsity workloads.
CORPUS = {
    "band": lambda rng: generators.banded(250, 10, rng=rng),
    "erdos_renyi": lambda rng: generators.random_csr(200, 200, 6, rng=rng),
    "power_law": lambda rng: generators.power_law(250, 3.0, 60, rng=rng),
    "empty_rows": _empty_rows,
    "single_dense_row": _single_dense_row,
    "nm_structured": lambda rng: generators.nm_structured(128, 128, rng=rng),
    "gnn": lambda rng: generators.gnn_adjacency(200, 6.0, rng=rng),
}


def _same(r1, r2):
    a, b = r1.matrix.canonicalize(), r2.matrix.canonicalize()
    assert np.array_equal(a.rpt, b.rpt)
    assert np.array_equal(a.col, b.col)
    assert np.array_equal(a.val, b.val)


@pytest.fixture(scope="module")
def skewed():
    return generators.power_law(300, 8, 60, rng=11)


# ---------------------------------------------------------------------------
# the estimator itself


class TestEstimator:
    def test_deterministic_splitmix_stream(self):
        lanes = np.arange(64, dtype=np.int64)
        a = splitmix64(7, lanes, 3)
        b = splitmix64(7, lanes, 3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, splitmix64(8, lanes, 3))
        assert not np.array_equal(a, splitmix64(7, lanes, 4))

    def test_estimate_deterministic(self, skewed):
        e1 = estimate_row_nnz(skewed, skewed, seed=5)
        e2 = estimate_row_nnz(skewed, skewed, seed=5)
        assert np.array_equal(e1.bound, e2.bound)
        assert isinstance(e1, RowEstimate)

    def test_bound_clamped_to_products(self, skewed):
        est = estimate_row_nnz(skewed, skewed)
        products = intermediate_product_counts(skewed, skewed)
        assert np.all(est.bound <= products)
        assert np.all(est.bound >= 0)

    def test_short_rows_are_exact(self, skewed):
        est = estimate_row_nnz(skewed, skewed, samples=DEFAULT_SAMPLES)
        nnz_a = skewed.row_nnz()
        assert np.array_equal(est.sampled, nnz_a > DEFAULT_SAMPLES)
        assert est.sampled_rows + est.exact_rows == skewed.n_rows
        # rows with <= samples nnz carry the exact product count
        products = intermediate_product_counts(skewed, skewed)
        exact = ~est.sampled
        assert np.array_equal(est.bound[exact], products[exact])

    def test_default_margin_covers_true_nnz(self, skewed):
        est = estimate_row_nnz(skewed, skewed)
        true_nnz = spgemm_reference(skewed, skewed).row_nnz()
        assert not est.violations(true_nnz).any()

    def test_degenerate_sampling_forces_violations(self, skewed):
        est = estimate_row_nnz(skewed, skewed, samples=1, margin=0.0)
        true_nnz = spgemm_reference(skewed, skewed).row_nnz()
        assert est.violations(true_nnz).sum() > 0

    def test_invalid_parameters_rejected(self, skewed):
        with pytest.raises(ValueError):
            estimate_row_nnz(skewed, skewed, samples=0)
        with pytest.raises(ValueError):
            estimate_row_nnz(skewed, skewed, margin=-0.1)

    def test_sample_kernel_cost_scales_with_draws(self, skewed):
        from repro.gpu.cost import kernel_duration_alone
        from repro.gpu.device import P100
        from repro.types import Precision

        nnz_a = skewed.row_nnz()
        small = kernel_duration_alone(
            estimate_sample_kernel(nnz_a, 4), P100, Precision.DOUBLE)
        large = kernel_duration_alone(
            estimate_sample_kernel(nnz_a, 64), P100, Precision.DOUBLE)
        assert 0.0 < small < large


# ---------------------------------------------------------------------------
# bit-identity: the differential oracle over corpus + workloads


class TestBitIdentity:
    @pytest.mark.parametrize("gen", sorted(CORPUS))
    def test_estimate_equals_exact(self, gen, rng):
        A = CORPUS[gen](rng)
        _same(multiply(A, A, symbolic="estimate"), multiply(A, A))

    @pytest.mark.parametrize("gen", sorted(CORPUS))
    def test_forced_recovery_equals_exact(self, gen, rng):
        """Degenerate sampling violates bounds; the recount path must
        restore bit-identity, not just approximate it."""
        A = CORPUS[gen](rng)
        est = multiply(A, A, symbolic="estimate",
                       algo_options=FORCE_VIOLATIONS)
        _same(est, multiply(A, A))

    def test_rectangular(self, rng):
        A = generators.random_csr(40, 60, 5, rng=rng)
        B = generators.random_csr(60, 30, 4, rng=rng)
        _same(multiply(A, B, symbolic="estimate"), multiply(A, B))

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_both_precisions(self, skewed, precision):
        _same(multiply(skewed, skewed, symbolic="estimate",
                       precision=precision),
              multiply(skewed, skewed, precision=precision))

    def test_seed_changes_sampling_not_results(self, skewed):
        r1 = multiply(skewed, skewed, symbolic="estimate",
                      algo_options={"estimate_seed": 1})
        r2 = multiply(skewed, skewed, symbolic="estimate",
                      algo_options={"estimate_seed": 2})
        _same(r1, r2)


# ---------------------------------------------------------------------------
# events, metrics and the conservation law


class TestObservability:
    def test_sample_and_bound_events_emitted(self, skewed):
        r = multiply(skewed, skewed, symbolic="estimate",
                     matrix_name="skewed")
        kinds = [e.kind for e in r.report.events]
        assert OBS.ESTIMATE_SAMPLE in kinds
        assert OBS.ESTIMATE_BOUND in kinds

    def test_clean_run_has_no_recover_event(self, skewed):
        r = multiply(skewed, skewed, symbolic="estimate")
        assert OBS.ESTIMATE_RECOVER not in [e.kind for e in r.report.events]

    def test_forced_recovery_emits_recover_event(self, skewed):
        r = multiply(skewed, skewed, symbolic="estimate",
                     algo_options=FORCE_VIOLATIONS)
        recov = [e for e in r.report.events
                 if e.kind == OBS.ESTIMATE_RECOVER]
        assert len(recov) == 1
        assert recov[0].attrs["rows"] > 0

    @pytest.mark.parametrize("opts", [{}, FORCE_VIOLATIONS])
    def test_conservation_law(self, skewed, opts):
        """estimated rows == within_bound + recovered, exactly."""
        r = multiply(skewed, skewed, symbolic="estimate", algo_options=opts)
        m = metrics_from_report(r.report)
        check_estimate_conservation(m)
        check_conservation(r.report)
        estimated = m.total("estimate_rows_total", status="estimated")
        within = m.total("estimate_rows_total", status="within_bound")
        recovered = m.total("estimate_rows_total", status="recovered")
        assert estimated == skewed.n_rows
        assert estimated == within + recovered
        if opts:
            assert recovered > 0

    def test_exact_mode_emits_no_estimate_events(self, skewed):
        r = multiply(skewed, skewed)
        assert not [e for e in r.report.events
                    if e.kind in OBS.ESTIMATE_KINDS]
        check_estimate_conservation(metrics_from_report(r.report))

    def test_overalloc_metric_bounds_memory_cost(self, skewed):
        r = multiply(skewed, skewed, symbolic="estimate")
        m = metrics_from_report(r.report)
        overalloc = m.total("estimate_overalloc_nnz_total")
        assert overalloc >= 0
        nprod = int(intermediate_product_counts(skewed, skewed).sum())
        assert overalloc <= nprod


# ---------------------------------------------------------------------------
# modeled-time savings (the E23 claim, in miniature)


class TestModeledSavings:
    def test_symbolic_phase_cheaper_on_skewed(self, skewed):
        est = multiply(skewed, skewed, symbolic="estimate").report
        exact = multiply(skewed, skewed).report
        est_sym = est.phase_seconds["setup"] + est.phase_seconds["count"]
        exact_sym = (exact.phase_seconds["setup"]
                     + exact.phase_seconds["count"])
        assert est_sym < exact_sym

    def test_recovery_costs_time_but_not_correctness(self, skewed):
        clean = multiply(skewed, skewed, symbolic="estimate").report
        forced = multiply(skewed, skewed, symbolic="estimate",
                          algo_options=FORCE_VIOLATIONS).report
        assert forced.phase_seconds["count"] > clean.phase_seconds["count"]


# ---------------------------------------------------------------------------
# composition: engine, resilient, dist, serve, tune


class TestEngineCompose:
    def test_plan_cache_keys_partition(self):
        exact, est = HashSpGEMM(), HashSpGEMM(symbolic="estimate")
        assert exact.plan_switches() != est.plan_switches()
        assert ("symbolic", "exact") in exact.plan_switches()
        assert ("symbolic", "estimate") in est.plan_switches()

    def test_override_symbolic_partitions_too(self):
        from repro.core.params import ParamOverrides

        ov = HashSpGEMM(overrides=ParamOverrides(symbolic="estimate"))
        assert ov.effective_symbolic == "estimate"
        assert ("symbolic", "estimate") in ov.plan_switches()

    def test_engine_replay_identity(self, skewed):
        eng = SpGEMMEngine(HashSpGEMM(symbolic="estimate"))
        cold = eng.multiply(skewed, skewed)
        warm = eng.multiply(skewed, skewed)
        _same(cold, warm)
        _same(cold, multiply(skewed, skewed))
        # the replay skipped the (estimated) symbolic phase entirely
        assert warm.report.total_seconds < cold.report.total_seconds

    def test_options_facade_engine_route(self, skewed):
        r = multiply(skewed, skewed, symbolic="estimate", engine=True)
        _same(r, multiply(skewed, skewed))

    def test_replay_re_emits_the_cold_numeric_grouping(self):
        """A replay re-emits the numeric grouping its cold run emitted:
        each group's range of the bounds it was grouped by, not of the
        true nnz (which differ here: g5 reads 17..196 against 15..143)."""
        A = generators.power_law(220, 5.0, 80, rng=4)
        eng = SpGEMMEngine(HashSpGEMM(symbolic="estimate"))

        def numeric_grouping(r):
            return [e.attrs for e in r.report.events
                    if e.kind == OBS.GROUPING and e.name == "numeric"]

        cold = eng.multiply(A, A, precision="double")
        warm = eng.multiply(A, A, precision="double")
        assert warm.report.numeric_only and not cold.report.numeric_only
        assert numeric_grouping(cold) != []
        assert numeric_grouping(warm) == numeric_grouping(cold)


class TestResilientCompose:
    def test_clean_estimate_run_no_downgrade(self, skewed):
        r = multiply(skewed, skewed, symbolic="estimate", resilient=True)
        _same(r, multiply(skewed, skewed))
        assert r.resilience.estimate_downgrades == 0

    def test_hash_fault_downgrades_to_exact(self, skewed):
        """A persistent hash-table fault on the estimate kernels makes
        the ladder swap in the exact variant -- recovery via the
        existing fault events, identical results."""
        plan = FaultPlan().fail_hash_table("estimate_sample", times=None)
        r = multiply(skewed, skewed, symbolic="estimate", resilient=True,
                     faults=plan)
        rep = r.resilience
        assert rep.recovered
        assert rep.estimate_downgrades >= 1
        _same(r, multiply(skewed, skewed))

    def test_numeric_hash_fault_also_downgrades(self, skewed):
        plan = FaultPlan().fail_hash_table("numeric", times=1)
        r = multiply(skewed, skewed, symbolic="estimate", resilient=True,
                     faults=plan)
        assert r.resilience.recovered
        _same(r, multiply(skewed, skewed))

    def test_exact_variant_copy(self):
        algo = HashSpGEMM(symbolic="estimate", estimate_samples=4)
        ex = algo.exact_variant()
        assert ex.effective_symbolic == "exact"
        assert algo.effective_symbolic == "estimate"


class TestDistServeCompose:
    def test_dist_estimate_bit_identical(self, skewed):
        r = multiply(skewed, skewed, symbolic="estimate", devices=2)
        _same(r, multiply(skewed, skewed))

    def test_serve_estimate_bit_identical(self, skewed):
        from repro.serve import SpGEMMServer

        opts = SpGEMMOptions(symbolic="estimate")
        ref = multiply(skewed, skewed)
        with SpGEMMServer(options=opts, n_workers=1,
                          sleep=lambda s: None) as srv:
            job = srv.submit(skewed, skewed, tenant="t")
            res = job.result(timeout=30)
        _same(res, ref)

    def test_serve_degraded_options_keep_symbolic(self):
        opts = SpGEMMOptions(symbolic="estimate", devices=2)
        degraded = opts.evolve(devices=None, resilient=True)
        assert degraded.symbolic == "estimate"


class TestTuneCompose:
    def test_candidate_space_has_symbolic_axis(self):
        from repro.gpu.device import P100
        from repro.tune.tuner import candidate_space

        cands = candidate_space(P100)
        assert cands[0].is_default()
        est = [c for c in cands if c.symbolic == "estimate"]
        assert est and len(est) * 2 == len(cands)

    def test_modeled_total_finite_for_estimate(self, skewed):
        from repro.core.params import ParamOverrides
        from repro.gpu.device import P100
        from repro.tune.tuner import modeled_total
        from repro.tune.sketch import sketch_matrix

        sk = sketch_matrix(skewed, skewed)
        t = modeled_total(sk, P100, "double",
                          ParamOverrides(symbolic="estimate"))
        assert 0.0 < t < float("inf")

    def test_tuned_winner_validates(self, skewed):
        r = multiply(skewed, skewed, tune=True)
        _same(r, multiply(skewed, skewed))

    def test_overrides_codec_round_trips_symbolic(self):
        from repro.core.params import ParamOverrides

        ov = ParamOverrides(symbolic="estimate", t_max=1024)
        assert ParamOverrides.from_dict(ov.to_dict()) == ov


# ---------------------------------------------------------------------------
# the options facade


class TestFacade:
    def test_symbolic_in_coalesce_token(self):
        a = SpGEMMOptions().coalesce_token()
        b = SpGEMMOptions(symbolic="estimate").coalesce_token()
        assert a != b

    def test_estimate_on_baseline_raises_typed(self, skewed):
        with pytest.raises(OptionsError, match="cusparse"):
            multiply(skewed, skewed, algorithm="cusparse",
                     symbolic="estimate")

    def test_estimate_knobs_travel_via_algo_options(self, skewed):
        r = multiply(skewed, skewed, symbolic="estimate",
                     algo_options={"estimate_samples": 8,
                                   "estimate_margin": 0.5,
                                   "estimate_seed": 3})
        _same(r, multiply(skewed, skewed))

    def test_runner_for_estimate_is_hash_spgemm(self):
        r = runner_for(SpGEMMOptions(symbolic="estimate"))
        assert isinstance(r, HashSpGEMM)
        assert r.effective_symbolic == "estimate"

    def test_cli_flag_routes_symbolic(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["multiply", "--generate", "banded:200:8",
             "--symbolic", "estimate"])
        assert args.symbolic == "estimate"
