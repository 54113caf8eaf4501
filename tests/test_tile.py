"""Tile-subsystem conformance suite (``pytest -m tile``).

Covers the `TiledCSR` format (round-trip bit-identity, monotone
offsets, mask consistency -- Hypothesis-driven), the `TileSpGEMM`
pipeline (oracle bit-identity on every structured workload, the
no-global-atomics invariant, engine plan replay, composition with the
resilience/tune/dist wrappers), the tile tuning family, the E22
crossover selector, and the structured-generator properties (N:M
exactness, block-diagonal band bounds, GNN adjacency symmetry).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro import SpGEMMOptions
from repro.bench.datasets import WORKLOADS, get_workload
from repro.errors import SparseFormatError
from repro.gpu.device import P100
from repro.sparse import generators as G
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.product import product_for
from repro.sparse.reference import spgemm_reference
from repro.tile import TileParams, TileSpGEMM, TiledCSR
from repro.tile.plan import (build_pipeline_kernels, candidate_space,
                             modeled_tile_total, select_algorithm,
                             sketch_tiles, tile_stats)
from repro.types import Precision

pytestmark = pytest.mark.tile

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def csr_matrices(draw, max_dim=48, max_nnz=160):
    """Canonical CSR, or CSR keeping repeated ``(row, col)`` entries in
    sorted order: the tiled format must not merge them."""
    n_rows = draw(st.integers(1, max_dim))
    n_cols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(hnp.arrays(np.int64, nnz,
                           elements=st.integers(0, n_rows - 1)))
    cols = draw(hnp.arrays(np.int64, nnz,
                           elements=st.integers(0, n_cols - 1)))
    vals = draw(hnp.arrays(np.float64, nnz,
                           elements=st.floats(-8, 8, allow_nan=False,
                                              width=32)))
    if not draw(st.booleans()):
        return COOMatrix(rows, cols, vals, (n_rows, n_cols)).to_csr()
    order = np.lexsort((cols, rows))
    rpt = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))
    return CSRMatrix(rpt, cols[order], vals[order], (n_rows, n_cols),
                     check=False)


@pytest.fixture
def square():
    return G.random_csr(300, 300, 8, rng=42)


# -- TiledCSR format ----------------------------------------------------------


class TestTiledCSR:
    @given(A=csr_matrices(), tile=st.sampled_from([2, 3, 8, 16, 64]))
    @SETTINGS
    def test_round_trip_bit_identical(self, A, tile):
        t = TiledCSR.from_csr(A, tile)
        back = t.to_csr()
        assert np.array_equal(back.rpt, A.rpt)
        assert np.array_equal(back.col, A.col)
        assert np.array_equal(back.val, A.val)

    @given(A=csr_matrices(), tile=st.sampled_from([4, 16]))
    @SETTINGS
    def test_offsets_monotone_and_consistent(self, A, tile):
        t = TiledCSR.from_csr(A, tile)
        assert (np.diff(t.tile_off) > 0).all()       # no empty stored tile
        assert t.tile_off[0] == 0 and t.tile_off[-1] == A.nnz
        assert (np.diff(t.tile_rpt) >= 0).all()
        assert t.tile_rpt[-1] == t.n_tiles
        # local coordinates stay inside the tile
        assert t.ent_row.max(initial=0) < tile
        assert t.ent_col.max(initial=0) < tile

    @given(A=csr_matrices(), tile=st.sampled_from([4, 16]))
    @SETTINGS
    def test_masks_match_entries(self, A, tile):
        t = TiledCSR.from_csr(A, tile)
        for i in range(t.n_tiles):
            lo, hi = t.tile_off[i], t.tile_off[i + 1]
            rm = np.bitwise_or.reduce(
                np.uint64(1) << t.ent_row[lo:hi].astype(np.uint64))
            cm = np.bitwise_or.reduce(
                np.uint64(1) << t.ent_col[lo:hi].astype(np.uint64))
            assert t.row_mask[i] == rm
            assert t.col_mask[i] == cm

    def test_tile_size_bounds(self, square):
        with pytest.raises(SparseFormatError):
            TiledCSR.from_csr(square, 1)
        with pytest.raises(SparseFormatError):
            TiledCSR.from_csr(square, 65)

    def test_device_bytes_smaller_entries_than_csr(self, square):
        # the 1-byte local coordinates undercut CSR's 4-byte columns on
        # dense-tile patterns (the format's memory saving)
        A = G.block_diagonal(256, 16, rng=3)
        t = TiledCSR.from_csr(A, 16)
        p = Precision.DOUBLE
        assert t.device_bytes(p) < A.device_bytes(p)


# -- the tile algorithm -------------------------------------------------------


class TestTileAlgorithm:
    def test_oracle_bit_identity(self, square):
        res = TileSpGEMM().multiply(square, square, precision="double")
        ref = spgemm_reference(square, square)
        assert np.array_equal(res.matrix.rpt, ref.rpt)
        assert np.array_equal(res.matrix.col, ref.col)
        assert np.array_equal(res.matrix.val, ref.val)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_oracle_identity_on_all_workloads(self, name):
        A, B = get_workload(name).matrices()
        res = TileSpGEMM().multiply(A, B, precision="single")
        ref = spgemm_reference(A, B)
        mine = res.matrix
        assert np.array_equal(mine.rpt, ref.rpt)
        assert np.array_equal(mine.col, ref.col)
        np.testing.assert_allclose(mine.val, ref.val, rtol=1e-4)

    def test_rectangular(self):
        A = G.random_csr(30, 50, 5, rng=5)
        B = G.random_csr(50, 25, 4, rng=6)
        res = TileSpGEMM().multiply(A, B)
        ref = spgemm_reference(A, B)
        assert np.array_equal(res.matrix.col, ref.col)
        assert np.array_equal(res.matrix.val, ref.val)

    def test_no_global_atomics_anywhere(self, square):
        # THE family invariant: every pipeline kernel is atomic-free
        prod = product_for(square, square, Precision.DOUBLE)
        stats = tile_stats(square, square, prod.C, prod.row_products,
                           TileParams())
        kernels = build_pipeline_kernels(stats, 16, Precision.DOUBLE, P100)
        flat = list(kernels["conversion"]) + [
            kernels[k] for k in ("match", "select", "numeric", "assemble")]
        assert len([k for k in flat if k is not None]) >= 5
        for k in flat:
            if k is not None:
                assert k.works.totals().gmem_atomics == 0, k.name
        # contrast: the hash proposal's numeric phase does use atomics
        hash_res = repro.multiply(
            square, square, options=SpGEMMOptions(algorithm="proposal"))
        assert any("hash" in k.name or "numeric" in k.name
                   for k in hash_res.report.kernels)

    def test_conversion_charged_to_timeline(self, square):
        res = TileSpGEMM().multiply(square, square)
        names = [k.name for k in res.report.kernels]
        assert "tile_convert_a" in names and "tile_convert_b" in names
        assert res.report.phase_seconds["setup"] > 0

    def test_params_change_plan_switches(self):
        a = TileSpGEMM()
        b = TileSpGEMM(params=TileParams(dense_frac=0.25))
        assert a.plan_switches() != b.plan_switches()

    def test_declines_foreign_overrides(self):
        from repro.core.params import ParamOverrides
        from repro.cpu.params import CPUParams

        alg = TileSpGEMM()
        assert not alg.apply_param_overrides(ParamOverrides())
        assert not alg.apply_param_overrides(CPUParams())
        assert alg.apply_param_overrides(TileParams(tile_size=8))
        assert alg.params.tile_size == 8
        assert alg.apply_param_overrides(None)
        assert alg.params.is_default()

    def test_tile_size_override_runs(self, square):
        res = TileSpGEMM(params=TileParams(tile_size=8)).multiply(
            square, square)
        ref = spgemm_reference(square, square)
        assert np.array_equal(res.matrix.val, ref.val)


class TestTileParams:
    def test_round_trip(self):
        p = TileParams(tile_size=8, dense_frac=0.75)
        assert TileParams.from_dict(p.to_dict()) == p
        assert TileParams.from_dict(TileParams().to_dict()).is_default()

    def test_describe(self):
        assert TileParams().describe() == "default"
        assert "list_frac" in TileParams(list_frac=0.25).describe()


# -- composition through the existing seams -----------------------------------


class TestComposition:
    def test_engine_replay_bit_identical_and_faster(self, square):
        res = repro.multiply(square, square, options=SpGEMMOptions(
            algorithm="tile", engine=True))
        hit = repro.multiply(square, square, options=SpGEMMOptions(
            algorithm="tile", engine=True))
        # fresh engines don't share caches; drive one engine directly
        from repro.engine.engine import SpGEMMEngine

        eng = SpGEMMEngine(algorithm="tile")
        cold = eng.multiply(square, square)
        warm = eng.multiply(square, square)
        assert np.array_equal(warm.matrix.val, cold.matrix.val)
        assert np.array_equal(warm.matrix.col, cold.matrix.col)
        assert warm.report.total_seconds < cold.report.total_seconds
        kinds = [e.kind for e in warm.report.events]
        assert "cache_hit" in kinds
        assert res.report.nnz_out == hit.report.nnz_out

    def test_resilient_wrapper(self, square):
        res = repro.multiply(square, square, options=SpGEMMOptions(
            algorithm="tile", resilient=True))
        ref = spgemm_reference(square, square)
        assert np.array_equal(res.matrix.val, ref.val)

    def test_tuned_tile_uses_tile_family(self, square):
        from repro.tune.tuned import TunedSpGEMM

        t = TunedSpGEMM(algorithm="tile", store_path=None)
        res = t.multiply(square, square)
        ref = spgemm_reference(square, square)
        assert np.array_equal(res.matrix.val, ref.val)
        assert isinstance(t.last_overrides(), TileParams)

    def test_fallback_chain(self):
        from repro.options import _fallback_chain

        assert _fallback_chain("tile") == ("tile", "cusparse")

    def test_cpu_translates_tile_to_native(self):
        from repro.backend import backends

        cpu = backends()["cpu"]
        assert cpu.native_algorithm("tile") == cpu.default_algorithm

    def test_dist_pool_runs_tile(self, square):
        res = repro.multiply(square, square, options=SpGEMMOptions(
            algorithm="tile", devices=("P100", "P100")))
        ref = spgemm_reference(square, square)
        assert np.array_equal(res.matrix.val, ref.val)


# -- tuning family ------------------------------------------------------------


class TestTileTuning:
    def test_backend_has_two_families(self):
        from repro.backend import backends

        fams = backends()["gpu"].tuning_families(P100)
        assert [f.family for f in fams] == ["gpu", "tile"]

    def test_sketch_digest_distinct_from_hash_family(self, square):
        from repro.tune.sketch import sketch_matrix

        assert (sketch_tiles(square, square).digest()
                != sketch_matrix(square, square).digest())

    def test_sketch_digest_deterministic(self, square):
        assert (sketch_tiles(square, square).digest()
                == sketch_tiles(square, square).digest())

    def test_candidate_space_default_first(self):
        cands = candidate_space(P100)
        assert cands[0].is_default()
        assert len({c.switches() for c in cands}) == len(cands)

    def test_modeled_total_finite_and_ranks(self, square):
        sk = sketch_tiles(square, square)
        scores = [modeled_tile_total(sk, P100, Precision.DOUBLE, ov)
                  for ov in candidate_space(P100)]
        assert all(np.isfinite(s) and s > 0 for s in scores)
        # a foreign tile edge cannot be scored on this sketch
        assert modeled_tile_total(
            sk, P100, Precision.DOUBLE,
            TileParams(tile_size=8)) == float("inf")
        # inverted cutoffs are infeasible
        assert modeled_tile_total(
            sk, P100, Precision.DOUBLE,
            TileParams(dense_frac=0.1, list_frac=0.9)) == float("inf")


# -- E22 crossover ------------------------------------------------------------


class TestCrossover:
    @pytest.mark.corpus
    def test_selector_agrees_with_measurement_per_class(self):
        from repro.baselines.registry import create

        wins = {}
        for name, w in sorted(WORKLOADS.items()):
            A, B = w.matrices()
            t = TileSpGEMM().multiply(A, B, precision="single")
            h = create("proposal").multiply(A, B, precision="single")
            measured = ("tile" if t.report.total_seconds
                        < h.report.total_seconds else "proposal")
            chosen, _, _ = select_algorithm(A, B, P100, "single")
            assert chosen == measured, (name, chosen, measured)
            wins[w.wclass] = measured
            w.drop()
        # the honest crossover: at least one class on each side
        assert "tile" in wins.values()
        assert "proposal" in wins.values()

    def test_structured_classes_favor_tile_in_model(self):
        A, B = get_workload("nm-2:4").matrices()
        chosen, tile_s, hash_s = select_algorithm(A, B, P100, "single")
        assert chosen == "tile" and tile_s < hash_s
        get_workload("nm-2:4").drop()

    def test_powerlaw_favors_hash_in_model(self):
        A, B = get_workload("web-powerlaw").matrices()
        chosen, tile_s, hash_s = select_algorithm(A, B, P100, "single")
        assert chosen == "proposal" and hash_s < tile_s
        get_workload("web-powerlaw").drop()


# -- structured generators ----------------------------------------------------


class TestStructuredGenerators:
    @given(n_rows=st.integers(1, 40), groups=st.integers(1, 10),
           n=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_nm_exactness(self, n_rows, groups, n, seed):
        m = 4
        n = min(n, m)
        A = G.nm_structured(n_rows, groups * m, n, m, rng=seed)
        assert (A.row_nnz() == groups * n).all()
        rows = np.repeat(np.arange(n_rows), A.row_nnz())
        # exactly n nonzeros in every group of m columns of every row
        per_group = np.bincount(rows * groups + A.col // m,
                                minlength=n_rows * groups)
        assert (per_group == n).all()

    def test_nm_validation(self):
        with pytest.raises(ValueError):
            G.nm_structured(4, 10, 2, 4, rng=0)     # 10 % 4 != 0
        with pytest.raises(ValueError):
            G.nm_structured(4, 8, 5, 4, rng=0)      # n > m

    @given(n=st.integers(1, 80), block=st.integers(1, 20),
           fill=st.floats(0.1, 1.0), seed=st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_block_diagonal_band_bound(self, n, block, fill, seed):
        A = G.block_diagonal(n, block, fill=fill, rng=seed)
        block = max(1, min(block, n))
        rows = np.repeat(np.arange(n), A.row_nnz())
        assert (rows // block == A.col // block).all()
        assert (A.row_nnz() >= 1).all()             # diagonal kept

    @given(n=st.integers(2, 60), deg=st.floats(0.0, 8.0),
           seed=st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_gnn_adjacency_symmetry(self, n, deg, seed):
        A = G.gnn_adjacency(n, deg, rng=seed)
        rows = np.repeat(np.arange(n), A.row_nnz())
        order = np.lexsort((rows, A.col))
        # transpose == original, pattern AND values, bit for bit
        assert np.array_equal(A.col[order], rows)
        assert np.array_equal(rows[order], A.col)
        assert np.array_equal(A.val[order], A.val)

    def test_feature_blocks_aligned(self):
        A = G.feature_blocks(50, 128, 16, rng=11)
        assert A.shape == (50, 128)
        assert (A.row_nnz() >= 16).all()
