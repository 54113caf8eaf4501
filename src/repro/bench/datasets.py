"""Benchmark datasets: synthetic analogues of the paper's Table II suite.

The paper evaluates 12 UF Sparse Matrix Collection matrices plus three
large graph matrices.  Those files are not available offline, so each is
replaced by a generated analogue of the same *class* (see DESIGN.md).  The
scaling rules:

* The relative ordering of nnz/row across the suite is preserved (Protein
  densest ... webbase sparsest), with the dense end compressed so the
  per-dataset intermediate-product count stays around 0.5-5 M and the
  whole suite is computable on the CPU substrate in about a minute.
* Structural traits that drive algorithm routing are preserved: Protein's
  per-row product counts exceed the Group-1 symbolic table (8192) and its
  upper bound exceeds BHSPARSE's merge threshold; Epidemiology is
  perfectly regular with max = mean nnz/row; webbase has a single huge
  power-law row; the FEM family is banded and uniform.
* Full-scale **paper statistics** (Table II, verbatim) ride along on each
  dataset for the analytic memory model, so Figure 4 and the Table III
  out-of-memory entries are evaluated at true scale against the real
  16 GB device.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.sparse import generators as G
from repro.sparse.csr import CSRMatrix
from repro.sparse.stats import MatrixStats, compute_stats

#: Root seed of the dataset RNG factory (new datasets derive their
#: streams from this; never reused directly).
BASE_SEED = 20170814  # the paper's ICPP year + date, fixed forever

#: The integer seeds the Table II / large-graph analogues shipped with
#: before the factory existed.  Pinned by name so every historical
#: dataset keeps its exact bit pattern (goldens and BENCH_BASELINE.json
#: depend on it); new datasets get factory-derived streams instead.
_LEGACY_SEEDS: dict[str, int] = {
    "Protein": 101, "FEM/Spheres": 102, "FEM/Cantilever": 103,
    "FEM/Ship": 104, "Wind Tunnel": 105, "FEM/Harbor": 106, "QCD": 107,
    "FEM/Accelerator": 108, "Economics": 109, "Circuit": 110,
    "Epidemiology": 111, "webbase": 112,
    "cage15": 113, "wb-edu": 114, "cit-Patents": 115,
}


def dataset_rng(name: str) -> np.random.Generator:
    """The one RNG factory every dataset generator seeds through.

    Returns a *fresh* ``numpy.random.Generator`` per call -- no module
    state, so building datasets in any order (or twice) never changes
    any of them, and two processes get bit-identical matrices (the
    determinism regression test).  Legacy names keep their original
    integer seeds; new names derive a stream from :data:`BASE_SEED` and
    a CRC of the name (``zlib.crc32``, not :func:`hash`, which is salted
    per process).
    """
    legacy = _LEGACY_SEEDS.get(name)
    if legacy is not None:
        return np.random.default_rng(legacy)
    return np.random.default_rng(
        np.random.SeedSequence([BASE_SEED, zlib.crc32(name.encode())]))


@dataclass(frozen=True)
class PaperStats:
    """One row of the paper's Table II (full-scale ground truth)."""

    name: str
    rows: int
    nnz: int
    nnz_per_row: float
    max_nnz_per_row: int
    n_products: int      #: intermediate products of A^2
    nnz_out: int         #: nnz of A^2


#: Table II, transcribed from the paper.
TABLE2: dict[str, PaperStats] = {
    s.name: s for s in [
        PaperStats("Protein", 36_417, 4_344_765, 119.3, 204,
                   555_322_659, 19_594_581),
        PaperStats("FEM/Spheres", 83_334, 6_010_480, 72.1, 81,
                   463_845_030, 26_539_736),
        PaperStats("FEM/Cantilever", 62_451, 4_007_383, 64.2, 78,
                   269_486_473, 17_440_029),
        PaperStats("FEM/Ship", 140_874, 7_813_404, 55.5, 102,
                   450_639_288, 24_086_412),
        PaperStats("Wind Tunnel", 217_918, 11_634_424, 53.4, 180,
                   626_054_402, 32_772_236),
        PaperStats("FEM/Harbor", 46_835, 2_374_001, 50.7, 145,
                   156_480_259, 7_900_917),
        PaperStats("QCD", 49_152, 1_916_928, 39.0, 39,
                   74_760_192, 10_911_744),
        PaperStats("FEM/Accelerator", 121_192, 2_624_331, 21.7, 81,
                   79_883_385, 18_705_069),
        PaperStats("Economics", 206_500, 1_273_389, 6.2, 44,
                   7_556_897, 6_704_899),
        PaperStats("Circuit", 170_998, 958_936, 5.6, 353,
                   8_676_313, 5_222_525),
        PaperStats("Epidemiology", 525_825, 2_100_225, 4.0, 4,
                   8_391_680, 5_245_952),
        PaperStats("webbase", 1_000_005, 3_105_536, 3.1, 4700,
                   69_524_195, 51_111_996),
        PaperStats("cage15", 5_154_859, 99_199_551, 19.2, 47,
                   2_078_631_615, 929_023_247),
        PaperStats("wb-edu", 9_845_725, 57_156_537, 5.8, 3841,
                   1_559_579_990, 630_077_764),
        PaperStats("cit-Patents", 3_774_768, 16_518_948, 4.4, 770,
                   82_152_992, 68_848_721),
    ]
}


@dataclass
class Dataset:
    """One benchmark workload: generator + paper ground truth."""

    name: str
    paper: PaperStats
    category: str                      #: 'high' | 'low' | 'large'
    build_fn: Callable[[], CSRMatrix]
    note: str = ""
    _matrix: CSRMatrix | None = None
    _stats: MatrixStats | None = None

    def matrix(self) -> CSRMatrix:
        """Build (once) and return the scaled instance matrix."""
        if self._matrix is None:
            self._matrix = self.build_fn()
        return self._matrix

    def stats(self) -> MatrixStats:
        """Instance statistics of the squared matrix (computed once)."""
        if self._stats is None:
            self._stats = compute_stats(self.matrix(), name=self.name)
        return self._stats

    def drop(self) -> None:
        """Release the built matrix (memory hygiene between benchmarks)."""
        self._matrix = None
        self._stats = None


def _make(name: str, category: str, note: str,
          build_fn: Callable[[], CSRMatrix]) -> Dataset:
    return Dataset(name=name, paper=TABLE2[name], category=category,
                   build_fn=build_fn, note=note)


#: The 12 Table II analogues, in the paper's order (top 8 high-throughput,
#: bottom 4 low-throughput).
DATASETS: dict[str, Dataset] = {d.name: d for d in [
    _make("Protein", "high",
          "dense diagonal blocks; per-row products exceed the shared "
          "symbolic table (Group 0) and BHSPARSE's merge threshold",
          lambda: G.block_dense(2400, 48, coupling=0.02,
                                rng=dataset_rng("Protein"))),
    _make("FEM/Spheres", "high", "banded FEM, uniform rows",
          lambda: G.banded(1000, 34, rng=dataset_rng("FEM/Spheres"))),
    _make("FEM/Cantilever", "high", "banded FEM, uniform rows",
          lambda: G.banded(900, 30, rng=dataset_rng("FEM/Cantilever"))),
    _make("FEM/Ship", "high", "banded FEM, mild variation",
          lambda: G.banded(1000, 27, rng=dataset_rng("FEM/Ship"))),
    _make("Wind Tunnel", "high", "banded FEM, wider spread",
          lambda: G.banded(1000, 26, bandwidth=80,
                           rng=dataset_rng("Wind Tunnel"))),
    _make("FEM/Harbor", "high", "banded FEM, short band",
          lambda: G.banded(800, 24, bandwidth=30,
                           rng=dataset_rng("FEM/Harbor"))),
    _make("QCD", "high", "perfectly regular lattice stencil",
          lambda: G.stencil_regular(2048, 20, rng=dataset_rng("QCD"))),
    _make("FEM/Accelerator", "high", "banded, lighter rows",
          lambda: G.banded(2000, 12, bandwidth=60,
                           rng=dataset_rng("FEM/Accelerator"))),
    _make("Economics", "low", "diagonal + random scatter, irregular",
          lambda: G.diagonal_plus_random(12000, 5.2,
                                         rng=dataset_rng("Economics"))),
    _make("Circuit", "low", "power-law rows (max >> mean)",
          lambda: G.power_law(12000, 9.5, 250, rng=dataset_rng("Circuit"))),
    _make("Epidemiology", "low", "regular degree-4 stencil, max = mean",
          lambda: G.stencil_regular(40000, 4, rng=dataset_rng("Epidemiology"))),
    _make("webbase", "low", "power-law web graph with one huge row",
          lambda: G.power_law(20000, 3.1, 470, rng=dataset_rng("webbase"))),
]}

#: The three large graph-analysis matrices of Table III.
LARGE_GRAPHS: dict[str, Dataset] = {d.name: d for d in [
    _make("cage15", "large", "near-uniform random graph, high edge factor "
          "(cage matrices are regular, not power-law)",
          lambda: G.rmat(12, 19, a=0.28, b=0.24, c=0.24,
                         rng=dataset_rng("cage15"))),
    _make("wb-edu", "large", "power-law web crawl with extreme rows",
          lambda: G.power_law(40000, 5.8, 1200, rng=dataset_rng("wb-edu"))),
    _make("cit-Patents", "large", "RMAT citation graph, low density",
          lambda: G.rmat(13, 4, rng=dataset_rng("cit-Patents"))),
]}

#: Names in paper (Table II / Figure 2) order.
HIGH_THROUGHPUT = [n for n, d in DATASETS.items() if d.category == "high"]
LOW_THROUGHPUT = [n for n, d in DATASETS.items() if d.category == "low"]


def get_dataset(name: str) -> Dataset:
    """Look up a dataset by paper name (Table II or large-graph suite)."""
    if name in DATASETS:
        return DATASETS[name]
    if name in LARGE_GRAPHS:
        return LARGE_GRAPHS[name]
    raise KeyError(f"unknown dataset {name!r}; "
                   f"known: {sorted(DATASETS) + sorted(LARGE_GRAPHS)}")


# -- structured-sparsity workloads (A, B pairs) -------------------------------


@dataclass
class Workload:
    """One structured SpGEMM workload: an ``(A, B)`` pair with a class tag.

    Unlike :class:`Dataset` (square Table II analogues, always squared),
    a workload names *both* operands -- N:M weight chains, GNN adjacency
    x feature blocks (rectangular), transformer block-diagonal products.
    ``wclass`` is the workload-class tag the E22 crossover study and the
    tuner's per-class records key on.
    """

    name: str
    wclass: str                        #: class tag ('nm', 'gnn', ...)
    shape: str                         #: human-readable default shape
    build_fn: Callable[[], "tuple[CSRMatrix, CSRMatrix]"]
    note: str = ""
    _pair: "tuple[CSRMatrix, CSRMatrix] | None" = None

    def matrices(self) -> "tuple[CSRMatrix, CSRMatrix]":
        """Build (once) and return the operand pair."""
        if self._pair is None:
            self._pair = self.build_fn()
        return self._pair

    def drop(self) -> None:
        """Release the built pair (memory hygiene between benchmarks)."""
        self._pair = None


def _nm_pair() -> "tuple[CSRMatrix, CSRMatrix]":
    # 50% density makes intermediate products quadratic in width: 256
    # keeps the one-off oracle product (shared cache) to ~4M products
    # while preserving the uniformly-dense-tile structure tiles reward
    r = dataset_rng("nm-2:4")
    return (G.nm_structured(256, 256, 2, 4, rng=r),
            G.nm_structured(256, 256, 2, 4, rng=r))


def _transformer_pair() -> "tuple[CSRMatrix, CSRMatrix]":
    r = dataset_rng("transformer-blockdiag")
    return (G.block_diagonal(768, 64, fill=0.9, rng=r),
            G.block_diagonal(768, 64, fill=0.9, rng=r))


def _gnn_pair() -> "tuple[CSRMatrix, CSRMatrix]":
    r = dataset_rng("gnn-adj-feat")
    return (G.gnn_adjacency(3000, 8, rng=r),
            G.feature_blocks(3000, 256, 32, rng=r))


def _powerlaw_pair() -> "tuple[CSRMatrix, CSRMatrix]":
    A = G.power_law(4000, 6.0, 300, rng=dataset_rng("web-powerlaw"))
    return (A, A)


#: The structured workloads of the E22 crossover study.  Each workload
#: seeds one factory stream, so operand pairs are deterministic across
#: processes; the power-law entry is the scattered regime the tile
#: family should *lose* (the honest half of the crossover).
WORKLOADS: dict[str, Workload] = {w.name: w for w in [
    Workload("nm-2:4", "nm", "256x256 @ 256x256",
             _nm_pair,
             "2:4 structured weight chain: exactly 2 nonzeros per group "
             "of 4 columns, uniformly dense tiles"),
    Workload("transformer-blockdiag", "transformer", "768x768 @ 768x768",
             _transformer_pair,
             "block-diagonal 64x64 attention-head blocks at 90% fill; "
             "every occupied tile near-dense"),
    Workload("gnn-adj-feat", "gnn", "3000x3000 @ 3000x256",
             _gnn_pair,
             "symmetric GNN adjacency times block-aligned feature "
             "table (rectangular aggregation product)"),
    Workload("web-powerlaw", "powerlaw", "4000x4000 @ 4000x4000",
             _powerlaw_pair,
             "power-law web graph squared: one entry per tile almost "
             "everywhere -- the tile format's worst case"),
]}


def get_workload(name: str) -> Workload:
    """Look up a structured workload by name."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; "
                       f"known: {sorted(WORKLOADS)}") from None


def workload_table() -> str:
    """Render the registered dataset/workload generators (CLI
    ``--list-datasets``): name, class tag and default shape -- without
    building any matrix."""
    lines = [f"{'name':<24} {'class':<12} {'shape':<22} note",
             "-" * 86]
    for ds in {**DATASETS, **LARGE_GRAPHS}.values():
        shape = f"{ds.paper.rows:,} (paper rows)"
        lines.append(f"{ds.name:<24} {ds.category:<12} {shape:<22} "
                     f"{ds.note}")
    for w in WORKLOADS.values():
        lines.append(f"{w.name:<24} {w.wclass:<12} {w.shape:<22} {w.note}")
    return "\n".join(lines)


def instance_table(datasets: dict[str, Dataset] | None = None) -> str:
    """Render the instance-vs-paper statistics table (benchmark E11)."""
    datasets = datasets if datasets is not None else {**DATASETS, **LARGE_GRAPHS}
    lines = [MatrixStats.table_header()]
    for ds in datasets.values():
        s = ds.stats()
        lines.append(s.table_row())
        p = ds.paper
        lines.append(
            f"{'  (paper)':<18} {p.rows:>10,} {p.nnz:>12,} "
            f"{p.nnz_per_row:>8.1f} {p.max_nnz_per_row:>12,} "
            f"{p.n_products:>16,} {p.nnz_out:>14,}")
    return "\n".join(lines)
