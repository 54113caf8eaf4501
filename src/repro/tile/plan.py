"""Kernel builders, tiled sketches and cost hooks for the tile algorithm.

The pipeline follows the TileSpGEMM recipe (Niu et al.; the pem-spgemm
exemplar): CSR -> tiled conversion for both operands (charged to the
modeled timeline like pem-spgemm's ``csr2tile`` kernels), then three
steps -- (1) tile-pair matching along the inner tile dimension, (2)
per-C-tile accumulator selection by density (dense / bitmap / sorted
list), (3) numeric tile products plus tiled -> CSR assembly.  Every
builder takes *bare per-tile-row arrays* (not matrices), so the
autotuner can score the same builders on a reconstructed
:class:`TileSketch` -- :func:`modeled_tile_total` is the tile analogue
of :func:`repro.tune.tuner.modeled_total`.

The family's defining cost contrast with the hash proposal: **no kernel
carries global atomics** (``gmem_atomics`` is zero across the pipeline;
all accumulation is tile-local in shared memory), and scattered B-row
gathers are replaced by per-pair tile payload streams -- a win exactly
when tiles are dense, a loss when the pattern scatters one entry per
tile and the conversion + pair-matching overhead has nothing to
amortize against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.count_products import chunk_sums
from repro.gpu.cost import kernel_duration_alone
from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import BlockWorks, KernelLaunch
from repro.sparse.csr import CSRMatrix, segment_sums
from repro.sparse.product import product_for
from repro.tile.format import TiledCSR
from repro.tile.params import (DEFAULT_DENSE_FRAC, DEFAULT_LIST_FRAC,
                               DEFAULT_TILE_SIZE, TileParams)
from repro.types import Precision

#: Tiles per thread block of the conversion kernels.
CONVERT_TILES_PER_BLOCK = 64

#: Accumulator classes of step 2 (index = class id in stats records).
ACC_CLASSES = ("list", "bitmap", "dense")

#: Shared-memory word cost per accumulated product, by accumulator class
#: (dense: one indexed store; bitmap: test-and-set plus compaction;
#: sorted list: handled separately via log2 of the tile occupancy).
_DENSE_OPS = 1.0
_BITMAP_OPS = 2.0

#: Density-histogram resolution of :class:`TileSketch`.
_HIST_BINS = 16


# -- parameter resolvers ------------------------------------------------------


def tile_size_for(params: TileParams) -> int:
    """The effective tile edge (default 16)."""
    if params.tile_size is None:
        return DEFAULT_TILE_SIZE
    return max(2, min(64, int(params.tile_size)))


def cutoffs_for(params: TileParams) -> tuple[float, float]:
    """``(dense_frac, list_frac)`` accumulator-selection cutoffs."""
    dense = (DEFAULT_DENSE_FRAC if params.dense_frac is None
             else float(params.dense_frac))
    lst = (DEFAULT_LIST_FRAC if params.list_frac is None
           else float(params.list_frac))
    return dense, lst


def tile_shared_bytes(tile: int, precision: Precision | str,
                      spec: DeviceSpec) -> int:
    """Shared memory per block: one dense tile accumulator plus the
    occupancy bitmap, capped at the device's per-block limit."""
    p = Precision.parse(precision)
    need = tile * tile * p.value_bytes + tile * tile // 8 + 64
    return min(need, spec.max_shared_per_block)


def _block_threads(tile: int) -> int:
    """One thread per tile cell, clamped to a sane CUDA block."""
    return max(32, min(256, tile * tile))


# -- per-instance tile statistics --------------------------------------------


@dataclass
class TileStats:
    """Everything the kernels and events need about one tiled instance.

    All per-``trow`` arrays are indexed by C tile row (= A tile row);
    ``pairs`` counts the candidate tile pairs step 1 scans -- for every
    A tile ``(I, K)``, the nonempty B tiles of tile row ``K``.
    """

    ta: TiledCSR                 #: tiled A
    tb: TiledCSR                 #: tiled B
    tc: TiledCSR                 #: tiled C (output pattern)
    a_ent: np.ndarray            #: A entries per tile row
    a_tiles: np.ndarray          #: nonempty A tiles per tile row
    pairs: np.ndarray            #: candidate tile pairs per tile row
    products: np.ndarray         #: intermediate products per tile row
    c_tiles: np.ndarray          #: nonempty C tiles per tile row
    c_nnz: np.ndarray            #: C entries per tile row
    acc_ops: np.ndarray          #: accumulator shared ops per tile row
    acc_class: np.ndarray        #: per-C-tile class id (0 list/1 bitmap/2 dense)
    b_avg_entries: float         #: mean entries per nonempty B tile

    @property
    def total_pairs(self) -> int:
        return int(self.pairs.sum())

    def class_records(self) -> list[dict]:
        """Step-2 selection stats, one record per accumulator class
        (rendered through the existing GROUPING/HASH_STATS consumers)."""
        dens = self.tc.density()
        nnz = self.tc.tile_nnz()
        recs = []
        for cid, cname in enumerate(ACC_CLASSES):
            sel = self.acc_class == cid
            if not bool(sel.any()):
                continue
            recs.append({
                "group": cid, "assign": f"TILE/{cname.upper()}",
                "rows": int(sel.sum()), "tiles": int(sel.sum()),
                "tables": int(sel.sum()),
                "table_entries": int(self.tc.tile * self.tc.tile),
                "count_min": int(nnz[sel].min()),
                "count_max": int(nnz[sel].max()),
                "load_mean": float(dens[sel].mean()),
                "load_max": float(dens[sel].max()),
            })
        return recs


def classify_tiles(tc: TiledCSR, params: TileParams) -> np.ndarray:
    """Step 2's per-C-tile accumulator class (0 list, 1 bitmap, 2 dense)."""
    dense_frac, list_frac = cutoffs_for(params)
    dens = tc.density()
    cls = np.ones(tc.n_tiles, dtype=np.int64)          # bitmap
    cls[dens <= list_frac] = 0                         # sorted list
    cls[dens >= dense_frac] = 2                        # dense accumulator
    return cls


def acc_factors(acc_class: np.ndarray, tile_nnz: np.ndarray,
                tile: int) -> np.ndarray:
    """Shared-memory ops per product landing in each C tile."""
    f = np.where(acc_class == 2, _DENSE_OPS, _BITMAP_OPS)
    lst = acc_class == 0
    if bool(lst.any()):
        f = f.astype(np.float64)
        f[lst] = np.log2(np.maximum(2.0, tile_nnz[lst].astype(np.float64)))
    return f


def tile_stats(A: CSRMatrix, B: CSRMatrix, C: CSRMatrix,
               row_products: np.ndarray, params: TileParams) -> TileStats:
    """Tile all three matrices and derive the per-tile-row work arrays."""
    tile = tile_size_for(params)
    ta = TiledCSR.from_csr(A, tile)
    tb = TiledCSR.from_csr(B, tile)
    tc = TiledCSR.from_csr(C, tile)

    b_cnt = tb.tiles_per_row().astype(np.float64)
    # candidate pairs: every A tile (I, K) meets the nonempty B tiles of
    # tile row K; summed per A tile row without materializing the pairs
    pairs_per_a_tile = b_cnt[ta.tile_col]
    pairs = segment_sums(pairs_per_a_tile, ta.tile_rpt)
    a_ent = segment_sums(ta.tile_nnz().astype(np.float64), ta.tile_rpt)
    a_tiles = ta.tiles_per_row().astype(np.float64)

    c_tiles = tc.tiles_per_row().astype(np.float64)
    c_nnz = segment_sums(tc.tile_nnz().astype(np.float64), tc.tile_rpt)
    # one chunk per tile row (zero rows make C's one empty tile row)
    prod = chunk_sums(row_products, tile)

    # accumulator ops: distribute each tile row's products over its C
    # tiles proportionally to tile nnz, weighted by the class factor
    acc_class = classify_tiles(tc, params)
    factors = acc_factors(acc_class, tc.tile_nnz(), tile)
    share = np.zeros(tc.tile_rows, dtype=np.float64)
    np.divide(prod, c_nnz, out=share, where=c_nnz > 0)
    per_tile_ops = (np.repeat(share, tc.tiles_per_row())
                    * tc.tile_nnz() * factors)
    acc_ops = segment_sums(per_tile_ops, tc.tile_rpt)

    return TileStats(
        ta=ta, tb=tb, tc=tc, a_ent=a_ent, a_tiles=a_tiles, pairs=pairs,
        products=prod, c_tiles=c_tiles, c_nnz=c_nnz, acc_ops=acc_ops,
        acc_class=acc_class,
        b_avg_entries=tb.nnz / max(1, tb.n_tiles))


# -- kernel builders ----------------------------------------------------------


def convert_kernel(name: str, tile_nnz: np.ndarray, precision: Precision | str,
                   *, stream: int = 0,
                   phase: str = "setup") -> KernelLaunch | None:
    """CSR -> TiledCSR conversion of one operand (pem-spgemm's csr2tile):
    stream the CSR entries, bin them by tile id, write tile-local
    coordinates plus per-tile metadata.  No atomics: per-block tile
    ranges are disjoint by construction of the sort."""
    e = np.asarray(tile_nnz, dtype=np.float64)
    if e.size == 0:
        return None
    vb = Precision.parse(precision).value_bytes
    works = BlockWorks(
        flops=chunk_sums(4.0 * e, CONVERT_TILES_PER_BLOCK),
        shared_ops=chunk_sums(2.0 * e, CONVERT_TILES_PER_BLOCK),
        gmem_coalesced_bytes=chunk_sums((6.0 + 2.0 * vb) * e + 24.0,
                                        CONVERT_TILES_PER_BLOCK),
        gmem_random=chunk_sums(np.ones_like(e), CONVERT_TILES_PER_BLOCK),
    )
    return KernelLaunch(name=name, block_threads=128,
                        shared_bytes_per_block=0, works=works, stream=stream,
                        phase=phase)


def tile_match_kernel(a_tiles: np.ndarray, pairs: np.ndarray, *,
                      stream: int = 0,
                      phase: str = "count") -> KernelLaunch | None:
    """Step 1: per C tile row, intersect A's tile list with B's tile
    rows (mask tests in shared memory) and emit the matched pair list."""
    a_tiles = np.asarray(a_tiles, dtype=np.float64)
    if a_tiles.size == 0:
        return None
    pairs = np.asarray(pairs, dtype=np.float64)
    works = BlockWorks(
        flops=pairs,
        shared_ops=2.0 * pairs + 4.0 * a_tiles,
        gmem_coalesced_bytes=8.0 * a_tiles + 8.0 * pairs + 8.0,
        gmem_random=a_tiles,                 # B tile-row extents
    )
    return KernelLaunch(name="tile_match", block_threads=128,
                        shared_bytes_per_block=2048, works=works,
                        stream=stream, phase=phase)


def tile_select_kernel(pairs: np.ndarray, c_tiles: np.ndarray, *,
                       stream: int = 0,
                       phase: str = "count") -> KernelLaunch | None:
    """Step 2: fold each pair's occupancy masks into the C tile's
    density estimate and pick the accumulator class -- a pure
    mask-arithmetic pass, no tables, no atomics."""
    pairs = np.asarray(pairs, dtype=np.float64)
    if pairs.size == 0:
        return None
    c_tiles = np.asarray(c_tiles, dtype=np.float64)
    works = BlockWorks(
        flops=pairs + 2.0 * c_tiles,
        shared_ops=2.0 * c_tiles,
        gmem_coalesced_bytes=16.0 * pairs + 16.0 * c_tiles,
    )
    return KernelLaunch(name="tile_select", block_threads=128,
                        shared_bytes_per_block=1024, works=works,
                        stream=stream, phase=phase)


def tile_numeric_kernel(stats_arrays: dict, tile: int,
                        precision: Precision | str, spec: DeviceSpec, *,
                        stream: int = 0,
                        phase: str = "calc") -> KernelLaunch | None:
    """Step 3: per C tile row, stream the matched pairs' tile payloads
    and accumulate into the selected per-tile accumulator in shared
    memory.  Coalesced payload reads replace the hash family's
    scattered B-row gathers, and there are **no global atomics** --
    each block owns its C tiles outright.

    ``stats_arrays`` carries ``a_ent`` / ``pairs`` / ``products`` /
    ``c_nnz`` / ``acc_ops`` per tile row plus the scalar
    ``b_avg_entries`` (see :class:`TileStats`).
    """
    prod = np.asarray(stats_arrays["products"], dtype=np.float64)
    if prod.size == 0:
        return None
    vb = Precision.parse(precision).value_bytes
    a_ent = np.asarray(stats_arrays["a_ent"], dtype=np.float64)
    pairs = np.asarray(stats_arrays["pairs"], dtype=np.float64)
    c_nnz = np.asarray(stats_arrays["c_nnz"], dtype=np.float64)
    acc_ops = np.asarray(stats_arrays["acc_ops"], dtype=np.float64)
    b_avg = float(stats_arrays["b_avg_entries"])
    payload = (2.0 + vb) * (a_ent + pairs * b_avg + c_nnz)
    works = BlockWorks(
        flops=2.0 * prod + acc_ops,
        shared_ops=2.0 * prod + acc_ops,
        gmem_coalesced_bytes=payload + 8.0 * pairs,
        gmem_random=pairs,                   # B tile header fetches
    )
    return KernelLaunch(name="tile_numeric",
                        block_threads=_block_threads(tile),
                        shared_bytes_per_block=tile_shared_bytes(
                            tile, precision, spec),
                        works=works, stream=stream, phase=phase)


def tile_assemble_kernel(c_nnz: np.ndarray, precision: Precision | str, *,
                         stream: int = 0,
                         phase: str = "calc") -> KernelLaunch | None:
    """Tiled -> CSR assembly: expand tile-local coordinates back to
    global CSR order and write the output arrays (pure streaming)."""
    c_nnz = np.asarray(c_nnz, dtype=np.float64)
    if c_nnz.size == 0:
        return None
    vb = Precision.parse(precision).value_bytes
    works = BlockWorks(
        flops=c_nnz,
        gmem_coalesced_bytes=(6.0 + 2.0 * vb) * c_nnz + 8.0,
    )
    return KernelLaunch(name="tile_assemble", block_threads=128,
                        shared_bytes_per_block=0, works=works,
                        stream=stream, phase=phase)


def build_pipeline_kernels(stats: TileStats, tile: int,
                           precision: Precision | str,
                           spec: DeviceSpec) -> dict:
    """All pipeline kernels for one instance, keyed by stage.

    ``conversion`` holds up to two launches (A on stream 0, B on stream
    1 -- they overlap); the other stages hold one launch or ``None``.
    """
    conv = [k for k in (
        convert_kernel("tile_convert_a", stats.ta.tile_nnz(), precision,
                       stream=0),
        convert_kernel("tile_convert_b", stats.tb.tile_nnz(), precision,
                       stream=1),
    ) if k is not None]
    arrays = {"a_ent": stats.a_ent, "pairs": stats.pairs,
              "products": stats.products, "c_nnz": stats.c_nnz,
              "acc_ops": stats.acc_ops,
              "b_avg_entries": stats.b_avg_entries}
    return {
        "conversion": conv,
        "match": tile_match_kernel(stats.a_tiles, stats.pairs),
        "select": tile_select_kernel(stats.pairs, stats.c_tiles),
        "numeric": tile_numeric_kernel(arrays, tile, precision, spec),
        "assemble": tile_assemble_kernel(stats.c_nnz, precision),
    }


# -- the tiled sketch ---------------------------------------------------------


@dataclass(frozen=True)
class TileSketch:
    """Log2-bucketed tile-row histogram of one SpGEMM instance.

    The hash family's :class:`~repro.tune.sketch.MatrixSketch` is blind
    to tile locality (two patterns with identical row histograms can
    tile completely differently), so the tile family sketches per *tile
    row*: ``buckets[k]`` covers tile rows whose product count has
    ``bit_length() == k``, each row storing ``(tile_rows, a_entries,
    a_tiles, pairs, products, c_tiles, c_nnz)``.  ``density_hist`` adds
    the per-C-tile fill histogram step 2's accumulator mix is computed
    from.  The digest is namespaced, so tile-family tuning-store entries
    never collide with hash-family entries for the same matrix.
    """

    shape: tuple[int, int]
    tile: int
    nnz_a: int
    nnz_b: int
    a_tiles: int
    b_tiles: int
    buckets: np.ndarray            #: (K, 7) int64
    density_hist: np.ndarray       #: (_HIST_BINS, 2) int64: tiles, nnz

    @property
    def n_products(self) -> int:
        return int(self.buckets[:, 4].sum())

    @property
    def nnz_out(self) -> int:
        return int(self.buckets[:, 6].sum())

    def digest(self) -> str:
        """Stable hex digest keying the tuning store (namespaced so the
        tile family never shares entries with the hash family)."""
        h = hashlib.sha256()
        h.update(b"tile-sketch/")
        h.update(np.asarray([*self.shape, self.tile, self.nnz_a, self.nnz_b,
                             self.a_tiles, self.b_tiles],
                            dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.buckets,
                                      dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.density_hist,
                                      dtype=np.int64).tobytes())
        return h.hexdigest()[:16]

    def reconstruct(self) -> dict:
        """Representative per-tile-row arrays (bucket means, like
        :meth:`~repro.tune.sketch.MatrixSketch.reconstruct`)."""
        rows = self.buckets[:, 0]
        out = {}
        names = ("a_ent", "a_tiles", "pairs", "products", "c_tiles", "c_nnz")
        for i, name in enumerate(names, start=1):
            means = np.zeros(rows.shape[0], dtype=np.float64)
            np.divide(self.buckets[:, i], np.maximum(rows, 1), out=means,
                      where=rows > 0)
            out[name] = np.repeat(np.ceil(means), rows)
        return out


def sketch_tiles(A: CSRMatrix, B: CSRMatrix,
                 params: TileParams | None = None) -> TileSketch:
    """Sketch the tiled instance (reuses the cached functional product,
    like :func:`~repro.tune.sketch.sketch_matrix`)."""
    params = params or TileParams()
    prod = product_for(A, B, Precision.DOUBLE)
    stats = tile_stats(A, B, prod.C, prod.row_products, params)
    tile = stats.tc.tile

    prod = stats.products.astype(np.int64)
    k = np.zeros(prod.shape[0], dtype=np.int64)
    pos = prod > 0
    k[pos] = np.floor(np.log2(prod[pos])).astype(np.int64) + 1
    n_buckets = int(k.max(initial=0)) + 1
    buckets = np.zeros((n_buckets, 7), dtype=np.int64)
    np.add.at(buckets[:, 0], k, 1)
    for i, arr in enumerate((stats.a_ent, stats.a_tiles, stats.pairs,
                             stats.products, stats.c_tiles, stats.c_nnz),
                            start=1):
        np.add.at(buckets[:, i], k, arr.astype(np.int64))

    dens_bin = np.minimum((stats.tc.density() * _HIST_BINS).astype(np.int64),
                          _HIST_BINS - 1)
    density_hist = np.zeros((_HIST_BINS, 2), dtype=np.int64)
    np.add.at(density_hist[:, 0], dens_bin, 1)
    np.add.at(density_hist[:, 1], dens_bin, stats.tc.tile_nnz())

    return TileSketch(shape=(A.n_rows, B.n_cols), tile=tile,
                      nnz_a=A.nnz, nnz_b=B.nnz,
                      a_tiles=stats.ta.n_tiles, b_tiles=stats.tb.n_tiles,
                      buckets=buckets, density_hist=density_hist)


# -- the autotuner's hooks ----------------------------------------------------


def candidate_space(spec: DeviceSpec) -> list[TileParams]:
    """The tile search grid: accumulator-selection cutoffs.

    Candidate 0 is the all-default :class:`TileParams`.  ``tile_size``
    is not searched -- it changes the tiled sketch itself, so one
    sketch cannot score multiple tile edges.
    """
    dense_axis = [None, 0.25, 0.75]
    list_axis = [None, 0.0625, 0.25]
    out, seen = [], set()
    for d in dense_axis:
        for lo in list_axis:
            ov = TileParams(dense_frac=d, list_frac=lo)
            if ov.switches() not in seen:
                seen.add(ov.switches())
                out.append(ov)
    return out


def modeled_tile_total(sketch: TileSketch, spec: DeviceSpec,
                       precision: Precision | str,
                       params: TileParams) -> float:
    """Analytic objective on a tiled sketch: modeled conversion +
    pipeline seconds.  Returns ``inf`` for configurations the sketch
    cannot score (a foreign tile edge, inverted cutoffs)."""
    p = Precision.parse(precision)
    tile = tile_size_for(params)
    if tile != sketch.tile:
        return float("inf")
    dense_frac, list_frac = cutoffs_for(params)
    if not (0.0 <= list_frac <= dense_frac <= 1.0):
        return float("inf")

    arrays = sketch.reconstruct()
    # accumulator mix from the density histogram at these cutoffs
    mids = (np.arange(_HIST_BINS) + 0.5) / _HIST_BINS
    factors = np.full(_HIST_BINS, _BITMAP_OPS)
    factors[mids >= dense_frac] = _DENSE_OPS
    lst = mids <= list_frac
    factors[lst] = np.log2(np.maximum(2.0, mids[lst] * tile * tile))
    hist_nnz = sketch.density_hist[:, 1].astype(np.float64)
    total_nnz = float(hist_nnz.sum())
    mean_factor = (float((hist_nnz * factors).sum()) / total_nnz
                   if total_nnz > 0 else _BITMAP_OPS)
    arrays["acc_ops"] = arrays["products"] * mean_factor
    arrays["b_avg_entries"] = sketch.nnz_b / max(1, sketch.b_tiles)

    a_tile_nnz = np.full(max(1, sketch.a_tiles),
                         sketch.nnz_a / max(1, sketch.a_tiles))
    b_tile_nnz = np.full(max(1, sketch.b_tiles),
                         sketch.nnz_b / max(1, sketch.b_tiles))
    conv = [convert_kernel("tile_convert_a", a_tile_nnz, p),
            convert_kernel("tile_convert_b", b_tile_nnz, p, stream=1)]
    serial = [
        tile_match_kernel(arrays["a_tiles"], arrays["pairs"]),
        tile_select_kernel(arrays["pairs"], arrays["c_tiles"]),
        tile_numeric_kernel(arrays, tile, p, spec),
        tile_assemble_kernel(arrays["c_nnz"], p),
    ]
    total = max((kernel_duration_alone(k, spec, p)
                 for k in conv if k is not None), default=0.0)
    total += sum(kernel_duration_alone(k, spec, p)
                 for k in serial if k is not None)
    return total


def select_algorithm(A: CSRMatrix, B: CSRMatrix, device: DeviceSpec,
                     precision: Precision | str,
                     params: TileParams | None = None
                     ) -> tuple[str, float, float]:
    """Pick ``'tile'`` or ``'proposal'`` for an instance from the two
    families' sketch objectives (the E22 crossover selector).

    Returns ``(winner, tile_seconds, hash_seconds)``.  Both objectives
    cover the phases their cost models make comparable: the hash side
    scores count + calc (its conversion-free pipeline), the tile side
    scores conversion + the three steps.
    """
    from repro.core.params import ParamOverrides
    from repro.tune.tuner import modeled_total
    from repro.tune.sketch import sketch_matrix

    params = params or TileParams()
    p = Precision.parse(precision)
    hash_seconds = modeled_total(sketch_matrix(A, B), device, p,
                                 ParamOverrides())
    tile_seconds = modeled_tile_total(sketch_tiles(A, B, params), device, p,
                                      params)
    winner = "tile" if tile_seconds < hash_seconds else "proposal"
    return winner, tile_seconds, hash_seconds
