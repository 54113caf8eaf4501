"""The benchmark's three workloads, their seeded inputs and the oracle gate.

Each workload builds its inputs from the seed in :meth:`setup` (the
program then receives only the generated matrices), warms what a user
would warm, and in :meth:`measure` runs its loop for a number of
seconds into a :class:`Segment`.  Only calls into the program are timed;
every timed result is checked against :func:`repro.spgemm_reference`
afterwards, outside the timed region.  The cache-state counts that
define each workload are asserted on every pass, round or phase and
raise :class:`HygieneError` when they drift.

Seeds: :data:`DEFAULT_SEED` reproduces the committed inputs --
``repro.bench.datasets.DATASETS``, the E16 iterates and MCL graph, the
E19 storm matrices.  Any other seed draws the same generator shapes from
streams derived from ``(seed, input name)``.
"""

from __future__ import annotations

import json
import math
import statistics
import time
import zlib
from collections import defaultdict
from pathlib import Path

import numpy as np

import repro
import repro.apps
from repro import perf
from repro.engine import SpGEMMEngine
from repro.gpu.faults import FaultPlan
from repro.obs import events as OBS
from repro.options import SpGEMMOptions, runner_for
from repro.serve import SpGEMMServer
from repro.sparse import generators as G
from repro.sparse.csr import CSRMatrix
from repro.tune import TuningStore

import speed
from tracer import CallCounter

ROOT = Path(__file__).resolve().parent.parent

#: The seed whose inputs are the committed datasets and E16/E19 inputs.
DEFAULT_SEED = 0

#: Value tolerance against the float64-accumulating oracle (DESIGN.md
#: section 6: structure exact, values to the precision's tolerance).
RTOL = {"single": 1e-5, "double": 1e-10}


class HygieneError(RuntimeError):
    """A count that defines a workload (cold or warm) drifted."""


def stream(seed: int, name: str) -> np.random.Generator:
    """The input stream called ``name`` under benchmark seed ``seed``."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(name.encode())]))


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def matches(C: CSRMatrix, ref: CSRMatrix, precision: str) -> bool:
    """Structure equal to the oracle's, values within ``RTOL``."""
    return (C.shape == ref.shape and np.array_equal(C.rpt, ref.rpt)
            and np.array_equal(C.col, ref.col)
            and np.allclose(C.val, ref.val, rtol=RTOL[precision], atol=0.0))


class Segment:
    """What one measured loop produced.

    The loop is cut into steps (a matrix, a round, an open-loop chunk, a
    burst), each bracketed by :meth:`begin` and :meth:`end`, which
    calibrate the machine speed (:mod:`speed`).  ``steps`` holds
    ``(multiplies, host seconds, speed factor)`` per step;
    ``latencies`` are in reference-speed seconds.  ``modeled`` holds
    per-pass modeled figures, which repeat exactly at a fixed seed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.steps: list[tuple[int, float, float]] = []
        self.latencies: list[float] = []
        self.events = 0
        self.results = 0
        self.modeled: dict[str, list[float]] = defaultdict(list)
        self.serve: dict[str, list[float]] = defaultdict(list)
        #: set to a list to keep ``(matrix, modeled seconds)`` of every
        #: checked result (the tests compare traced and untraced runs)
        self.kept: list | None = None
        self._before = 0.0

    def begin(self) -> float:
        """Calibrate right before a step; returns the speed factor."""
        self._before = speed.calibrate()
        return self._before / speed.REFERENCE_S

    def end(self, mults: int, seconds: float, latencies=()) -> float:
        """Calibrate right after a step of ``mults`` multiplies that took
        ``seconds`` of timed host time; returns its speed factor."""
        f = speed.factor(self._before, speed.calibrate())
        self.steps.append((mults, seconds, f))
        self.latencies += [x / f for x in latencies]
        return f

    def mult_per_s(self, *, raw: bool = False) -> float:
        """Multiplies per timed second, in reference-speed units unless
        ``raw``."""
        done = sum(m for m, _, _ in self.steps)
        return done / sum(s if raw else s / f for _, s, f in self.steps)

    def mean_factor(self) -> float:
        """Time-weighted speed factor of the segment."""
        return (sum(s for _, s, _ in self.steps)
                / sum(s / f for _, s, f in self.steps))

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    def check(self, result, A: CSRMatrix, B: CSRMatrix, precision: str,
              ref: CSRMatrix | None = None, *, what: str = "") -> None:
        """Gate one timed result against the oracle (outside any clock)."""
        self.results += 1
        self.events += len(result.report.events)
        if self.kept is not None:
            self.kept.append((result.matrix, result.report.total_seconds))
        if ref is None:
            ref = repro.spgemm_reference(A, B)
        if not matches(result.matrix, ref, precision):
            self.fail(f"oracle mismatch: {what}")


class Stopwatch:
    """Times one call into the program; under a tracer it is also the
    root span of that call (the span records the stopwatch reading)."""

    def __init__(self, tracer, name: str) -> None:
        self.tracer, self.name = tracer, name
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self.t0 = time.perf_counter()
        if self.tracer is not None:
            self.span = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        if self.tracer is not None:
            self.tracer.close(self.span)
        self.seconds = time.perf_counter() - self.t0
        if self.tracer is not None:
            self.span.info = self.seconds


# -- paper-cold ---------------------------------------------------------------

#: The generator shapes of the 12 Table II analogues, in paper order
#: (``repro.bench.datasets.DATASETS`` builds the same calls from
#: ``dataset_rng(name)``; the tests pin that equality).
PAPER_SHAPES = {
    "Protein": lambda r: G.block_dense(2400, 48, coupling=0.02, rng=r),
    "FEM/Spheres": lambda r: G.banded(1000, 34, rng=r),
    "FEM/Cantilever": lambda r: G.banded(900, 30, rng=r),
    "FEM/Ship": lambda r: G.banded(1000, 27, rng=r),
    "Wind Tunnel": lambda r: G.banded(1000, 26, bandwidth=80, rng=r),
    "FEM/Harbor": lambda r: G.banded(800, 24, bandwidth=30, rng=r),
    "QCD": lambda r: G.stencil_regular(2048, 20, rng=r),
    "FEM/Accelerator": lambda r: G.banded(2000, 12, bandwidth=60, rng=r),
    "Economics": lambda r: G.diagonal_plus_random(12000, 5.2, rng=r),
    "Circuit": lambda r: G.power_law(12000, 9.5, 250, rng=r),
    "Epidemiology": lambda r: G.stencil_regular(40000, 4, rng=r),
    "webbase": lambda r: G.power_law(20000, 3.1, 470, rng=r),
}

#: Fig. 2's four algorithms; the first on each matrix pays the product.
ALGORITHMS = ("proposal", "cusparse", "cusp", "bhsparse")

#: The rows of BENCH_BASELINE.json the default seed must reproduce.
BASELINE_DATASETS = ("Protein", "Circuit")


class PaperCold:
    """Closed loop, one caller: each pass squares the 12 Table II
    analogues with the four algorithms in single precision, every
    matrix from a cleared fast-cache state (a fresh ``repro suite``)."""

    name = "paper-cold"
    precision = "single"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.bench.datasets import dataset_rng

        t0 = time.perf_counter()
        rng = (dataset_rng if self.seed == DEFAULT_SEED
               else lambda name: stream(self.seed, "paper/" + name))
        self.mats = {n: build(rng(n)) for n, build in PAPER_SHAPES.items()}
        self.gen_s = time.perf_counter() - t0

    def prepare(self) -> None:
        """Oracle products and the baseline rows (outside every clock)."""
        self.refs = {n: repro.spgemm_reference(A.astype(self.precision),
                                               A.astype(self.precision))
                     for n, A in self.mats.items()}
        self.baseline = None
        if self.seed == DEFAULT_SEED:
            with open(ROOT / "BENCH_BASELINE.json", encoding="utf-8") as fh:
                runs = json.load(fh)["runs"]
            self.baseline = {(r["dataset"], r["algorithm"]):
                             (r["gflops"], r["total_seconds"]) for r in runs
                             if r["dataset"] in BASELINE_DATASETS
                             and r["algorithm"] in ALGORITHMS}

    def measure(self, seg: Segment, seconds: float, tracer=None) -> None:
        end = time.perf_counter() + seconds
        with CallCounter("repro.sparse.expansion", "build_sort_recipe") as builds:
            while True:
                self._pass(seg, tracer, builds)
                if time.perf_counter() >= end:
                    break

    def _pass(self, seg: Segment, tracer, builds: CallCounter) -> None:
        """One pass; each matrix is one step, the pass is one latency."""
        pass_s = 0.0
        reports: dict[tuple[str, str], object] = {}
        for name, A in self.mats.items():
            perf.clear_fast_caches()
            before = builds.calls
            done = []
            elapsed = 0.0
            seg.begin()
            for algo in ALGORITHMS:
                seg.attempted += 1
                try:
                    with Stopwatch(tracer, "bench.multiply") as sw:
                        r = repro.multiply(A, A, algorithm=algo,
                                           precision=self.precision,
                                           matrix_name=name)
                except Exception as e:   # a failed operation, not a crash
                    seg.fail(f"{algo} on {name}: {type(e).__name__}: {e}")
                    continue
                elapsed += sw.seconds
                done.append((algo, r))
            pass_s += elapsed / seg.end(len(done), elapsed)
            if builds.calls - before != 1:
                raise HygieneError(
                    f"paper-cold: {builds.calls - before} sort-recipe builds "
                    f"on {name}, expected exactly 1 per matrix")
            for algo, r in done:
                seg.check(r, A, A, self.precision, self.refs[name],
                          what=f"{algo} on {name}")
                reports[name, algo] = r.report
        seg.latencies.append(pass_s)
        if len(reports) != len(self.mats) * len(ALGORITHMS):
            return
        self._check_baseline(seg, reports)
        prop = [reports[n, "proposal"] for n in self.mats]
        base = [reports[n, "cusparse"] for n in self.mats]
        seg.modeled["modeled_gflops_geomean"].append(
            geomean(r.gflops for r in prop))
        seg.modeled["modeled_speedup_geomean"].append(
            geomean(p.gflops / b.gflops for p, b in zip(prop, base)))
        seg.modeled["modeled_mem_ratio"].append(
            geomean(p.peak_bytes / b.peak_bytes for p, b in zip(prop, base)))
        seg.modeled["modeled_us_per_mult"].append(
            1e6 * statistics.fmean(r.total_seconds for r in reports.values()))

    def _check_baseline(self, seg: Segment, reports: dict) -> None:
        if self.baseline is None:
            return
        for (name, algo), (gflops, total) in self.baseline.items():
            rep = reports.get((name, algo))
            if rep is None:
                continue
            if rep.gflops != gflops or rep.total_seconds != total:
                seg.fail(f"{algo} on {name}: modeled {rep.gflops!r} GFLOPS "
                         f"{rep.total_seconds!r} s differ from "
                         f"BENCH_BASELINE.json ({gflops!r}, {total!r})")


# -- iterative ----------------------------------------------------------------


class _RecordingEngine:
    """Forwards MCL's expansions to a real engine and keeps each operand
    pair and result, so the oracle can check them after the round."""

    def __init__(self) -> None:
        self.engine = SpGEMMEngine("proposal")
        self.calls: list[tuple[CSRMatrix, CSRMatrix, object]] = []

    def multiply(self, A, B, **kwargs):
        result = self.engine.multiply(A, B, **kwargs)
        self.calls.append((A, B, result))
        return result


class Iterative:
    """Closed loop, one caller holding one tuned, plan-cached runner.

    Each round multiplies fresh-value iterates of one banded pattern
    (E16's 1200 x 20 shape), then runs Markov clustering on a community
    graph whose pattern changes and then settles (fresh engine per run,
    as ``markov_cluster`` builds by default).
    """

    name = "iterative"
    precision = "double"
    ITERATES = 8          #: fixed-pattern iterates per round (E16)
    MCL_ITERS = 12        #: MCL expansions per round (E20's E16 suite)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        t0 = time.perf_counter()
        if self.seed == DEFAULT_SEED:   # E16's inputs exactly
            self.A = G.banded(1200, 20, rng=0)
            self.graph = G.block_dense(120, 12, rng=0)
            self.values = np.random.default_rng(7)
        else:
            self.A = G.banded(1200, 20, rng=stream(self.seed, "iter/banded"))
            self.graph = G.block_dense(120, 12,
                                       rng=stream(self.seed, "iter/mcl"))
            self.values = stream(self.seed, "iter/values")
        self.gen_s = time.perf_counter() - t0
        self.store = TuningStore()
        self.options = SpGEMMOptions(engine=True, tune=True,
                                     tune_store=self.store)
        self.runner = runner_for(self.options)
        # the tune search and the first cold plan capture
        self.first = self.runner.multiply(self.A, self.A,
                                          precision=self.options.precision,
                                          device=self.options.device)

    def prepare(self) -> None:
        first = Segment()
        first.check(self.first, self.A, self.A, self.precision,
                    what="first cold multiply")
        if first.failed:
            raise HygieneError("iterative: the warm-up multiply failed the oracle")
        self.engine = self.runner.inner          # the plan-cached engine
        self.cold = self.first.report

    def _iterates(self) -> list[CSRMatrix]:
        A = self.A
        return [CSRMatrix(A.rpt, A.col, A.val * self.values.uniform(0.5, 1.5),
                          A.shape, check=False)
                for _ in range(self.ITERATES)]

    def measure(self, seg: Segment, seconds: float, tracer=None) -> None:
        end = time.perf_counter() + seconds
        while True:
            self._round(seg, tracer)
            if time.perf_counter() >= end:
                break

    def _round(self, seg: Segment, tracer) -> None:
        mats = self._iterates()
        misses, tuned = self.engine.cache.stats.misses, len(self.store)
        elapsed, done, latencies = 0.0, [], []
        seg.begin()
        for M in mats:
            seg.attempted += 1
            try:
                with Stopwatch(tracer, "bench.iterate") as sw:
                    r = self.runner.multiply(M, M,
                                             precision=self.options.precision,
                                             device=self.options.device)
            except Exception as e:
                seg.fail(f"iterate: {type(e).__name__}: {e}")
                continue
            elapsed += sw.seconds
            latencies.append(sw.seconds)
            done.append((M, M, r))
        mcl = _RecordingEngine()
        try:
            with Stopwatch(tracer, "bench.mcl") as sw:
                repro.apps.markov_cluster(self.graph, max_iters=self.MCL_ITERS,
                                          engine=mcl)
            elapsed += sw.seconds
        except Exception as e:
            seg.fail(f"markov_cluster: {type(e).__name__}: {e}")
        seg.attempted += len(mcl.calls)
        done += mcl.calls
        seg.end(len(done), elapsed, latencies)

        # the counts that make this workload warm
        if self.engine.cache.stats.misses != misses:
            raise HygieneError("iterative: plan-cache miss on the seen "
                               "iterate pattern")
        if len(self.store) != tuned:
            raise HygieneError("iterative: tuning store grew, an iterate "
                               "re-ran the tune search")
        st = mcl.engine.cache.stats
        if st.misses != len(mcl.engine.cache) or st.evictions:
            raise HygieneError(
                f"iterative: MCL plan cache missed {st.misses} times for "
                f"{len(mcl.engine.cache)} distinct patterns")

        for A, B, r in done:
            seg.check(r, A, B, self.precision, what="iterative multiply")
        reports = [r.report for _, _, r in done]
        replay = [r.report for _, _, r in done[:len(mats)]]
        seg.modeled["modeled_us_per_mult"].append(
            1e6 * statistics.fmean(r.total_seconds for r in reports))
        seg.modeled["modeled_gflops_geomean"].append(
            geomean(r.gflops for r in reports))
        seg.modeled["modeled_speedup_geomean"].append(
            geomean(self.cold.total_seconds / r.total_seconds for r in replay))
        seg.modeled["modeled_mem_ratio"].append(
            geomean(r.peak_bytes / self.cold.peak_bytes for r in replay))


# -- serve --------------------------------------------------------------------

#: Requests per cycle of 50, by tenant class.  Sorted by typical latency
#: the classes fill 0-62% (solver), 62-74% (dup), 74-98% (graph) and
#: 98-100% (faulted), so neither p50 nor p90 sits on a class boundary.
MIX = (("solver", 31), ("dup", 6), ("graph", 12), ("faulted", 1))
CYCLE = sum(n for _, n in MIX)

#: E19's per-allocation failure rate.  Each faulted request injects at
#: most this many failures, so the resilience ladder always ends on a
#: fault-free rung and no request fails outright.
FAULT_RATE = 0.10
FAULT_CAP = 3

#: Share of the run's seconds given to the open-loop phase, and the
#: length of one open-loop chunk (the loop drains and calibrates between
#: chunks), in seconds.  The burst phase sends BURST_VOLUME times the
#: requests the offered rate would send in the rest of the run, so a
#: run's request count (and the server's retained memory) is fixed.
OPEN_SHARE = 0.75
CHUNK_S = 1.0
BURST_VOLUME = 2

#: Draws per solver generator shape: 3 shapes x 3 draws = 9 replayed
#: patterns, so the figures do not hinge on one random draw.
SOLVER_DRAWS = 3

#: Event kinds the wrapper layers (dist driver, plan-cache engine,
#: resilience ladder, tuner) build whether or not runs are observed.
#: Any other kind on a served result means a run context was observed.
WRAPPER_EVENT_KINDS = {OBS.CHARGE, OBS.COMM, OBS.DIST_PANEL, OBS.DEVICE_LOST,
                       OBS.RESILIENCE, OBS.CACHE_MISS, OBS.CACHE_EVICT,
                       OBS.TUNE_HIT, OBS.TUNE_MISS, OBS.TUNE_SEARCH,
                       OBS.TUNE_APPLY}


class _Request:
    __slots__ = ("tenant", "A", "index", "pattern", "faults")

    def __init__(self, tenant: str, A: CSRMatrix, index: int,
                 pattern: int = -1, faults: FaultPlan | None = None) -> None:
        self.tenant, self.A, self.index = tenant, A, index
        self.pattern, self.faults = pattern, faults


class Serve:
    """``SpGEMMServer`` on a 2-device pool, one worker, unobserved runs.

    The main thread generates load: an open loop at a fixed offered rate
    (each request timed from its due time), then back-to-back bursts of
    one request cycle that measure saturation throughput.
    """

    name = "serve"
    precision = "double"

    def __init__(self, seed: int, rate: float) -> None:
        self.seed, self.rate = seed, rate
        self._next_index = 0
        #: (operand, served report) of the open loop's graph requests
        self.graph_runs: list = []

    def setup(self) -> None:
        from repro.bench.runner import _storm_matrices

        t0 = time.perf_counter()
        shapes = {"banded": lambda r: G.banded(300, 8, rng=r),
                  "powerlaw": lambda r: G.power_law(260, 6, 40, rng=r),
                  "rmat": lambda r: G.rmat(8, 4, rng=r)}
        self.patterns = [build(stream(self.seed, f"serve/{name}/{d}"))
                         for d in range(SOLVER_DRAWS)
                         for name, build in shapes.items()]
        if self.seed == DEFAULT_SEED:   # E19's storm matrices exactly
            storm = _storm_matrices(self.precision)
            self.patterns[:len(shapes)] = [storm[k] for k in shapes]
        self.values = stream(self.seed, "serve/values")
        self.order = stream(self.seed, "serve/order")
        self.gen_s = time.perf_counter() - t0
        self.server = SpGEMMServer(options=SpGEMMOptions(devices=2),
                                   n_workers=1, observe_runs=False)
        # cold runs of the solver patterns (the plan captures), then one
        # cycle of every class: retry and resilience code paths warmed
        cold = [_Request("solver", self._fresh(k), -1, k)
                for k in range(len(self.patterns))]
        warm = [req for arrival in self._cycle() for req in arrival]
        self.warm = [(req, self.server.submit(req.A, req.A, tenant=req.tenant,
                                              faults=req.faults), 0.0)
                     for req in cold + warm]
        self.server.drain()

    def prepare(self) -> None:
        seg = Segment()
        self._verify(seg, self.warm)
        if seg.failed:
            raise HygieneError("serve: warm-up requests failed: "
                               + "; ".join(seg.errors))
        self.cold = [job.result().report for _, job, _ in
                     self.warm[:len(self.patterns)]]

    def close(self) -> None:
        self.server.shutdown()

    # -- inputs -------------------------------------------------------------

    def _fresh(self, k: int) -> CSRMatrix:
        P = self.patterns[k]
        return CSRMatrix(P.rpt, P.col,
                         P.val * self.values.uniform(0.5, 1.5, P.nnz),
                         P.shape, check=False)

    def _cycle(self) -> list[list[_Request]]:
        """One shuffled cycle of arrivals (a dup pair is one arrival)."""
        t0 = time.perf_counter()
        kinds = [k for k, n in MIX for _ in range(n // 2 if k == "dup" else n)]
        self.order.shuffle(kinds)
        arrivals = []
        for kind in kinds:
            i = self._next_index
            self._next_index += 1
            k = i % len(self.patterns)
            if kind == "graph":      # a never-seen pattern per request
                r = np.random.default_rng([self.seed, 0x6772, i])
                A = (G.power_law(260, 6, 40, rng=r) if i % 2
                     else G.rmat(8, 4, rng=r))
                arrivals.append([_Request(kind, A, i)])
            elif kind == "faulted":
                plan = FaultPlan(seed=self.seed * 1_000_003 + i)
                arrivals.append([_Request(
                    kind, self._fresh(k), i, k,
                    plan.random_alloc_failures(FAULT_RATE, times=FAULT_CAP))])
            elif kind == "dup":      # byte-identical twins, same instant
                A = self._fresh(k)
                arrivals.append([_Request(kind, A, i, k),
                                 _Request(kind, A, i, k)])
            else:
                arrivals.append([_Request(kind, self._fresh(k), i, k)])
        self.gen_s += time.perf_counter() - t0
        return arrivals

    # -- measurement ----------------------------------------------------------

    def measure(self, seg: Segment, seconds: float, tracer=None) -> None:
        n_open = max(CYCLE, round(self.rate * seconds * OPEN_SHARE))
        per_chunk = max(1, round(self.rate * CHUNK_S))
        chunk: list = []
        sent = 0
        while sent < n_open:
            for arrival in self._cycle():
                chunk.append(arrival)
                sent += len(arrival)
                if sum(map(len, chunk)) >= per_chunk or sent >= n_open:
                    self._open_chunk(seg, chunk)
                    chunk = []
                if sent >= n_open:
                    break
        bursts = BURST_VOLUME * self.rate * seconds * (1 - OPEN_SHARE) / CYCLE
        for _ in range(max(3, round(bursts))):
            self._burst(seg)

    def _open_chunk(self, seg: Segment, arrivals) -> None:
        """Offer ``arrivals`` at the fixed rate, timed from due times.

        The rate is in reference-speed requests per second: on a machine
        running ``f`` times slower the gaps stretch by ``f``, so the
        server sees the same utilization in every machine state."""
        gap = seg.begin() / self.rate
        sent = []
        start = time.monotonic() + 0.002
        k = 0
        for arrival in arrivals:
            due = start + k * gap
            k += len(arrival)
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            seg.serve["generator_late_s"].append(time.monotonic() - due)
            sent += [(req, self._submit(seg, req), due) for req in arrival]
        self.server.drain()
        ok = [(req, job, due) for req, job, due in sent
              if job is not None and job.exception() is None]
        f = seg.end(0, 0.0, [job.finished_at - due for _, job, due in ok])
        self._verify(seg, sent, factor=f)

    def _burst(self, seg: Segment) -> None:
        arrivals = self._cycle()
        seg.begin()
        t0 = time.monotonic()
        sent = [(req, self._submit(seg, req), t0)
                for arrival in arrivals for req in arrival]
        self.server.drain()
        jobs = [job for _, job, _ in sent if job is not None]
        finished = max((j.finished_at for j in jobs), default=t0)
        seg.end(len(jobs), finished - t0)
        self._verify(seg, sent)

    def _submit(self, seg: Segment, req: _Request):
        seg.attempted += 1
        try:
            return self.server.submit(req.A, req.A, tenant=req.tenant,
                                      matrix_name=f"{req.tenant}-{req.index}",
                                      faults=req.faults)
        except repro.ReproError as e:          # shed load is a failure here
            seg.fail(f"submit {req.tenant}: {type(e).__name__}: {e}")
            seg.serve["rejected"].append(1.0)
            return None

    def _verify(self, seg: Segment, sent, *, factor: float = 0.0) -> None:
        """Oracle and the unobserved-run invariant; for an open-loop chunk
        (its speed ``factor`` given) also the outcome counts, per-tenant
        latencies and modeled figures."""
        for req, job, due in sent:
            if job is None:
                continue
            if job.exception() is not None:
                seg.fail(f"{req.tenant} job {job.job_id}: "
                         f"{type(job.exception()).__name__}: {job.exception()}")
                continue
            result = job.result()
            kinds = {e.kind for e in result.report.events} - WRAPPER_EVENT_KINDS
            if kinds:
                raise HygieneError(f"serve: an unobserved run built "
                                   f"{sorted(kinds)} events")
            seg.check(result, req.A, req.A, self.precision,
                      what=f"{req.tenant} job {job.job_id}")
            if not factor:
                continue
            seg.serve["latency_s." + req.tenant].append(
                (job.finished_at - due) / factor)
            seg.serve["queue_wait_s"].append(job.queue_wait_s / factor)
            seg.serve["exec_s"].append(
                (job.finished_at - job.dispatched_at) / factor)
            seg.serve["retries"].append(max(0, job.attempts - 1))
            seg.serve["degraded"].append(float(job.degraded))
            seg.serve["coalesced"].append(float(job.coalesced_with is not None))
            rep = result.report
            seg.serve["modeled_s"].append(rep.total_seconds)
            if req.tenant == "graph":
                self.graph_runs.append((req.A, rep))
            elif req.tenant == "solver":
                cold = self.cold[req.pattern]
                seg.serve["mem_ratio"].append(rep.peak_bytes / cold.peak_bytes)

    def summarize(self, seg: Segment) -> None:
        """The open loop's modeled figures, after :meth:`measure` (and
        outside any tracer).  GFLOPS and the speedup average over the
        graph tenant's hundreds of random patterns: the speedup is a
        cold single-device proposal run of the same product over the
        served 2-device run, computed here off the clock."""
        s, runs = seg.serve, self.graph_runs
        if not s["modeled_s"] or not runs:
            return
        seg.modeled["modeled_us_per_mult"].append(
            1e6 * statistics.fmean(s["modeled_s"]))
        seg.modeled["modeled_gflops_geomean"].append(
            geomean(rep.gflops for _, rep in runs))
        seg.modeled["modeled_speedup_geomean"].append(geomean(
            repro.multiply(A, A, precision=self.precision).report.total_seconds
            / rep.total_seconds for A, rep in runs))
        seg.modeled["modeled_mem_ratio"].append(geomean(s["mem_ratio"]))
        self.graph_runs = []


def make(name: str, seed: int, *, serve_rate: float | None = None):
    """The workload called ``name`` (``paper-cold``, ``iterative`` or
    ``serve``) for ``seed``."""
    if name == "paper-cold":
        return PaperCold(seed)
    if name == "iterative":
        return Iterative(seed)
    if name == "serve":
        if serve_rate is None:
            raise ValueError("the serve workload needs --serve-rate")
        return Serve(seed, serve_rate)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("paper-cold", "iterative", "serve")
