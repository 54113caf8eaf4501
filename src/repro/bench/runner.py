"""Run algorithms over datasets and render the paper's tables and series.

The FLOPS metric follows Section IV: performance = 2 x (intermediate
products) / execution time, where time is the simulated device time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.baselines.registry import DISPLAY_ORDER
from repro.bench.datasets import Dataset, get_dataset
from repro.errors import DeviceMemoryError, HashTableError
from repro.gpu.device import P100, DeviceSpec
from repro.gpu.timeline import PHASES, SimReport

if TYPE_CHECKING:  # pragma: no cover - avoid the registry import cycle
    from repro.core.resilient import ResilienceReport
    from repro.gpu.faults import FaultPlan


@dataclass
class BenchRun:
    """One (dataset, algorithm, precision) result.

    ``report`` is None when the run aborted with a simulated out-of-memory
    error (rendered as "-", as in the paper's Table III).  ``resilience``
    is set for resilient runs; a run that only succeeded by degrading is
    marked with ``*`` in the tables.
    """

    dataset: str
    algorithm: str
    precision: str
    report: SimReport | None
    oom: bool = False
    resilience: "ResilienceReport | None" = None

    @property
    def gflops(self) -> float:
        """Simulated GFLOPS (0 when OOM)."""
        return self.report.gflops if self.report else 0.0

    @property
    def recovered(self) -> bool:
        """True when the run only succeeded through the resilience ladder."""
        return bool(self.resilience and self.resilience.recovered)


def run_one(dataset: Dataset, algorithm: str, precision: str,
            device: DeviceSpec = P100, faults: "FaultPlan | None" = None,
            *, repeat: int = 1, **option_fields) -> BenchRun:
    """Run one algorithm on one dataset, catching simulated OOM.

    ``option_fields`` are :class:`~repro.options.SpGEMMOptions` fields
    around the leaf ``algorithm`` (``engine=True``, ``memory_budget=``,
    ...), compiled by :func:`~repro.options.runner_for`.  ``repeat``
    re-runs the same multiply (the iterative-workload shape); the
    returned run carries the *last* report, so with ``engine=True`` it
    reflects the plan-cache steady state -- the amortized numbers E16
    reports.  The default (no engine, one run) is the cold,
    deterministic configuration the regression gate pins.
    """
    from repro.options import SpGEMMOptions, runner_for

    A = dataset.matrix()
    algo = runner_for(SpGEMMOptions(algorithm=algorithm, **option_fields))
    try:
        for _ in range(max(1, repeat)):
            result = algo.multiply(A, A, precision=precision, device=device,
                                   matrix_name=dataset.name, faults=faults)
    except (DeviceMemoryError, HashTableError):
        return BenchRun(dataset.name, algorithm, precision, None, oom=True)
    return BenchRun(dataset.name, algorithm, precision, result.report,
                    resilience=result.resilience)


def run_suite(dataset_names: list[str], algorithms: tuple[str, ...] = DISPLAY_ORDER,
              precisions: tuple[str, ...] = ("single",),
              device: DeviceSpec = P100, *, repeat: int = 1,
              engine: bool = False) -> list[BenchRun]:
    """Cartesian run over datasets x algorithms x precisions.

    ``engine=True`` gives every (dataset, algorithm, precision) cell its
    own plan-cached engine, so with ``repeat > 1`` the reported numbers
    are the cache-hit steady state rather than the cold first run.
    """
    runs = []
    for name in dataset_names:
        ds = get_dataset(name)
        for precision in precisions:
            for algorithm in algorithms:
                runs.append(run_one(ds, algorithm, precision, device,
                                    repeat=repeat, engine=engine))
    return runs


# ---------------------------------------------------------------------------
# distributed strong scaling (E17)
# ---------------------------------------------------------------------------

@dataclass
class DistScalingRun:
    """One (dataset, device count) cell of the E17 strong-scaling sweep.

    ``cold`` is the first multiply (empty plan caches, B not resident);
    ``steady`` the last of ``repeat`` runs, where the per-device plan
    caches replay numeric-only and the broadcast cache holds B.
    """

    dataset: str
    interconnect: str
    n_devices: int
    cold: SimReport
    steady: SimReport

    @property
    def steady_comm_seconds(self) -> float:
        """Interconnect wall time of the steady-state run."""
        return self.steady.phase_seconds.get("comm", 0.0)


def run_dist_scaling(dataset_names: list[str],
                     device_counts: tuple[int, ...] = (1, 2, 4, 8),
                     interconnect: str = "nvlink",
                     precision: str = "single",
                     device: DeviceSpec = P100, *, repeat: int = 3,
                     algorithm: str = "proposal") -> list[DistScalingRun]:
    """Strong-scaling sweep: same problem, growing device pool.

    Every (dataset, count) cell gets a fresh pool, multiplied ``repeat``
    times so the steady state reflects both cache layers.
    """
    from repro.options import SpGEMMOptions, runner_for

    runs = []
    for name in dataset_names:
        A = get_dataset(name).matrix()
        for n in device_counts:
            dist = runner_for(SpGEMMOptions(algorithm=algorithm, devices=n,
                                            interconnect=interconnect))
            reports = [dist.multiply(A, A, precision=precision,
                                     device=device,
                                     matrix_name=name).report
                       for _ in range(max(2, repeat))]
            runs.append(DistScalingRun(
                dataset=name, interconnect=interconnect, n_devices=n,
                cold=reports[0], steady=reports[-1]))
    return runs


@dataclass
class ServeStormRun:
    """One deterministic OOM storm through the serving layer (E19).

    Each job draws its failures from its own seeded
    :class:`~repro.gpu.faults.FaultPlan` (``seed * 1000 + i``), so the
    storm is independent of worker interleaving and the served and naive
    legs face the identical fault sequence -- the counts are exactly
    reproducible, which is what the regression gate (schema 4) pins.
    """

    seed: int
    oom_rate: float
    n_jobs: int
    submitted: int
    completed: int
    failed: int
    rejected: int
    timed_out: int
    retries: int
    degraded: int
    naive_completed: int       #: one bare try per job, no retries
    p50_modeled_s: float       #: over completed jobs' modeled device time
    p99_modeled_s: float
    bit_identical: bool        #: every completed job matched its reference

    @property
    def goodput(self) -> float:
        """Fraction of submitted jobs that completed."""
        return self.completed / self.submitted if self.submitted else 0.0


def _storm_matrices(precision: str) -> dict:
    from repro.sparse import generators as G

    return {"banded": G.banded(300, 8, rng=11, precision=precision),
            "powerlaw": G.power_law(260, 6, 40, rng=12, precision=precision),
            "rmat": G.rmat(8, 4, rng=13, precision=precision)}


def run_serve_storm(seed: int, oom_rate: float, *, n_jobs: int = 18,
                    devices: int | tuple | None = 4,
                    precision: str = "double") -> ServeStormRun:
    """Drive one seeded OOM storm through :class:`repro.serve.SpGEMMServer`.

    A single worker, zero backoff sleep and per-job fault plans make the
    whole run deterministic.  The naive leg submits the same jobs
    sequentially with one bare :func:`repro.multiply` attempt each --
    the comparison E19 reports.
    """
    import numpy as np

    from repro import multiply
    from repro.errors import ReproError
    from repro.gpu.faults import FaultPlan
    from repro.options import SpGEMMOptions
    from repro.serve import (BreakerPolicy, RetryPolicy, ServePolicy,
                             SpGEMMServer)

    mats = _storm_matrices(precision)
    names = sorted(mats)
    options = SpGEMMOptions().evolve(devices=devices, precision=precision)
    refs = {n: multiply(m, m, options=options) for n, m in mats.items()}

    def job_faults(i: int) -> FaultPlan | None:
        if oom_rate <= 0.0:
            return None
        return FaultPlan(seed=seed * 1000 + i).random_alloc_failures(oom_rate)

    # naive sequential leg: one attempt per job, first fault kills it
    naive_completed = 0
    for i in range(n_jobs):
        try:
            multiply(mats[names[i % len(names)]], mats[names[i % len(names)]],
                     options=options, faults=job_faults(i))
            naive_completed += 1
        except ReproError:
            pass

    policy = ServePolicy(
        max_queue_depth=n_jobs + 4,
        retry=RetryPolicy(max_retries=2, backoff_base_s=0.0),
        breaker=BreakerPolicy(failure_threshold=10 ** 6))
    srv = SpGEMMServer(options=options, n_workers=1, policy=policy,
                       sleep=lambda s: None)
    jobs = []
    try:
        for i in range(n_jobs):
            name = names[i % len(names)]
            jobs.append((name, srv.submit(mats[name], mats[name],
                                          tenant=f"t{i % 3}",
                                          matrix_name=name,
                                          faults=job_faults(i))))
        if not srv.drain(timeout=600.0):
            raise RuntimeError("serve storm did not drain")
    finally:
        srv.shutdown()

    identical = True
    for name, j in jobs:
        if j.exception() is None:
            got, ref = j.result().matrix, refs[name].matrix
            identical &= (np.array_equal(got.rpt, ref.rpt)
                          and np.array_equal(got.col, ref.col)
                          and np.array_equal(got.val, ref.val))

    reg = srv.metrics()
    lat = reg._families.get("serve_job_modeled_seconds")
    return ServeStormRun(
        seed=seed, oom_rate=oom_rate, n_jobs=n_jobs,
        submitted=int(reg.value("serve_jobs_total", outcome="submitted")),
        completed=int(reg.value("serve_jobs_total", outcome="completed")),
        failed=int(reg.value("serve_jobs_total", outcome="failed")),
        rejected=int(reg.value("serve_jobs_total", outcome="rejected")),
        timed_out=int(reg.value("serve_jobs_total", outcome="timed_out")),
        retries=int(reg.total("serve_retries_total")),
        degraded=int(reg.total("serve_degraded_total")),
        naive_completed=naive_completed,
        p50_modeled_s=lat.quantile(0.5) if lat is not None else 0.0,
        p99_modeled_s=lat.quantile(0.99) if lat is not None else 0.0,
        bit_identical=identical)


def serve_storm_table(runs: list["ServeStormRun"]) -> str:
    """E19 table: goodput served vs naive, retries and modeled latency."""
    lines = [f"{'OOM rate':>9}{'jobs':>6}{'naive ok':>10}{'served ok':>11}"
             f"{'retries':>9}{'degraded':>10}{'p50 us':>9}{'p99 us':>9}"]
    for r in runs:
        lines.append(
            f"{r.oom_rate:>9.2f}{r.n_jobs:>6}{r.naive_completed:>10}"
            f"{r.completed:>11}{r.retries:>9}{r.degraded:>10}"
            f"{r.p50_modeled_s * 1e6:>9.1f}{r.p99_modeled_s * 1e6:>9.1f}")
    return "\n".join(lines)


def dist_scaling_table(runs: list[DistScalingRun]) -> str:
    """E17 table: per-dataset times, comm share and T(1)/T(N) speedups."""
    datasets = list(dict.fromkeys(r.dataset for r in runs))
    by_key = {(r.dataset, r.n_devices): r for r in runs}
    counts = sorted({r.n_devices for r in runs})
    lines = [f"{'Matrix':<16}{'devs':>6}{'cold us':>10}{'x':>7}"
             f"{'steady us':>11}{'x':>7}{'comm us':>9}{'comm %':>8}"]
    for d in datasets:
        base = by_key.get((d, counts[0]))
        for n in counts:
            r = by_key.get((d, n))
            if r is None or base is None:
                continue
            cold_x = base.cold.total_seconds / r.cold.total_seconds
            steady_x = base.steady.total_seconds / r.steady.total_seconds
            comm = r.steady_comm_seconds
            share = 100.0 * comm / r.steady.total_seconds \
                if r.steady.total_seconds else 0.0
            lines.append(
                f"{d:<16}{n:>6}{r.cold.total_seconds * 1e6:>10.1f}"
                f"{cold_x:>7.2f}{r.steady.total_seconds * 1e6:>11.1f}"
                f"{steady_x:>7.2f}{comm * 1e6:>9.1f}{share:>8.1f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

def gflops_table(runs: list[BenchRun],
                 algorithms: tuple[str, ...] = DISPLAY_ORDER) -> str:
    """Figure 2/3 as a table: rows = matrices, columns = algorithms.

    Runs that only succeeded through the resilience ladder are marked
    with ``*`` (degraded execution, not a comparable plain run).
    """
    datasets = list(dict.fromkeys(r.dataset for r in runs))
    by_key = {(r.dataset, r.algorithm): r for r in runs}
    head = f"{'Matrix':<18}" + "".join(f"{a:>12}" for a in algorithms)
    head += f"{'speedup':>10}"
    lines = [head]
    for d in datasets:
        cells = []
        best_base = 0.0
        ours = 0.0
        for a in algorithms:
            r = by_key.get((d, a))
            if r is None or r.oom:
                cells.append(f"{'-':>12}")
                continue
            cell = f"{r.gflops:.3f}" + ("*" if r.recovered else "")
            cells.append(f"{cell:>12}")
            if a == "proposal":
                ours = r.gflops
            else:
                best_base = max(best_base, r.gflops)
        sp = f"x{ours / best_base:.2f}" if best_base > 0 and ours > 0 else "-"
        lines.append(f"{d:<18}" + "".join(cells) + f"{sp:>10}")
    return "\n".join(lines)


def speedup_stats(runs: list[BenchRun]) -> dict[str, tuple[float, float]]:
    """Per-baseline (max, geometric-mean) speedup of the proposal.

    The paper reports "x32.3, x8.1 and x4.3 on maximum ... and x15.7, x3.2
    and x2.3 on average" (single precision) vs CUSP, cuSPARSE, BHSPARSE.
    """
    datasets = list(dict.fromkeys(r.dataset for r in runs))
    by_key = {(r.dataset, r.algorithm): r for r in runs}
    out: dict[str, tuple[float, float]] = {}
    for base in ("cusp", "cusparse", "bhsparse"):
        ratios = []
        for d in datasets:
            ours = by_key.get((d, "proposal"))
            theirs = by_key.get((d, base))
            if ours and theirs and not ours.oom and not theirs.oom \
                    and theirs.gflops > 0:
                ratios.append(ours.gflops / theirs.gflops)
        if ratios:
            logmean = 1.0
            for r in ratios:
                logmean *= r
            out[base] = (max(ratios), logmean ** (1.0 / len(ratios)))
    return out


def memory_ratio_table(runs: list[BenchRun],
                       algorithms: tuple[str, ...] = DISPLAY_ORDER) -> str:
    """Figure 4 (on the scaled instances): peak memory relative to cuSPARSE."""
    datasets = list(dict.fromkeys(r.dataset for r in runs))
    by_key = {(r.dataset, r.algorithm): r for r in runs}
    head = f"{'Matrix':<18}" + "".join(f"{a:>12}" for a in algorithms)
    lines = [head]
    for d in datasets:
        base = by_key.get((d, "cusparse"))
        base_peak = base.report.peak_bytes if base and base.report else 0
        cells = []
        for a in algorithms:
            r = by_key.get((d, a))
            if r is None or r.oom or base_peak == 0:
                cells.append(f"{'-':>12}")
            else:
                cells.append(f"{r.report.peak_bytes / base_peak:>12.3f}")
        lines.append(f"{d:<18}" + "".join(cells))
    return "\n".join(lines)


def metrics_phase_table(runs: list[BenchRun],
                        algorithms: tuple[str, ...] = DISPLAY_ORDER) -> str:
    """Figure 5 phase breakdown read back *from the metrics registry*.

    Unlike :func:`breakdown_table` (which reads ``report.phase_seconds``
    directly), every number here is the ``phase_seconds`` counter of the
    run's exported :class:`~repro.obs.metrics.MetricsRegistry` -- the same
    path the Chrome-trace export and the golden summaries use, so this
    table doubles as an end-to-end check that the observability layer
    carries the full timing signal.
    """
    datasets = list(dict.fromkeys(r.dataset for r in runs))
    by_key = {(r.dataset, r.algorithm): r for r in runs}
    head = (f"{'Matrix':<18}{'alg':>10}"
            + "".join(f"{p:>11}" for p in PHASES) + f"{'total':>11}")
    lines = [head, "(all values in simulated us, from metric "
                   "phase_seconds{phase=...})"]
    for d in datasets:
        for a in algorithms:
            r = by_key.get((d, a))
            if r is None or r.report is None:
                continue
            m = r.report.metrics()
            secs = [m.value("phase_seconds", phase=p) or 0.0 for p in PHASES]
            lines.append(f"{d:<18}{a:>10}"
                         + "".join(f"{s * 1e6:>11.1f}" for s in secs)
                         + f"{sum(secs) * 1e6:>11.1f}")
    return "\n".join(lines)


def breakdown_table(runs: list[BenchRun]) -> str:
    """Figures 5/6: per-phase time, normalized to cuSPARSE's total (= 1).

    Shows setup / count / calc / malloc shares for cuSPARSE and the
    proposal side by side, per matrix.
    """
    datasets = list(dict.fromkeys(r.dataset for r in runs))
    by_key = {(r.dataset, r.algorithm): r for r in runs}
    head = (f"{'Matrix':<18}{'alg':>10}" + "".join(f"{p:>9}" for p in PHASES)
            + f"{'total':>9}")
    lines = [head]
    for d in datasets:
        base = by_key.get((d, "cusparse"))
        if base is None or base.report is None:
            continue
        norm = base.report.total_seconds
        for a in ("cusparse", "proposal"):
            r = by_key.get((d, a))
            if r is None or r.report is None:
                continue
            shares = [r.report.phase_seconds.get(p, 0.0) / norm for p in PHASES]
            total = r.report.total_seconds / norm
            lines.append(f"{d:<18}{a:>10}"
                         + "".join(f"{s:>9.3f}" for s in shares)
                         + f"{total:>9.3f}")
    return "\n".join(lines)
