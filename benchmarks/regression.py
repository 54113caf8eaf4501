"""CI bench-regression gate: pinned subset, JSON snapshots, exact check.

The pinned subset is two generated dataset analogues -- Protein (a
high-throughput FEM pattern) and Circuit (a low-throughput one) -- run
single-precision over the paper's four algorithms (the Figure 2 slice),
plus the E15-style per-phase breakdown for cuSPARSE and the proposal,
plus the E17 distributed slice (steady-state 4-device NVLink totals with
the interconnect wall broken out as phase ``comm``), plus the E18 tune
slice (K40 autotuned vs default Table I parameters on three corpus
matrices), plus the E19 serve slice (the pinned chaos storm through
``SpGEMMServer``: per-job seeded fault plans make its completed-job and
retry counts deterministic), plus the E20 wall-clock slice (median-of-5
*real* seconds of the E16/E17 iterative suites from
:mod:`repro.bench.wallclock`), plus the E21 cross-backend slice (the
same datasets through every CPU preset's native algorithms, and the
GPU-vs-CPU crossover tally), plus the E22 tile slice (the structured
workloads through the tile and hash pipelines with the per-class win
tally and the sketch-based selector's agreement count), plus the E23
estimate slice (the pinned datasets cold-run with
``symbolic='estimate'`` vs exact, and the recovered/within-bound row
counts of a forced bound-violation run).

Everything but the E20 slice is *modeled* output, a deterministic
function of the code, so ``check`` proves modeled identity: every such
field must equal the baseline's in both directions -- floats to
``MODELED_RTOL`` (round-off) relative, everything else (counts, names,
OOM flags, the keys of nested dicts) exactly.  A change to modeled
output therefore fails until the baseline is refreshed with ``write`` on
purpose.  Real seconds vary by runner, so they are only fenced: the E20
medians at ``1 + WALLCLOCK_TOLERANCE`` (1.5x) the baseline and the
whole run at ``WALL_TOLERANCE`` (3x).  The E18 slice also holds on its
own that tuned is never slower than default.

Usage::

    PYTHONPATH=src python benchmarks/regression.py write BENCH_PR.json
    PYTHONPATH=src python benchmarks/regression.py check \
        BENCH_BASELINE.json BENCH_PR.json
    PYTHONPATH=src python benchmarks/regression.py profile profile.txt

``check`` exits 1 on any modeled difference, when the run set changed,
or when a wall-clock fence trips.
"""

from __future__ import annotations

import json
import math
import sys
import time

#: Modeled quantities are deterministic: anything past round-off is real.
MODELED_RTOL = 1e-9
#: The E20 slice's real-seconds fields, the only per-run fields that are
#: not modeled output.
WALLCLOCK_FIELDS = ("wall_seconds_median", "wall_runs")
#: Wall clock varies wildly across CI runners; only a blow-up fails.
WALL_TOLERANCE = 3.0
#: The E20 real-seconds slice: loose enough for runner variance, far
#: tighter than the 2-5x a de-vectorized hot path costs (fence = 1.5x).
WALLCLOCK_TOLERANCE = 0.5
WALLCLOCK_REPEATS = 5

#: The pinned subset: one high- and one low-throughput analogue.
DATASETS = ("Protein", "Circuit")
PRECISION = "single"
SCHEMA = 8

#: The cross-backend slice (E21): the same datasets through every CPU
#: preset, plus the architecture-crossover tally (which architecture's
#: flagship wins each dataset -- exact, the modeled numbers are
#: deterministic).
CPU_DEVICES = ("KNL64", "XEON24")

#: The distributed slice (E17): steady-state pool sizes to pin per dataset.
DIST_DEVICES = 4
DIST_INTERCONNECT = "nvlink"

#: The tune slice (E18): a non-P100 preset where the Table I defaults are
#: known-suboptimal, over matrices where the search finds a strict win.
TUNE_DEVICE = "K40"
TUNE_DATASETS = ("Protein", "Circuit", "Economics")

#: The E23 slice: cold-run estimated vs exact symbolic phase.  Two
#: uniform-row classes where estimation is known to pay off, plus the
#: power-law control where it is known to lose (sample-kernel cost).
ESTIMATE_DATASETS = ("Protein", "Economics", "Epidemiology", "Circuit")
ESTIMATE_FORCE = {"estimate_samples": 1, "estimate_margin": 0.0}

#: The serve slice (E19): one pinned chaos storm through the server
#: (deterministic per-job fault plans, one worker).
SERVE_SEED = 42
SERVE_OOM_RATE = 0.10
SERVE_N_JOBS = 18


def collect() -> dict:
    """Run the pinned subset and snapshot every modeled figure."""
    from repro.baselines.registry import DISPLAY_ORDER
    from repro.bench.runner import run_dist_scaling, run_suite
    from repro.gpu.timeline import PHASES

    t0 = time.perf_counter()
    runs = run_suite(list(DATASETS), algorithms=DISPLAY_ORDER,
                     precisions=(PRECISION,))

    out = []
    for r in runs:
        if r.report is None:
            out.append({"dataset": r.dataset, "algorithm": r.algorithm,
                        "oom": True})
            continue
        rec = {"dataset": r.dataset, "algorithm": r.algorithm,
               "gflops": r.gflops,
               "total_seconds": r.report.total_seconds}
        if r.algorithm in ("cusparse", "proposal"):
            # the E15 breakdown slice: per-phase seconds off the metrics
            m = r.report.metrics()
            rec["phase_seconds"] = {
                p: m.value("phase_seconds", phase=p) for p in PHASES}
        out.append(rec)

    # the E17 slice: steady-state distributed totals with comm broken out
    dist_runs = run_dist_scaling(list(DATASETS), (DIST_DEVICES,),
                                 interconnect=DIST_INTERCONNECT,
                                 precision=PRECISION)
    for d in dist_runs:
        out.append({"dataset": d.dataset,
                    "algorithm": f"dist{d.n_devices}-{d.interconnect}",
                    "gflops": d.steady.gflops,
                    "total_seconds": d.steady.total_seconds,
                    "phase_seconds": {
                        "comm": d.steady_comm_seconds},
                    "cold_seconds": d.cold.total_seconds})

    # the E18 slice: autotuned vs default Table I parameters
    from repro.bench.datasets import get_dataset
    from repro.gpu.device import DEVICE_PRESETS
    from repro.tune import Autotuner

    dev = DEVICE_PRESETS[TUNE_DEVICE]
    for name in TUNE_DATASETS:
        A = get_dataset(name).matrix()
        res = Autotuner(dev, PRECISION).tune(A, A, matrix_name=name)
        out.append({"dataset": name,
                    "algorithm": f"tune-{TUNE_DEVICE}",
                    "total_seconds": res.tuned_seconds,
                    "default_seconds": res.default_seconds,
                    "tune_speedup": res.speedup,
                    "overrides": res.overrides.describe()})

    # the E21 slice (schema 6): the same datasets through the CPU
    # backend's presets and algorithms, plus the crossover tally
    from repro.baselines.registry import CPU_DISPLAY_ORDER
    from repro.cpu import CPU_PRESETS

    gpu_seconds = {r.dataset: r.report.total_seconds for r in runs
                   if r.report is not None and r.algorithm == "proposal"}
    cpu_best: dict = {}
    for preset in CPU_DEVICES:
        cpu_runs = run_suite(list(DATASETS), algorithms=CPU_DISPLAY_ORDER,
                             precisions=(PRECISION,),
                             device=CPU_PRESETS[preset])
        for r in cpu_runs:
            if r.report is None:
                out.append({"dataset": r.dataset,
                            "algorithm": f"{r.algorithm}@{preset}",
                            "oom": True})
                continue
            out.append({"dataset": r.dataset,
                        "algorithm": f"{r.algorithm}@{preset}",
                        "gflops": r.gflops,
                        "total_seconds": r.report.total_seconds})
            if r.algorithm == "hash-cpu":
                prev = cpu_best.get(r.dataset)
                now = r.report.total_seconds
                cpu_best[r.dataset] = now if prev is None else min(prev, now)
    gpu_wins = sum(1 for d in DATASETS
                   if d in gpu_seconds and d in cpu_best
                   and gpu_seconds[d] < cpu_best[d])
    out.append({"dataset": "cross-arch", "algorithm": "crossover",
                "total_seconds": sum(cpu_best.values()),
                "gpu_wins": gpu_wins,
                "cpu_wins": len(cpu_best) - gpu_wins})

    # the E22 slice (schema 7): the structured workloads through the
    # tile and hash pipelines, with the exact crossover tally and the
    # sketch selector's agreement count
    from repro.baselines.registry import create as create_algorithm
    from repro.bench.datasets import WORKLOADS
    from repro.gpu.device import DEVICE_PRESETS as _PRESETS
    from repro.tile import TileSpGEMM
    from repro.tile.plan import select_algorithm

    p100 = _PRESETS["P100"]
    tile_wins = hash_wins = selector_correct = 0
    for wname in sorted(WORKLOADS):
        w = WORKLOADS[wname]
        A, B = w.matrices()
        t = TileSpGEMM().multiply(A, B, precision=PRECISION,
                                  matrix_name=wname)
        h = create_algorithm("proposal").multiply(
            A, B, precision=PRECISION, matrix_name=wname)
        pick, _, _ = select_algorithm(A, B, p100, PRECISION)
        winner = ("tile" if t.report.total_seconds < h.report.total_seconds
                  else "proposal")
        if winner == "tile":
            tile_wins += 1
        else:
            hash_wins += 1
        selector_correct += int(pick == winner)
        out.append({"dataset": wname, "algorithm": "tile",
                    "gflops": 0.0 if not t.report.total_seconds else
                    2.0 * t.report.n_products / t.report.total_seconds / 1e9,
                    "total_seconds": t.report.total_seconds})
        out.append({"dataset": wname, "algorithm": "proposal-workload",
                    "total_seconds": h.report.total_seconds})
        w.drop()
    out.append({"dataset": "E22", "algorithm": "crossover",
                "tile_wins": tile_wins, "hash_wins": hash_wins,
                "selector_correct": selector_correct})

    # the E23 slice (schema 8): cold-run estimated vs exact symbolic
    # phase, plus the forced-recovery row counts (exact integers)
    from repro.obs.metrics import (check_estimate_conservation,
                                   metrics_from_report)
    from repro.options import multiply as facade_multiply

    estimate_saved = 0
    for name in ESTIMATE_DATASETS:
        A = get_dataset(name).matrix()
        exact = facade_multiply(A, A, precision=PRECISION,
                                matrix_name=name)
        est = facade_multiply(A, A, precision=PRECISION, matrix_name=name,
                              symbolic="estimate")
        forced = facade_multiply(A, A, precision=PRECISION,
                                 matrix_name=name, symbolic="estimate",
                                 algo_options=dict(ESTIMATE_FORCE))
        for r in (est, forced):
            assert (r.matrix.rpt == exact.matrix.rpt).all(), name
            assert (r.matrix.col == exact.matrix.col).all(), name
            assert (r.matrix.val == exact.matrix.val).all(), name
        m = metrics_from_report(forced.report)
        check_estimate_conservation(m)
        ex_sym = (exact.report.phase_seconds["setup"]
                  + exact.report.phase_seconds["count"])
        es_sym = (est.report.phase_seconds["setup"]
                  + est.report.phase_seconds["count"])
        estimate_saved += int(es_sym < ex_sym)
        out.append({"dataset": name, "algorithm": "estimate",
                    "total_seconds": est.report.total_seconds,
                    "symbolic_seconds": es_sym,
                    "exact_symbolic_seconds": ex_sym,
                    "estimate_recovered_rows": int(
                        m.total("estimate_rows_total", status="recovered")),
                    "estimate_within_rows": int(
                        m.total("estimate_rows_total",
                                status="within_bound"))})
    out.append({"dataset": "E23", "algorithm": "estimate-savings",
                "estimate_saved_matrices": estimate_saved})

    # the E19 slice: the pinned chaos storm through the serving layer
    from repro.bench.runner import run_serve_storm

    storm = run_serve_storm(SERVE_SEED, SERVE_OOM_RATE, n_jobs=SERVE_N_JOBS)
    assert storm.bit_identical, "served results diverged from reference"
    assert storm.submitted == storm.completed + storm.rejected \
        + storm.timed_out + storm.failed, "serve conservation violated"
    out.append({"dataset": f"storm-{SERVE_SEED}@{SERVE_OOM_RATE}",
                "algorithm": "serve",
                "total_seconds": storm.p99_modeled_s,
                "serve_completed": storm.completed,
                "serve_retries": storm.retries,
                "serve_degraded": storm.degraded,
                "serve_naive_completed": storm.naive_completed})

    # the E20 slice: real seconds of the iterative suites (schema 5)
    from repro.bench.wallclock import run_wallclock_suite

    for name, stat in sorted(run_wallclock_suite(
            repeats=WALLCLOCK_REPEATS).items()):
        out.append({"dataset": name, "algorithm": "wallclock",
                    "wall_seconds_median": stat.median_seconds,
                    "wall_runs": list(stat.runs)})
    wall = time.perf_counter() - t0
    return {"schema": SCHEMA, "precision": PRECISION,
            "datasets": list(DATASETS), "wall_seconds": wall, "runs": out}


def _key(rec: dict) -> tuple:
    return (rec["dataset"], rec["algorithm"])


def _mismatches(path: str, b, c) -> list[str]:
    """Where modeled value ``c`` departs from baseline value ``b``.

    Floats may differ by round-off (``MODELED_RTOL`` relative); dicts
    must have the same keys and matching values; anything else must be
    equal and of the same type.
    """
    if isinstance(b, dict) and isinstance(c, dict):
        if set(b) != set(c):
            return [f"{path}: fields changed: missing "
                    f"{sorted(set(b) - set(c))}, new {sorted(set(c) - set(b))}"]
        return [m for k in sorted(b)
                for m in _mismatches(f"{path}/{k}", b[k], c[k])]
    if type(b) is float and type(c) is float:
        if math.isclose(b, c, rel_tol=MODELED_RTOL, abs_tol=0.0):
            return []
    elif type(b) is type(c) and b == c:
        return []
    return [f"{path}: {b!r} -> {c!r}"]


def compare(baseline: dict, current: dict) -> list[str]:
    """All regression messages (empty = gate passes)."""
    problems: list[str] = []
    if baseline.get("schema") != current.get("schema"):
        problems.append(
            f"schema changed {baseline.get('schema')} -> "
            f"{current.get('schema')}; refresh the baseline")
        return problems

    base = {_key(r): r for r in baseline["runs"]}
    cur = {_key(r): r for r in current["runs"]}
    if set(base) != set(cur):
        problems.append(f"run set changed: missing {sorted(set(base) - set(cur))}, "
                        f"new {sorted(set(cur) - set(base))}")
        return problems

    for key in sorted(base):
        b, c = base[key], cur[key]
        where = f"{key[0]}/{key[1]}"
        if ("wall_seconds_median" in b
                and c.get("wall_seconds_median", 0.0)
                > b["wall_seconds_median"] * (1.0 + WALLCLOCK_TOLERANCE)):
            # the E20 slice: real seconds, fenced at the looser tolerance
            problems.append(
                f"{where}: wall clock regressed "
                f"{b['wall_seconds_median']:.3f}s -> "
                f"{c['wall_seconds_median']:.3f}s "
                f"(>{1.0 + WALLCLOCK_TOLERANCE:.1f}x; profile with "
                f"'python benchmarks/regression.py profile <file>')")
        if ("default_seconds" in c
                and c["total_seconds"]
                > c["default_seconds"] * (1.0 + MODELED_RTOL)):
            # the tune slice's hard invariant: the search falls back to
            # the defaults, so tuned can never be slower than default
            problems.append(
                f"{where}: tuned total "
                f"{c['total_seconds'] * 1e6:.1f} us exceeds default "
                f"{c['default_seconds'] * 1e6:.1f} us")
        modeled = [{k: v for k, v in r.items() if k not in WALLCLOCK_FIELDS}
                   for r in (b, c)]
        problems += _mismatches(where, *modeled)

    b_wall, c_wall = baseline.get("wall_seconds"), current.get("wall_seconds")
    if b_wall and c_wall and c_wall > b_wall * WALL_TOLERANCE:
        problems.append(f"wall clock blew up {b_wall:.2f}s -> {c_wall:.2f}s "
                        f"(>{WALL_TOLERANCE:.0f}x; modeled numbers above "
                        f"decide correctness, this flags runner pathology)")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "write":
        doc = collect()
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {argv[1]}: {len(doc['runs'])} runs, "
              f"wall {doc['wall_seconds']:.2f}s")
        return 0
    if len(argv) == 2 and argv[0] == "profile":
        # CI failure artifact: where the E16 iterative pass spends its
        # real seconds (top functions by cumulative time)
        from repro.bench.profile import profile_call, write_profile
        from repro.bench.wallclock import e16_iterative_pass

        _, report = profile_call(e16_iterative_pass)
        write_profile(argv[1], report)
        print(f"wrote {argv[1]}")
        return 0
    if len(argv) == 3 and argv[0] == "check":
        with open(argv[1], encoding="utf-8") as fh:
            baseline = json.load(fh)
        with open(argv[2], encoding="utf-8") as fh:
            current = json.load(fh)
        problems = compare(baseline, current)
        for p in problems:
            print(f"REGRESSION: {p}", file=sys.stderr)
        if not problems:
            print(f"bench gate passed: {len(current['runs'])} runs match "
                  f"{argv[1]} (modeled rel {MODELED_RTOL:g})")
        return 1 if problems else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
