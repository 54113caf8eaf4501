"""Run one workload of the SpGEMM benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 10 \\
        --trace 0 --serve-rate 150

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs half the seconds untraced and half under the span
tracer and prints the per-layer metrics (``--trace-json FILE`` also
writes the spans as a Chrome trace).  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Before it
come a table of every metric with its unit, statistic and sample count,
and a ``record`` line (seed, nproc, Python and NumPy versions, serve
rate and generator lateness).

Exit codes: 0 all results matched the oracle; 1 some operation failed
or mismatched (the result line still prints); 2 bad arguments or no
``src/repro`` beside this directory; 3 a cache-hygiene count drifted.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per run: this many minus one fresh processes, plus the
#: measuring process itself; ``setup_s`` is their median.
SETUPS = 5


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    import numpy as np

    return float(np.percentile(values, q))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("paper-cold", "iterative", "serve"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--serve-rate", type=float, default=None,
                    help="open-loop offered rate of 'serve', requests/s")
    ap.add_argument("--trace-json", default=None,
                    help="with --trace 1, write the spans here")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it as JSON and exit")
    args = ap.parse_args(argv)
    if args.workload == "serve" and not args.serve_rate:
        ap.error("--serve-rate is required for the serve workload")
    return args


def set_up(args, tracer=None):
    """Import the program, build the inputs and warm up (under
    ``tracer`` when given); returns the workload and the set-up time in
    reference-speed seconds (host seconds over the speed factor
    calibrated right after)."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.make(args.workload, args.seed, serve_rate=args.serve_rate)
    if tracer is None:
        wl.setup()
    else:
        with tracer:
            wl.setup()
    seconds = time.perf_counter() - t0
    import speed

    return wl, seconds * speed.REFERENCE_S / speed.calibrate()


def fresh_setup(args) -> float:
    """``set_up`` in a new interpreter: the import-dominated cost a user
    pays on every start."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.serve_rate:
        cmd += ["--serve-rate", str(args.serve_rate)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def close(wl) -> None:
    if hasattr(wl, "close"):
        wl.close()


def measure(wl, seg, seconds: float, tracer=None) -> None:
    """One measured segment, then the workload's off-clock summary (run
    outside the tracer, so reference runs add no spans)."""
    if tracer is None:
        wl.measure(seg, seconds)
    else:
        with tracer:
            wl.measure(seg, seconds, tracer)
    if hasattr(wl, "summarize"):
        wl.summarize(seg)


def end_to_end(wl, seg, setups) -> dict:
    """``{name: (value, unit, statistic, samples)}`` of the end-to-end
    metrics (README.md defines each per workload)."""
    lat = [x * 1e3 for x in seg.latencies]
    m = {
        "setup_s": (statistics.median(setups), "s", "median", len(setups)),
        "mult_per_s": (seg.mult_per_s(), "1/s", "total",
                       sum(1 for m, _, _ in seg.steps if m)),
        "latency_p50_ms": (percentile(lat, 50), "ms", "p50", len(lat)),
        "latency_p90_ms": (percentile(lat, 90), "ms", "p90", len(lat)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", "max", 1),
        "completed_ratio": ((seg.attempted - seg.failed) / seg.attempted,
                            "fraction", "ratio", seg.attempted),
    }
    units = {"modeled_gflops_geomean": "GFLOPS",
             "modeled_speedup_geomean": "ratio",
             "modeled_mem_ratio": "ratio",
             "modeled_us_per_mult": "us"}
    for name, unit in units.items():
        vals = seg.modeled[name]
        m[name] = (statistics.median(vals) if vals else 0.0, unit, "median",
                   len(vals))
    return m


def per_layer(wl, plain, traced, tracer, setup_tracer) -> dict:
    """``{name: (value, unit, statistic, samples)}`` of the per-layer
    metrics of the traced segment (tune searches: traced set-up too)."""
    from tracer import layer_metrics, tune_searches
    from workloads import MIX

    n = traced.attempted
    f = traced.mean_factor()
    m = {}
    for name, value in layer_metrics(tracer.spans, n).items():
        unit = ("ratio" if name.endswith("_ratio")
                else "1/call" if name == "core.resilient.attempts"
                else "1/mult" if name.endswith(("_builds", "_calls"))
                else "s/mult")
        m[name] = (value / f if unit == "s/mult" else value, unit, "mean", n)
    searches = tune_searches(setup_tracer.spans + tracer.spans)
    m["tune.search_s"] = (sum(x.duration for x in searches) / f, "s", "sum",
                          len(searches))
    m["obs.events_per_mult"] = (traced.events / max(1, traced.results),
                                "1/mult", "mean", traced.results)
    s = traced.serve
    submits = [x.duration * 1e3 / f for x in tracer.spans
               if x.name == "serve.submit"]
    ms = lambda key: [x * 1e3 for x in s[key]]  # noqa: E731
    m["serve.submit_ms"] = (percentile(submits, 50), "ms", "p50", len(submits))
    m["serve.queue_wait_ms"] = (percentile(ms("queue_wait_s"), 90), "ms",
                                "p90", len(s["queue_wait_s"]))
    m["serve.exec_ms"] = (percentile(ms("exec_s"), 50), "ms", "p50",
                          len(s["exec_s"]))
    for t, _ in MIX:
        key = "latency_s." + t
        m["serve.p50_ms." + t] = (percentile(ms(key), 50), "ms", "p50",
                                  len(s[key]))
    for key in ("retries", "degraded", "coalesced", "rejected"):
        m["serve." + key] = (int(sum(s[key])), "count", "sum", len(s[key]))
    m["serve.generator_late_ms"] = (percentile(ms("generator_late_s"), 99),
                                    "ms", "p99", len(s["generator_late_s"]))
    m["inputs.gen_s"] = (wl.gen_s, "s", "sum", 1)
    m["trace.overhead"] = (traced.mult_per_s() / plain.mult_per_s(), "ratio",
                           "ratio", len(traced.steps))
    return m


def record(args, wl, segs, setups) -> dict:
    import numpy as np

    rec = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "setups_s": setups,
           "steps": sum(len(s.steps) for s in segs),
           "speed_factor": [s.mean_factor() for s in segs],
           "raw_mult_per_s": [s.mult_per_s(raw=True) for s in segs],
           "errors": [e for s in segs for e in s.errors]}
    if args.workload == "serve":
        late = [x * 1e3 for s in segs for x in s.serve["generator_late_s"]]
        rec.update(offered_rate=args.serve_rate,
                   generator_late_ms={"p50": percentile(late, 50),
                                      "p99": percentile(late, 99),
                                      "max": max(late, default=0.0),
                                      "samples": len(late)})
    return rec


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program at {SRC / 'repro'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.setup_only:
        wl, seconds = set_up(args)
        close(wl)
        print(json.dumps({"setup_s": seconds}))
        return 0

    from tracer import Tracer, chrome_trace

    setups = [fresh_setup(args) for _ in range(SETUPS - 1)]
    setup_tracer = Tracer() if args.trace else None
    wl, seconds = set_up(args, setup_tracer)
    setups.append(seconds)
    from workloads import HygieneError, Segment

    try:
        wl.prepare()
        if args.trace:
            plain, traced, tracer = Segment(), Segment(), Tracer()
            measure(wl, plain, args.seconds / 2)
            measure(wl, traced, args.seconds / 2, tracer)
            segs = [plain, traced]
            metrics = per_layer(wl, plain, traced, tracer, setup_tracer)
            if args.trace_json:
                with open(args.trace_json, "w", encoding="utf-8") as fh:
                    json.dump(chrome_trace(tracer.spans, label=args.workload),
                              fh)
        else:
            seg = Segment()
            measure(wl, seg, args.seconds)
            segs = [seg]
            metrics = end_to_end(wl, seg, setups)
    except HygieneError as e:
        print(f"run.py: cache hygiene violated: {e}", file=sys.stderr)
        return 3
    finally:
        close(wl)

    attempted = sum(s.attempted for s in segs)
    failed = sum(s.failed for s in segs)
    print(f"{'metric':<28} {'value':>14} {'unit':<9} {'stat':<12} samples")
    for name, (value, unit, stat, n) in metrics.items():
        print(f"{name:<28} {value:>14.6g} {unit:<9} {stat:<12} {n}")
    print(json.dumps({"record": record(args, wl, segs, setups)}))
    for err in (e for s in segs for e in s.errors):
        print(f"run.py: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
