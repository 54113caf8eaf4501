"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Show the device model and its group table (Table I).
``multiply``
    Run one SpGEMM on a MatrixMarket file or a generated matrix and print
    the simulated report (optionally a kernel timeline).
``suite``
    Run the Figure 2/3 benchmark suite for a chosen precision.
``datasets``
    List the benchmark datasets with instance-vs-paper statistics.
``memory``
    Full-scale memory planning table (Figure 4 / Table III view).
``serve``
    Replay a multi-tenant job trace through the fault-tolerant
    :class:`~repro.serve.SpGEMMServer` (admission control, deadlines,
    circuit breakers, graceful degradation) and print the serving
    report.
"""

from __future__ import annotations

import argparse
import sys

from repro.baselines.registry import ALGORITHMS, DISPLAY_ORDER

#: CLI spellings accepted for --algorithm beyond the leaf registry names
#: (the wrapper layers are flags: --engine, --resilient, --devices, --tune).
ALGORITHM_ALIASES = {"hash": "proposal", "nsparse": "proposal"}

#: Subcommand names; a leading option is routed to ``multiply`` (so
#: ``python -m repro --algo hash --trace-json out.json`` works bare).
COMMANDS = ("info", "multiply", "suite", "datasets", "memory", "serve")


def _device_choices() -> tuple:
    """--device choices: every registered backend's presets, GPU first."""
    from repro.backend import device_presets

    return tuple(device_presets())


def _add_device_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--device", choices=_device_choices(), default="P100",
                   help="device model to simulate, any backend "
                        "(default: P100)")


def _device(name: str):
    from repro.backend import resolve_device

    return resolve_device(name)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hash-table SpGEMM (Nagasaka et al., ICPP 2017) on a "
                    "simulated Pascal GPU")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="device model and group table")
    _add_device_arg(p)
    p.add_argument("--list-datasets", action="store_true",
                   help="also list the registered dataset/workload "
                        "generators (name, class tag, default shape)")

    p = sub.add_parser("multiply", help="run one SpGEMM and report")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--matrix", metavar="FILE.mtx",
                     help="MatrixMarket file to square")
    src.add_argument("--dataset", metavar="NAME",
                     help="benchmark dataset analogue (see 'datasets')")
    src.add_argument("--generate", metavar="KIND:N:NNZ",
                     help="synthetic matrix, e.g. banded:2000:30, "
                          "stencil:40000:4, powerlaw:20000:4 "
                          "(default: banded:1000:16)")
    p.add_argument("--algorithm", "--algo",
                   choices=sorted(ALGORITHMS) + sorted(ALGORITHM_ALIASES),
                   default="proposal",
                   help="leaf algorithm registry name ('hash' is an alias "
                        "for the proposal)")
    p.add_argument("--precision", choices=("single", "double"),
                   default="double")
    p.add_argument("--symbolic", choices=("exact", "estimate"),
                   default="exact",
                   help="symbolic phase: 'exact' counts nnz(C) per row "
                        "(the paper's two-phase flow); 'estimate' samples "
                        "row products for an upper bound and recovers via "
                        "the resilience ladder when a bound is violated "
                        "(identical results, different modeled time)")
    p.add_argument("--engine", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="route the multiply through the plan-cached "
                        "engine (default: on when --repeat > 1); "
                        "--no-engine forces cold runs")
    p.add_argument("--repeat", type=int, default=1, metavar="N",
                   help="run the same multiply N times (with the engine, "
                        "runs after the first replay numeric-only)")
    p.add_argument("--timeline", action="store_true",
                   help="print the kernel Gantt chart")
    p.add_argument("--metrics", action="store_true",
                   help="print the metrics registry (Prometheus-style "
                        "text exposition) derived from the run")
    p.add_argument("--trace-json", metavar="FILE",
                   help="export the run as a Chrome trace "
                        "(load in chrome://tracing or ui.perfetto.dev)")
    p.add_argument("--trace-summary", metavar="FILE",
                   help="write the canonical text trace summary "
                        "('-' for stdout)")
    p.add_argument("--resilient", action="store_true",
                   help="wrap the algorithm in the degradation ladder "
                        "(retry, row-panel chunking, algorithm fallback)")
    p.add_argument("--memory-budget", type=float, metavar="MIB",
                   help="device-memory budget in MiB (implies --resilient)")
    p.add_argument("--max-panels", type=int, default=256, metavar="K",
                   help="row-panel chunking limit for --resilient "
                        "(default: 256)")
    p.add_argument("--tune", action="store_true",
                   help="autotune the proposal's Table I parameters for "
                        "the target device before running (per pool "
                        "device with --devices)")
    p.add_argument("--tune-store", metavar="FILE",
                   help="JSON file persisting tuned configs across runs "
                        "(implies --tune)")
    p.add_argument("--devices", metavar="N|SPEC,SPEC,...",
                   help="distribute the multiply over a simulated device "
                        "pool: a count (e.g. 4) of --device replicas, or "
                        "a comma list of presets (e.g. P100,P100,K40)")
    p.add_argument("--interconnect", choices=("pcie", "nvlink"),
                   default="pcie",
                   help="link model between pool devices (default: pcie)")
    p.add_argument("--dist-stats", action="store_true",
                   help="print the device pool, partition and per-device "
                        "plan-cache statistics after a --devices run")
    p.add_argument("--inject-oom-at", type=int, metavar="N",
                   help="inject a DeviceMemoryError at the N-th allocation")
    p.add_argument("--inject-oom-name", metavar="REGEX",
                   help="inject a DeviceMemoryError at the first allocation "
                        "whose buffer name matches REGEX")
    p.add_argument("--fail-device", metavar="REGEX",
                   help="drop the first pool device whose id matches REGEX "
                        "mid-run (requires --devices)")
    p.add_argument("--shrink-capacity", type=float, metavar="FACTOR",
                   help="scale the device capacity by FACTOR in (0, 1]")
    p.add_argument("--profile", nargs="?", const="-", metavar="FILE",
                   help="run under cProfile and print the top functions "
                        "by cumulative time (or write the table to FILE)")
    _add_device_arg(p)

    p = sub.add_parser("suite", help="run the Figure 2/3 suite")
    p.add_argument("--precision", choices=("single", "double"),
                   default="single")
    p.add_argument("--large", action="store_true",
                   help="use the Table III large-graph suite instead")
    p.add_argument("--breakdown", action="store_true",
                   help="also print the Figure 5 phase breakdown derived "
                        "from the metrics registry")
    p.add_argument("--engine", action="store_true",
                   help="run every cell through a plan-cached engine "
                        "(pair with --repeat for steady-state numbers)")
    p.add_argument("--repeat", type=int, default=1, metavar="N",
                   help="run each cell N times, report the last run")
    p.add_argument("--profile", nargs="?", const="-", metavar="FILE",
                   help="profile the whole suite under cProfile and print "
                        "the top functions (or write the table to FILE)")

    sub.add_parser("datasets", help="list benchmark datasets")

    p = sub.add_parser("memory", help="full-scale memory planning")
    p.add_argument("--precision", choices=("single", "double"),
                   default="single")

    p = sub.add_parser("serve", help="replay a job trace through the "
                                     "serving layer")
    p.add_argument("--trace", metavar="FILE.json",
                   help="job trace to replay: JSON list (or "
                        "{'jobs': [...]}) of objects with 'tenant', "
                        "'matrix' (generator spec KIND:N:NNZ or dataset "
                        "name), optional 'repeat', 'deadline_s', 'weight' "
                        "(default: a built-in three-tenant demo trace)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="server worker threads (default: 2)")
    p.add_argument("--queue-depth", type=int, default=64, metavar="N",
                   help="bounded fair-queue capacity (default: 64)")
    p.add_argument("--deadline-s", type=float, metavar="S",
                   help="default per-job deadline in host seconds")
    p.add_argument("--algorithm", "--algo",
                   choices=sorted(ALGORITHMS) + sorted(ALGORITHM_ALIASES),
                   default="proposal")
    p.add_argument("--precision", choices=("single", "double"),
                   default="double")
    p.add_argument("--devices", metavar="N|SPEC,SPEC,...",
                   help="serve from a simulated device pool (see "
                        "'multiply --devices')")
    p.add_argument("--chaos-seed", type=int, metavar="SEED",
                   help="inject a seeded fault storm (random OOMs) into "
                        "every job -- the chaos-harness mode")
    p.add_argument("--chaos-oom-rate", type=float, default=0.05,
                   metavar="P",
                   help="per-allocation OOM probability under "
                        "--chaos-seed (default: 0.05)")
    p.add_argument("--events-jsonl", metavar="FILE",
                   help="write the serve event stream as JSON lines")
    p.add_argument("--metrics", action="store_true",
                   help="print the serve_* metrics registry")
    _add_device_arg(p)
    return parser


def _load_matrix(args):
    if args.matrix:
        from repro.sparse.io import read_matrix_market

        return read_matrix_market(args.matrix, precision=args.precision), \
            args.matrix
    if args.dataset:
        from repro.bench.datasets import get_dataset

        return get_dataset(args.dataset).matrix(), args.dataset

    from repro.sparse import generators as G

    if not args.generate:
        # no source given: a small deterministic default workload
        return G.banded(1000, 16, rng=0), "banded:1000"

    try:
        kind, n, nnz = args.generate.split(":")
        n, nnz = int(n), float(nnz)
    except ValueError:
        raise SystemExit(f"bad --generate spec {args.generate!r}; "
                         "expected KIND:N:NNZ") from None
    makers = {
        "banded": lambda: G.banded(n, int(nnz), rng=0),
        "stencil": lambda: G.stencil_regular(n, int(nnz), rng=0),
        "powerlaw": lambda: G.power_law(n, nnz, max(64, int(20 * nnz)), rng=0),
        "random": lambda: G.random_csr(n, n, nnz, rng=0),
        "poisson": lambda: G.poisson2d(n),
    }
    if kind not in makers:
        raise SystemExit(f"unknown generator {kind!r}; "
                         f"choose from {sorted(makers)}")
    return makers[kind](), f"{kind}:{n}"


def cmd_info(args) -> int:
    from repro.backend import backend_for_spec

    dev = _device(args.device)
    print(backend_for_spec(dev).render_info(dev))
    if getattr(args, "list_datasets", False):
        from repro.bench.datasets import workload_table

        print("\nregistered dataset / workload generators:")
        print(workload_table())
    return 0


def _fault_plan(args):
    """Build the FaultPlan requested by the --inject-*/--shrink flags."""
    if args.inject_oom_at is None and not args.inject_oom_name \
            and not args.shrink_capacity \
            and not getattr(args, "fail_device", None):
        return None
    from repro.gpu.faults import FaultPlan

    plan = FaultPlan()
    if args.inject_oom_at is not None:
        plan.fail_alloc(index=args.inject_oom_at)
    if args.inject_oom_name:
        plan.fail_alloc(name=args.inject_oom_name)
    if args.shrink_capacity:
        plan.limit_capacity(factor=args.shrink_capacity)
    if getattr(args, "fail_device", None):
        plan.fail_device(args.fail_device)
    return plan


def _options_from_args(args, repeat: int):
    """One :class:`~repro.options.SpGEMMOptions` from the multiply flags."""
    from repro.options import SpGEMMOptions

    algorithm = ALGORITHM_ALIASES.get(args.algorithm, args.algorithm)
    if not args.devices:
        # run the chosen device's native equivalent: '--device KNL64'
        # with the default --algo proposal means hash-cpu on the KNL,
        # not the GPU proposal on its fallback preset
        from repro.backend import backend_for_spec

        algorithm = backend_for_spec(
            _device(args.device)).native_algorithm(algorithm)
    devices = None
    if args.devices:
        spec = args.devices.strip()
        devices = int(spec) if spec.isdigit() else tuple(spec.split(","))
        # per-device plan caches are the point of a pool; default them on
        engine = args.engine if args.engine is not None else True
    else:
        engine = args.engine if args.engine is not None else repeat > 1
    memory_budget = (int(args.memory_budget * (1 << 20))
                     if args.memory_budget is not None else None)
    # evolve() re-runs the facade's validation on the flag-derived fields
    return SpGEMMOptions().evolve(
        algorithm=algorithm, precision=args.precision,
        device=_device(args.device), engine=engine,
        resilient=args.resilient, memory_budget=memory_budget,
        max_panels=args.max_panels, devices=devices,
        interconnect=args.interconnect,
        tune=args.tune or bool(args.tune_store),
        tune_store=args.tune_store,
        symbolic=getattr(args, "symbolic", "exact"))


def cmd_multiply(args) -> int:
    import repro
    from repro.dist import DistSpGEMM
    from repro.engine import SpGEMMEngine
    from repro.gpu.trace import render_timeline
    from repro.options import runner_for
    from repro.tune.tuned import TunedSpGEMM

    A, name = _load_matrix(args)
    print(f"{name}: {A.n_rows:,} x {A.n_cols:,}, {A.nnz:,} nonzeros")

    repeat = max(1, args.repeat)
    options = _options_from_args(args, repeat)
    # one runner for all repeats: the engine replays cached plans and the
    # tuner reuses its store across iterations
    try:
        runner = runner_for(options)
    except repro.OptionsError as e:
        print(f"invalid options: {e}", file=sys.stderr)
        return 2
    dist = runner if isinstance(runner, DistSpGEMM) else None
    eng = next((r for r in (runner, getattr(runner, "inner", None))
                if isinstance(r, SpGEMMEngine)), None)
    def _run_all():
        last = None
        for i in range(repeat):
            last = runner.multiply(A, A, precision=options.precision,
                                   device=options.device,
                                   matrix_name=name,
                                   faults=_fault_plan(args))
            if repeat > 1:
                rr = last.report
                tag = "replay" if rr.numeric_only else "cold"
                print(f"  run {i + 1}/{repeat}: "
                      f"{rr.total_seconds * 1e6:10.1f} us  ({tag})")
        return last

    try:
        if args.profile:
            from repro.bench.profile import profile_call

            result, profile_report = profile_call(_run_all)
            _emit_profile(profile_report, args.profile)
        else:
            result = _run_all()
    except repro.ReproError as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1
    r = result.report
    print(f"C: {result.matrix.nnz:,} nonzeros "
          f"({r.n_products:,} intermediate products)\n")
    print(r.summary())
    print("\nphase breakdown:")
    phases = ("setup", "count", "calc", "malloc")
    if "comm" in r.phase_seconds:
        phases += ("comm",)
    for phase in phases:
        print(f"  {phase:<8} {r.phase_seconds.get(phase, 0) * 1e6:10.1f} us"
              f"  ({100 * r.phase_fraction(phase):5.1f}%)")
    if result.resilience is not None:
        print("\n" + result.resilience.summary())
    if isinstance(runner, TunedSpGEMM):
        ov = runner.last_overrides()
        print(f"\ntuned parameters ({options.device.name}): {ov.describe()}")
    if eng is not None:
        print("\n" + eng.stats_summary())
    if dist is not None and args.dist_stats:
        print("\n" + dist.dist_stats())
    if args.timeline:
        print("\nkernel timeline:")
        print(render_timeline(r.kernels))
    if args.metrics:
        print("\n" + r.metrics().render())
    if args.trace_json:
        from repro.obs.export import write_chrome_trace

        try:
            write_chrome_trace(r, args.trace_json)
        except OSError as e:
            print(f"cannot write trace to {args.trace_json}: {e}",
                  file=sys.stderr)
            return 1
        print(f"\nChrome trace written to {args.trace_json} "
              f"(load in chrome://tracing)")
    if args.trace_summary:
        from repro.obs.export import trace_summary

        text = trace_summary(r)
        if args.trace_summary == "-":
            print("\n" + text, end="")
        else:
            try:
                with open(args.trace_summary, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as e:
                print(f"cannot write trace summary to {args.trace_summary}: "
                      f"{e}", file=sys.stderr)
                return 1
            print(f"trace summary written to {args.trace_summary}")
    return 0


def _emit_profile(report: str, dest: str) -> None:
    """Print a rendered cProfile table, or write it when ``dest`` names a
    file (``-`` means stdout)."""
    if dest == "-":
        print("\ncProfile (top functions by cumulative time):")
        print(report)
    else:
        from repro.bench.profile import write_profile

        write_profile(dest, report)
        print(f"profile written to {dest}")


def cmd_suite(args) -> int:
    from repro.bench.datasets import DATASETS, LARGE_GRAPHS
    from repro.bench.runner import (gflops_table, metrics_phase_table,
                                    run_suite, speedup_stats)

    names = list(LARGE_GRAPHS if args.large else DATASETS)
    if args.profile:
        from repro.bench.profile import profile_call

        runs, profile_report = profile_call(
            run_suite, names, algorithms=DISPLAY_ORDER,
            precisions=(args.precision,), repeat=max(1, args.repeat),
            engine=args.engine)
        _emit_profile(profile_report, args.profile)
    else:
        runs = run_suite(names, algorithms=DISPLAY_ORDER,
                         precisions=(args.precision,),
                         repeat=max(1, args.repeat), engine=args.engine)
    if args.engine:
        print(f"(plan-cached engine, last of {max(1, args.repeat)} "
              f"run(s) per cell)\n")
    print(gflops_table(runs))
    print()
    for base, (mx, gm) in speedup_stats(runs).items():
        print(f"proposal vs {base:<9}: max x{mx:.1f}  geomean x{gm:.2f}")
    if args.breakdown:
        print("\nphase breakdown (from the metrics registry):")
        print(metrics_phase_table(runs))
    return 0


def cmd_datasets(args) -> int:
    from repro.bench.datasets import instance_table, workload_table

    print(instance_table())
    print("\nregistered generators (no build):")
    print(workload_table())
    return 0


#: Demo trace for ``serve`` with no --trace: three tenants, mixed sizes,
#: enough repeats to exercise coalescing and the fair queue.
_DEMO_TRACE = [
    {"tenant": "alpha", "matrix": "banded:1500:16", "repeat": 3},
    {"tenant": "beta", "matrix": "stencil:4900:5", "repeat": 2,
     "weight": 2.0},
    {"tenant": "gamma", "matrix": "powerlaw:4000:8", "repeat": 2},
]


def _matrix_from_spec(spec: str, cache: dict):
    """A matrix from a trace entry: generator spec or dataset name."""
    m = cache.get(spec)
    if m is not None:
        return m
    if ":" in spec:
        from repro.sparse import generators as G

        kind, n, nnz = spec.split(":")
        n, nnz = int(n), float(nnz)
        makers = {
            "banded": lambda: G.banded(n, int(nnz), rng=0),
            "stencil": lambda: G.stencil_regular(n, int(nnz), rng=0),
            "powerlaw": lambda: G.power_law(n, nnz,
                                            max(64, int(20 * nnz)), rng=0),
            "random": lambda: G.random_csr(n, n, nnz, rng=0),
            "poisson": lambda: G.poisson2d(n),
        }
        if kind not in makers:
            raise SystemExit(f"unknown generator {kind!r} in trace; "
                             f"choose from {sorted(makers)}")
        m = makers[kind]()
    else:
        from repro.bench.datasets import get_dataset

        m = get_dataset(spec).matrix()
    cache[spec] = m
    return m


def cmd_serve(args) -> int:
    import json

    import repro
    from repro.obs.export import write_serve_jsonl
    from repro.obs.metrics import check_serve_conservation
    from repro.options import SpGEMMOptions
    from repro.serve import ServePolicy, SpGEMMServer

    if args.trace:
        try:
            with open(args.trace, encoding="utf-8") as fh:
                trace = json.load(fh)
        except (OSError, ValueError) as e:
            print(f"cannot read trace {args.trace}: {e}", file=sys.stderr)
            return 1
        jobs = trace.get("jobs") if isinstance(trace, dict) else trace
        if not isinstance(jobs, list):
            print(f"trace {args.trace} is not a job list", file=sys.stderr)
            return 1
    else:
        jobs = _DEMO_TRACE

    devices = None
    if args.devices:
        spec = args.devices.strip()
        devices = int(spec) if spec.isdigit() else tuple(spec.split(","))
    options = SpGEMMOptions().evolve(
        algorithm=ALGORITHM_ALIASES.get(args.algorithm, args.algorithm),
        precision=args.precision, device=_device(args.device),
        devices=devices)
    policy = ServePolicy(max_queue_depth=max(1, args.queue_depth),
                         default_deadline_s=args.deadline_s)
    faults = None
    if args.chaos_seed is not None:
        from repro.gpu.faults import FaultPlan

        faults = FaultPlan(seed=args.chaos_seed).random_alloc_failures(
            args.chaos_oom_rate)

    weights = {str(j.get("tenant", "default")): float(j["weight"])
               for j in jobs if isinstance(j, dict) and "weight" in j}
    cache: dict = {}
    server = SpGEMMServer(options=options, n_workers=max(1, args.workers),
                          policy=policy, tenant_weights=weights,
                          faults=faults)
    submitted, shed = 0, 0
    try:
        for entry in jobs:
            if not isinstance(entry, dict):
                continue
            spec = str(entry.get("matrix", "banded:1000:16"))
            A = _matrix_from_spec(spec, cache)
            for _ in range(max(1, int(entry.get("repeat", 1)))):
                try:
                    server.submit(
                        A, A, tenant=str(entry.get("tenant", "default")),
                        deadline_s=entry.get("deadline_s"),
                        matrix_name=spec)
                    submitted += 1
                except repro.ReproError:
                    shed += 1    # typed rejection; counted by the server
        server.drain()
    finally:
        server.shutdown()

    print(server.stats_summary())
    if shed:
        print(f"  ({shed} of {submitted + shed} submissions shed at "
              f"admission)")
    reg = server.metrics()
    try:
        check_serve_conservation(reg)
    except AssertionError as e:
        print(f"CONSERVATION VIOLATION: {e}", file=sys.stderr)
        return 1
    if args.metrics:
        print("\n" + reg.render())
    if args.events_jsonl:
        try:
            write_serve_jsonl(server.events.events, args.events_jsonl)
        except OSError as e:
            print(f"cannot write events to {args.events_jsonl}: {e}",
                  file=sys.stderr)
            return 1
        print(f"serve events written to {args.events_jsonl}")
    return 0


def cmd_memory(args) -> int:
    from repro.bench.datasets import DATASETS, LARGE_GRAPHS
    from repro.bench.memory_model import memory_ratio_table

    print(memory_ratio_table(
        list(DATASETS.values()) + list(LARGE_GRAPHS.values()),
        args.precision))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # bare option flags route to 'multiply' (the common case), so
    # ``python -m repro --algo hash --trace-json out.json`` just works
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        argv = ["multiply", *argv]
    args = _build_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "multiply": cmd_multiply,
        "suite": cmd_suite,
        "datasets": cmd_datasets,
        "memory": cmd_memory,
        "serve": cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
