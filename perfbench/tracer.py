"""Host-time spans around the public entry points of each ``repro`` layer.

The program has no span recorder of its own yet, so the benchmark
records spans from outside: :class:`Tracer` replaces each entry point in
:data:`ENTRY_POINTS` with a wrapper that opens a span, calls the
original and closes the span.  A function is replaced at *every* import
site -- each ``repro.*`` module attribute bound to the original object
-- so ``from repro.sparse.product import pattern_digest`` call sites are
timed too.  Methods are replaced on their defining class.  Uninstalling
restores every original object, so the untraced program is untouched.

Spans nest per thread (the serving layer's worker has its own stack).
A span's self time is its duration minus the durations of its direct
children; children of one span never overlap, so their sum never
exceeds the parent.  :func:`chrome_trace` writes the spans in the Trace
Event Format that ``python -m repro --trace-json`` also writes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

#: ``(defining module, attribute or Class.method, span name)``.  Several
#: entry points may share a span name; they are one layer.
ENTRY_POINTS = (
    ("repro.sparse.expansion", "build_sort_recipe", "sparse.recipe_build"),
    ("repro.sparse.expansion", "values_from_recipe", "sparse.recipe_replay"),
    ("repro.sparse.product", "pattern_digest", "sparse.fingerprint"),
    ("repro.sparse.product", "compute_product", "sparse.product"),
    ("repro.gpu.scheduler", "simulate_phase", "gpu.schedule"),
    # probe only: a phase-memo miss computes block durations, a hit does not
    ("repro.gpu.cost", "block_durations", "gpu.block_durations"),
    ("repro.core.spgemm", "HashSpGEMM.multiply", "core.multiply"),
    ("repro.core.spgemm", "HashSpGEMM.multiply_planned", "engine.replay"),
    ("repro.core.hashtable", "simulate_insertions_rows", "core.probe_sim"),
    ("repro.core.hashtable", "expected_probes", "core.probe_sim"),
    ("repro.core.hashtable", "expected_cas", "core.probe_sim"),
    ("repro.baselines.cusparse_like", "CuSparseSpGEMM.multiply",
     "baselines.multiply"),
    ("repro.baselines.esc", "ESCSpGEMM.multiply", "baselines.multiply"),
    ("repro.baselines.bhsparse", "BHSparseSpGEMM.multiply",
     "baselines.multiply"),
    ("repro.options", "runner_for", "options.runner_for"),
    ("repro.engine.cache", "PlanCache.lookup", "engine.lookup"),
    ("repro.engine.plan", "make_key", "engine.key"),
    ("repro.tune.tuner", "Autotuner.tune", "tune.tune"),
    ("repro.apps.graph", "markov_cluster", "apps.mcl"),
    ("repro.serve.server", "SpGEMMServer.submit", "serve.submit"),
    ("repro.dist.dist", "DistSpGEMM.multiply", "dist.multiply"),
    ("repro.dist.partition", "partition_rows", "dist.partition"),
    ("repro.core.resilient", "ResilientSpGEMM.multiply", "core.resilient"),
)


class Span:
    """One timed call: name, thread, start/end (perf_counter seconds),
    the enclosing span and the total duration of the direct children."""

    __slots__ = ("name", "tid", "start", "end", "parent", "child_s",
                 "child_names", "info")

    def __init__(self, name: str, tid: int, parent: "Span | None") -> None:
        self.name = name
        self.tid = tid
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.child_names: set[str] = set()
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _repro_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class _Patches:
    """Replace entry points at every import site; undo in reverse order.

    A function is replaced on every ``repro`` module attribute and every
    ``staticmethod`` class slot bound to it (the GPU backend installs
    ``simulate_phase`` that way).  Modules imported while patched bind
    the wrapper itself; :meth:`uninstall` finds and restores those too.
    """

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}

    def _set(self, owner, attr: str, new, original) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, new)

    def install(self, module: str, attr: str, make_wrapper) -> None:
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._set(cls, meth, make_wrapper(original), original)
            return
        original = getattr(mod, attr)
        wrapper = make_wrapper(original)
        self._wrappers[id(wrapper)] = (wrapper, original)
        for site in _repro_modules():
            if getattr(site, attr, None) is original:
                self._set(site, attr, wrapper, original)
            for cls in [c for c in vars(site).values()
                        if isinstance(c, type) and c.__module__ == site.__name__]:
                for key, val in list(cls.__dict__.items()):
                    if isinstance(val, staticmethod) and val.__func__ is original:
                        self._set(cls, key, staticmethod(wrapper), val)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        for site in _repro_modules():
            for key, val in list(vars(site).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(site, key, hit[1])
        self._wrappers.clear()


class Tracer:
    """Records a span for every call into :data:`ENTRY_POINTS`.

    Use as a context manager; spans stay in memory (:attr:`spans`) after
    the tracer is uninstalled.  The benchmark opens its own root spans
    around each timed call with :meth:`open` and :meth:`close`.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches = _Patches()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, threading.get_ident(), stack[-1] if stack else None)
        stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        parent = span.parent
        if parent is not None:
            parent.child_s += span.end - span.start
            parent.child_names.add(span.name)

    def _wrapper(self, name: str):
        tracer = self

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                span = tracer.open(name)
                try:
                    out = original(*args, **kwargs)
                finally:
                    tracer.close(span)
                span.info = _info(name, args, kwargs, out)
                return out
            return traced
        return make

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module, attr, name in ENTRY_POINTS:
            self._patches.install(module, attr, self._wrapper(name))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.uninstall()


def _info(name: str, args: tuple, kwargs: dict, out):
    """Per-call facts the layer metrics need beyond the span itself."""
    if name == "engine.lookup":
        return out is not None                       # plan-cache hit
    if name == "gpu.schedule":
        kernels = args[0] if args else kwargs.get("kernels")
        return bool(kernels) and kwargs.get("faults") is None  # memo-eligible
    if name == "core.resilient":
        return len(out.resilience.attempts) if out.resilience else 1
    return None


class CallCounter:
    """Counts calls into one entry point without reading any clock (the
    cache-hygiene counters of untraced runs)."""

    def __init__(self, module: str, attr: str) -> None:
        self.module, self.attr = module, attr
        self.calls = 0
        self._patches = _Patches()

    def __enter__(self) -> "CallCounter":
        counter = self

        def make(original):
            @functools.wraps(original)
            def counted(*args, **kwargs):
                counter.calls += 1
                return original(*args, **kwargs)
            return counted

        self._patches.install(self.module, self.attr, make)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.uninstall()


# -- per-layer metrics --------------------------------------------------------


def _totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """``{span name: {"calls", "incl_s", "self_s"}}`` over ``spans``."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    for s in spans:
        t = out[s.name]
        t["calls"] += 1
        t["incl_s"] += s.duration
        t["self_s"] += s.self_s
    return out


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def tune_searches(spans: list[Span]) -> list[Span]:
    """``Autotuner.tune`` calls that searched (ran probe multiplies)
    rather than answering from the tuning store."""
    return [s for s in spans
            if s.name == "tune.tune" and "core.multiply" in s.child_names]


def layer_metrics(spans: list[Span], n_mults: int) -> dict[str, float]:
    """The span-derived per-layer metrics of the benchmark (times and
    counts per multiply attempted, ratios over calls).  Tune searches
    happen in set-up, so ``tune.search_s`` is derived by the caller."""
    tot = _totals(spans)
    n = max(1, n_mults)

    def per(name: str, key: str = "incl_s") -> float:
        return tot[name][key] / n if name in tot else 0.0

    product = [s for s in spans if s.name == "sparse.product"]
    sched = [s for s in spans if s.name == "gpu.schedule" and s.info]
    lookups = [s for s in spans if s.name == "engine.lookup"]
    tunes = [s for s in spans if s.name == "tune.tune"]
    searches = tune_searches(spans)
    resilient = [s for s in spans if s.name == "core.resilient"]
    return {
        "sparse.recipe_build_s": per("sparse.recipe_build"),
        "sparse.recipe_builds": per("sparse.recipe_build", "calls"),
        "sparse.recipe_replay_s": per("sparse.recipe_replay"),
        "sparse.fingerprint_s": per("sparse.fingerprint"),
        "sparse.fingerprint_calls": per("sparse.fingerprint", "calls"),
        "sparse.product_hit_ratio": _ratio(
            sum("sparse.recipe_replay" not in s.child_names for s in product),
            len(product)),
        "gpu.schedule_s": per("gpu.schedule"),
        "gpu.schedule_calls": per("gpu.schedule", "calls"),
        "gpu.memo_hit_ratio": _ratio(
            sum("gpu.block_durations" not in s.child_names for s in sched),
            len(sched)),
        "core.plan_s": per("core.multiply", "self_s"),
        "core.probe_sim_s": per("core.probe_sim"),
        "baselines.self_s": per("baselines.multiply", "self_s"),
        "options.runner_for_s": per("options.runner_for"),
        "engine.plan_hit_ratio": _ratio(sum(bool(s.info) for s in lookups),
                                        len(lookups)),
        "engine.key_s": per("engine.key"),
        "engine.replay_s": per("engine.replay"),
        "tune.lookup_s": (sum(s.duration for s in tunes)
                          - sum(s.duration for s in searches)) / n,
        "tune.store_hit_ratio": _ratio(len(tunes) - len(searches),
                                       len(tunes)),
        "apps.mcl_s": per("apps.mcl"),
        "dist.self_s": per("dist.multiply", "self_s"),
        "dist.partition_s": per("dist.partition"),
        "core.resilient.attempts": _ratio(
            sum(s.info or 0 for s in resilient), len(resilient)),
        "core.resilient.self_s": per("core.resilient", "self_s"),
    }


# -- Chrome trace -------------------------------------------------------------


def chrome_trace(spans: list[Span], *, label: str = "") -> dict:
    """Spans as a Trace Event Format document: one ``host`` process, one
    track per thread, complete (``X``) slices in microseconds from the
    first span, with the self time in ``args``."""
    t0 = min((s.start for s in spans), default=0.0)
    tids = {tid: i for i, tid in enumerate(dict.fromkeys(s.tid for s in spans))}
    evs = [{"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
            "args": {"name": f"host {label}".strip()}}]
    for tid, i in tids.items():
        evs.append({"ph": "M", "pid": 0, "tid": i, "name": "thread_name",
                    "args": {"name": f"thread {i}"}})
    for s in spans:
        evs.append({"ph": "X", "cat": "host", "name": s.name, "pid": 0,
                    "tid": tids[s.tid], "ts": (s.start - t0) * 1e6,
                    "dur": s.duration * 1e6,
                    "args": {"self_us": s.self_s * 1e6}})
    return {"traceEvents": evs, "displayTimeUnit": "ns",
            "otherData": {"label": label, "spans": len(spans)}}
