"""The unified public API: :class:`SpGEMMOptions` and :func:`multiply`.

This module is the single place the choices of a multiply live:

* :class:`SpGEMMOptions` -- one frozen value object describing *how* to
  multiply: the leaf algorithm, device, precision, and the wrapper
  layers (engine fronting, resilience ladder, distribution, autotuning)
  as fields;
* :func:`runner_for` -- the one compiler from an options object to its
  runner chain (dist / tune / resilient / engine around the leaf);
* :func:`multiply` -- the one-call facade:
  ``repro.multiply(A, B, options=SpGEMMOptions(tune=True))``.

``algorithm`` only ever names a leaf of :func:`repro.algorithms`; an
unknown name raises :class:`~repro.errors.UnknownAlgorithmError` from
:func:`runner_for`.  Unknown option-field names -- a keyword typo in
:func:`multiply` or :meth:`SpGEMMOptions.evolve` -- raise a typed
:class:`~repro.errors.OptionsError` listing the valid fields and the
closest match, as do field combinations no chain can honour.
"""

from __future__ import annotations

import difflib
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, replace
from typing import Any

from repro.backend import backends, resolve_device
from repro.base import SpGEMMAlgorithm, SpGEMMResult
from repro.core.params import SYMBOLIC_MODES
from repro.errors import OptionsError, UnknownAlgorithmError
from repro.gpu.device import P100, DeviceSpec
from repro.gpu.faults import FaultPlan
from repro.sparse.csr import CSRMatrix
from repro.types import Precision


def _check_option_names(names: Iterable[str], *, context: str) -> None:
    """Raise :class:`OptionsError` for unknown option-field names."""
    valid = {f.name for f in fields(SpGEMMOptions)}
    unknown = sorted(set(names) - valid)
    if not unknown:
        return
    suggestions = []
    for name in unknown:
        suggestions += difflib.get_close_matches(name, sorted(valid), n=1)
    noun = "field" if len(unknown) == 1 else "fields"
    raise OptionsError(
        f"unknown {context} {noun} " + ", ".join(map(repr, unknown)),
        unknown=tuple(unknown), valid=tuple(valid),
        suggestions=tuple(suggestions))


@dataclass(frozen=True)
class SpGEMMOptions:
    """Everything configurable about one SpGEMM, in one immutable object.

    Field groups (all optional; the default object runs the paper's
    proposal in double precision on the P100):

    algorithm / precision / device
        The leaf algorithm's registry name (:func:`repro.algorithms`;
        the wrapper layers are the fields below), 'single' | 'double'
        (or a :class:`~repro.types.Precision`) and the device to simulate: a
        :class:`~repro.gpu.device.DeviceSpec`, a
        :class:`~repro.cpu.device.CPUSpec`, or any registered preset
        name (``device="KNL64"`` resolves through the backend
        registry).
    engine / cache_budget_bytes
        ``engine=True`` fronts the algorithm with the plan-cached
        :class:`~repro.engine.SpGEMMEngine`; ``None`` means "auto" (on
        for distributed runs, off otherwise).  ``cache_budget_bytes``
        caps the plan cache's device memory.
    resilient / memory_budget / max_panels
        ``resilient=True`` (or any ``memory_budget``, in bytes) wraps
        the run in the degradation ladder, keeping the chosen algorithm
        first in the fallback chain.
    devices / interconnect
        ``devices`` distributes over a pool: an int (replicas of
        ``device``) or a tuple of preset names (heterogeneous).  Each
        device runs ``algorithm`` behind its own engine (unless
        ``engine=False``), sized by ``cache_budget_bytes``; the ladder
        fields do not compose with it.
    tune / tune_store
        ``tune=True`` autotunes the leaf's parameters per device before
        running (Table I for the proposal; ``tile`` and the CPU leaves
        have their own families, the baselines none); ``tune_store`` (a
        :class:`~repro.tune.TuningStore` or a path) persists tuned
        configs across processes.  The search measures the default and
        the :data:`~repro.tune.tuner.DEFAULT_TOP_K` best-scored configs.
    symbolic
        ``'estimate'`` replaces the exact symbolic count phase with the
        sampled estimator of :mod:`repro.estimate` (per-row nnz bounds,
        bound-violation recovery on global tables); ``'exact'`` -- the
        default -- keeps the paper's count kernels.  Results are
        bit-identical either way; only modeled time and memory change.
        Only the proposal accepts it (the wrappers forward it); the
        sampling knobs travel via ``algo_options`` (``estimate_samples``
        / ``estimate_margin`` / ``estimate_seed``).
    observe
        ``observe=False`` runs every multiply unobserved: no events are
        constructed at all (the throughput fast path).  Reports keep
        their timings and stats -- only the trace stream is empty.
        Modeled seconds and numeric results are identical either way.
    algo_options
        Extra constructor kwargs for the algorithm (ablation switches
        like ``use_streams=False``, a :class:`~repro.core.params.
        ParamOverrides` or its dict form via ``overrides=...``, as in
        the PWARP width sweep's ``{"overrides": {"pwarp_width": 8}}``).
    """

    algorithm: str = "proposal"
    precision: "Precision | str" = Precision.DOUBLE
    device: "DeviceSpec | object | str" = P100
    engine: bool | None = None
    cache_budget_bytes: int | None = None
    resilient: bool = False
    memory_budget: int | None = None
    max_panels: int = 256
    devices: "int | tuple[str, ...] | None" = None
    interconnect: str = "pcie"
    tune: bool = False
    tune_store: object = None
    symbolic: str = "exact"
    observe: bool = True
    algo_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # normalize early so equality/compile behave predictably
        object.__setattr__(self, "precision", Precision.parse(self.precision))
        object.__setattr__(self, "device", resolve_device(self.device))
        if isinstance(self.devices, (list, tuple)):
            object.__setattr__(self, "devices",
                               tuple(str(d) for d in self.devices))
        object.__setattr__(self, "algo_options", dict(self.algo_options))
        if self.symbolic not in SYMBOLIC_MODES:
            raise OptionsError(
                f"symbolic must be one of {list(SYMBOLIC_MODES)}, "
                f"got {self.symbolic!r}")

    def evolve(self, **changes: Any) -> "SpGEMMOptions":
        """A copy with the given fields replaced.

        The canonical way to derive one options object from another:
        ``replace`` on the frozen dataclass, so ``__post_init__``
        re-normalizes and re-validates the result.  Unknown field names
        raise :class:`~repro.errors.OptionsError` naming the valid
        fields and the closest match (a plain ``dataclasses.replace``
        would surface a bare ``TypeError``).
        """
        _check_option_names(changes, context="option")
        return replace(self, **changes)

    def describe(self) -> str:
        """Compact ``field=value`` form of the non-default fields."""
        default = SpGEMMOptions()
        parts = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v != getattr(default, f.name):
                if f.name == "precision":
                    v = v.value
                elif f.name == "device":
                    v = v.name
                parts.append(f"{f.name}={v}")
        return " ".join(parts) or "default"

    def coalesce_token(self) -> str:
        """Stable string identifying the *execution configuration*.

        Two jobs whose operands digest identically AND whose options
        share this token compute bit-identical results, so the serving
        layer may coalesce them onto one run.  Built from every field
        that changes the runner chain or the numeric output; per-call
        inputs (matrix name, fault plan) are deliberately absent.
        """
        parts = [self.algorithm, self.precision.value, self.device.name,
                 str(self.engine), str(self.cache_budget_bytes),
                 str(self.resilient), str(self.memory_budget),
                 str(self.max_panels), str(self.devices), self.interconnect,
                 str(self.tune), self.symbolic,
                 str(self.observe)]
        parts += [f"{k}={self.algo_options[k]}"
                  for k in sorted(self.algo_options)]
        return "|".join(parts)


def _fallback_chain(algorithm: str) -> tuple[str, str]:
    """The algorithm plus its backend's designated fallback.

    The owning backend declares which of its algorithms trades speed for
    robustness (``fallback_algorithm``); when the chosen algorithm *is*
    that fallback, the backend default takes the second slot so the
    chain never degenerates to a single entry.  Every registry leaf
    belongs to exactly one backend.
    """
    owner = next(b for b in backends().values() if algorithm in b.algorithms)
    alt = (owner.fallback_algorithm if algorithm != owner.fallback_algorithm
           else owner.default_algorithm)
    return (algorithm, alt)


def _algo_options(o: SpGEMMOptions) -> dict:
    """The algorithm constructor kwargs under ``o``.

    A copy of ``algo_options`` with the facade's ``symbolic`` choice
    folded in (explicit ``algo_options['symbolic']`` wins).  An
    estimated symbolic phase on an algorithm without an estimator -- a
    neutral baseline or a CPU algorithm -- raises
    :class:`~repro.errors.OptionsError` instead of a constructor
    ``TypeError`` deep in the chain.
    """
    opts = dict(o.algo_options)
    symbolic = opts.get("symbolic", o.symbolic)
    if symbolic == "exact":
        # the universal default: inject nothing, so algorithms that
        # never heard of the estimator keep their exact signatures
        return opts
    if o.algorithm != "proposal":
        raise OptionsError(
            f"symbolic='estimate' is not supported by algorithm "
            f"{o.algorithm!r} (supported: ['proposal'])")
    opts["symbolic"] = symbolic
    return opts


def _dist_runner(o: SpGEMMOptions, devices: "int | tuple[str, ...]",
                 algo_opts: dict) -> SpGEMMAlgorithm:
    """The :class:`~repro.dist.DistSpGEMM` under ``o`` over ``devices``.

    It builds each device's engine and runs the per-device tuning
    itself, so ``cache_budget_bytes`` sizes those engines.  The fields
    it cannot honour, the resilience ladder's (a pool recovers by
    repartitioning), raise :class:`~repro.errors.OptionsError` rather
    than being dropped.
    """
    from repro.dist import DevicePool, DistSpGEMM

    if o.resilient or o.memory_budget is not None:
        raise OptionsError(
            "resilient / memory_budget do not compose with devices: a "
            "device pool recovers by repartitioning")
    engine = True if o.engine is None else bool(o.engine)
    kw: dict[str, Any] = dict(algorithm=o.algorithm, engine=engine,
                              **algo_opts)
    if engine and o.cache_budget_bytes is not None:
        kw["cache_budget_bytes"] = o.cache_budget_bytes
    if isinstance(devices, tuple):
        where: dict[str, Any] = {
            "pool": DevicePool.from_names(list(devices), **kw)}
    else:
        where = {"n_devices": int(devices)}
    return DistSpGEMM(interconnect=o.interconnect, tune=o.tune,
                      tune_store=o.tune_store, **where, **kw)


def runner_for(options: SpGEMMOptions) -> SpGEMMAlgorithm:
    """Compile an options object into its runner chain.

    The one place the wrapper layers are built: ``algorithm`` names the
    leaf and the facade fields add the wrappers around it, outermost
    first -- tuning, the plan-cached engine, the resilience ladder, the
    leaf.  ``devices`` builds a :class:`~repro.dist.DistSpGEMM` instead,
    which composes its per-device engines and tuning itself.  Unknown
    algorithm names raise :class:`~repro.errors.UnknownAlgorithmError`
    here, whichever wrappers are asked for.
    """
    from repro.baselines.registry import ALGORITHMS, create

    o = options
    if o.algorithm not in ALGORITHMS:
        raise UnknownAlgorithmError(o.algorithm, ALGORITHMS)
    algo_opts = _algo_options(o)
    if o.devices is not None:
        return _dist_runner(o, o.devices, algo_opts)

    if o.resilient or o.memory_budget is not None:
        from repro.core.resilient import ResilientSpGEMM

        opts = dict(algo_opts)
        # keep the chosen algorithm first in the fallback chain
        opts.setdefault("algorithms", _fallback_chain(o.algorithm))
        opts.setdefault("max_panels", o.max_panels)
        if o.memory_budget is not None:
            opts.setdefault("memory_budget", int(o.memory_budget))
        runner: SpGEMMAlgorithm = ResilientSpGEMM(**opts)
    else:
        runner = create(o.algorithm, **algo_opts)
    if o.engine:
        from repro.engine import SpGEMMEngine

        kw: dict[str, int] = {}
        if o.cache_budget_bytes is not None:
            kw["cache_budget_bytes"] = o.cache_budget_bytes
        runner = SpGEMMEngine(runner, **kw)
    if o.tune:
        from repro.tune.store import TuningStore
        from repro.tune.tuned import TunedSpGEMM

        store = o.tune_store if isinstance(o.tune_store, TuningStore) else None
        path = o.tune_store if isinstance(o.tune_store, str) else None
        runner = TunedSpGEMM(algorithm=runner, store=store, store_path=path)
    return runner


def multiply(A: CSRMatrix, B: CSRMatrix,
             options: SpGEMMOptions | None = None, *,
             matrix_name: str = "", faults: FaultPlan | None = None,
             **option_fields: Any) -> SpGEMMResult:
    """``C = A @ B`` -- the one public entry point.

    Pass a ready :class:`SpGEMMOptions`, or its fields directly::

        repro.multiply(A, B, options=SpGEMMOptions(tune=True))
        repro.multiply(A, B, algorithm="cusparse", precision="single")

    ``matrix_name`` labels reports and ``faults`` injects a
    deterministic :class:`~repro.gpu.faults.FaultPlan`; both are
    per-call, not per-configuration, which is why they stay out of the
    options object.

    A keyword typo among the option fields raises
    :class:`~repro.errors.OptionsError` naming the valid fields and the
    closest match, not a bare dataclass ``TypeError``.
    """
    if options is None:
        _check_option_names(option_fields, context="option")
        options = SpGEMMOptions(**option_fields)
    elif option_fields:
        raise TypeError(
            "pass either options= or option fields, not both "
            f"(got both options and {sorted(option_fields)})")
    runner = runner_for(options)
    if not options.observe:
        from repro.obs.events import observe_runs

        with observe_runs(False):
            return runner.multiply(A, B, precision=options.precision,
                                   device=options.device,
                                   matrix_name=matrix_name, faults=faults)
    return runner.multiply(A, B, precision=options.precision,
                           device=options.device, matrix_name=matrix_name,
                           faults=faults)
