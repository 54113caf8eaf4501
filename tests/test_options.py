"""The unified facade: SpGEMMOptions, repro.multiply and evolve().

Pins the API contract: the options path works for every leaf algorithm
and every wrapper layer, the registry holds only the leaves, unknown
option-field names raise a typed :class:`OptionsError` naming the
closest match, and :func:`runner_for` -- the one compiler from options
to a runner chain -- composes engine / resilience / distribution /
tuning from the facade fields, rejecting unknown algorithm names and
field combinations it cannot honour.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import SpGEMMOptions, multiply, runner_for
from repro.backend import backends
from repro.baselines.registry import ALGORITHMS
from repro.core.resilient import ResilientSpGEMM
from repro.core.spgemm import HashSpGEMM
from repro.dist import DistSpGEMM
from repro.engine import SpGEMMEngine
from repro.errors import OptionsError, UnknownAlgorithmError
from repro.sparse import generators
from repro.tune.tuned import TunedSpGEMM

from tests.conftest import RUNNERS


@pytest.fixture(scope="module")
def A():
    return generators.power_law(300, 8, 60, rng=11)


def _same(r1, r2, rtol=1e-12):
    a, b = r1.matrix.canonicalize(), r2.matrix.canonicalize()
    assert np.array_equal(a.rpt, b.rpt)
    assert np.array_equal(a.col, b.col)
    np.testing.assert_allclose(a.val, b.val, rtol=rtol)


# -- the one entry point, per algorithm -------------------------------------

@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_multiply_works_for_every_registered_algorithm(A, name):
    res = multiply(A, A, options=SpGEMMOptions(**RUNNERS[name]))
    assert res.matrix.nnz > 0
    assert res.report.total_seconds > 0.0


def test_registry_holds_exactly_the_backend_leaves():
    leaves = {n for b in backends().values() for n in b.algorithms}
    assert set(ALGORITHMS) == leaves
    assert set(repro.algorithms()) == leaves


def test_option_fields_spelling_matches_options_object(A):
    _same(multiply(A, A, algorithm="cusparse", precision="single"),
          multiply(A, A, options=SpGEMMOptions(algorithm="cusparse",
                                               precision="single")))


def test_options_and_fields_together_is_an_error(A):
    with pytest.raises(TypeError, match="not both"):
        multiply(A, A, options=SpGEMMOptions(), algorithm="cusp")


# -- evolve + typed option errors -------------------------------------------

def test_evolve_replaces_and_revalidates():
    o = SpGEMMOptions()
    o2 = o.evolve(algorithm="cusp", symbolic="estimate")
    assert o2.algorithm == "cusp" and o2.symbolic == "estimate"
    assert o.algorithm == "proposal" and o.symbolic == "exact"
    # evolve re-runs __post_init__ normalization
    o3 = o.evolve(precision="single", devices=["P100", "K40"])
    assert o3.precision is repro.Precision.SINGLE
    assert o3.devices == ("P100", "K40")


def test_evolve_unknown_field_raises_options_error():
    with pytest.raises(OptionsError, match="symbolic") as ei:
        SpGEMMOptions().evolve(symblic="estimate")
    assert ei.value.unknown == ("symblic",)
    assert ei.value.suggestions == ("symbolic",)
    assert "algorithm" in ei.value.valid


def test_multiply_unknown_field_raises_options_error(A):
    with pytest.raises(OptionsError, match="algorithm"):
        multiply(A, A, algoritm="cusparse")


def test_invalid_symbolic_mode_raises_options_error():
    with pytest.raises(OptionsError, match="symbolic"):
        SpGEMMOptions(symbolic="guess")


def test_estimate_on_neutral_baseline_raises_options_error(A):
    with pytest.raises(OptionsError, match="cusp"):
        multiply(A, A, algorithm="cusp", symbolic="estimate")


# -- runner composition -----------------------------------------------------

def test_runner_for_plain_algorithm():
    assert isinstance(runner_for(SpGEMMOptions()), HashSpGEMM)


def test_runner_for_engine_wrap():
    r = runner_for(SpGEMMOptions(engine=True))
    assert isinstance(r, SpGEMMEngine)
    assert isinstance(r.inner, HashSpGEMM)


def test_runner_for_resilient_keeps_chosen_algorithm_first():
    r = runner_for(SpGEMMOptions(algorithm="cusp", resilient=True))
    assert isinstance(r, ResilientSpGEMM)
    assert r.algorithms[0] == "cusp"


def test_runner_for_memory_budget_implies_resilient():
    r = runner_for(SpGEMMOptions(memory_budget=1 << 20))
    assert isinstance(r, ResilientSpGEMM)
    assert r.memory_budget == 1 << 20


def test_runner_for_devices_builds_dist():
    r = runner_for(SpGEMMOptions(devices=2))
    assert isinstance(r, DistSpGEMM)
    hetero = runner_for(SpGEMMOptions(devices=("P100", "K40")))
    assert isinstance(hetero, DistSpGEMM)
    assert len(hetero.pool().slots) == 2


def test_runner_for_tune_wraps():
    r = runner_for(SpGEMMOptions(tune=True))
    assert isinstance(r, TunedSpGEMM)
    assert isinstance(r.inner, HashSpGEMM)
    r2 = runner_for(SpGEMMOptions(tune=True, engine=True))
    assert isinstance(r2, TunedSpGEMM)
    assert isinstance(r2.inner, SpGEMMEngine)


def test_options_normalizes_precision_and_devices():
    o = SpGEMMOptions(precision="single", devices=["P100", "K40"])
    assert o.precision is repro.Precision.SINGLE
    assert o.devices == ("P100", "K40")


def test_options_frozen_and_with_options():
    o = SpGEMMOptions()
    with pytest.raises(AttributeError):
        o.algorithm = "cusp"
    # evolve() is the one way to derive a variant
    assert not hasattr(o, "with_options")
    o2 = o.evolve(algorithm="cusp")
    assert o2.algorithm == "cusp" and o.algorithm == "proposal"
    assert "cusp" in o2.describe() and o.describe() == "default"


# -- the distributed path honours or rejects every facade field -------------

def test_dist_sizes_per_device_plan_caches():
    for devices in (2, ("P100", "K40")):
        r = runner_for(SpGEMMOptions(devices=devices,
                                     cache_budget_bytes=1234))
        assert [s.runner.cache.budget_bytes
                for s in r.pool().slots] == [1234, 1234]


def test_dist_rejects_non_default_tune_top_k():
    with pytest.raises(OptionsError, match="tune_top_k"):
        runner_for(SpGEMMOptions(devices=2, tune=True, tune_top_k=5))
    # the default search width composes, and top-k without tuning is moot
    assert isinstance(runner_for(SpGEMMOptions(devices=2, tune=True)),
                      DistSpGEMM)
    assert isinstance(runner_for(SpGEMMOptions(devices=2, tune_top_k=5)),
                      DistSpGEMM)


def test_dist_rejects_resilient():
    with pytest.raises(OptionsError, match="devices"):
        runner_for(SpGEMMOptions(devices=2, resilient=True))


def test_dist_rejects_memory_budget():
    with pytest.raises(OptionsError, match="devices"):
        runner_for(SpGEMMOptions(devices=("P100", "K40"),
                                 memory_budget=1 << 20))


# -- typed registry errors --------------------------------------------------

def test_unknown_algorithm_error_lists_names():
    from repro.baselines.registry import create

    with pytest.raises(UnknownAlgorithmError) as ei:
        create("nope")
    assert ei.value.name == "nope"
    assert set(ei.value.available) == set(ALGORITHMS)
    assert "proposal" in str(ei.value)


def test_multiply_raises_unknown_algorithm(A):
    with pytest.raises(UnknownAlgorithmError):
        multiply(A, A, options=SpGEMMOptions(algorithm="nope"))


@pytest.mark.parametrize("fields", [
    {}, {"engine": True}, {"tune": True}, {"resilient": True},
    {"devices": 2}, {"devices": ("P100", "K40")}],
    ids=["plain", "engine", "tune", "resilient", "dist", "pool"])
def test_runner_for_rejects_unknown_algorithm_on_every_path(fields):
    with pytest.raises(UnknownAlgorithmError):
        runner_for(SpGEMMOptions(algorithm="nope", **fields))


@pytest.mark.parametrize("wrapper", ["engine", "resilient", "dist", "tune"])
def test_wrapper_names_are_not_algorithms(wrapper):
    with pytest.raises(UnknownAlgorithmError):
        runner_for(SpGEMMOptions(algorithm=wrapper))
