"""Composition contract: every leaf under every wrapper combination.

Each of the eight registry leaves runs under every combination of
``tune``, ``resilient``, ``engine`` and ``devices`` (one device, or a
pool of two) on one small operand -- GPU leaves on the P100, CPU leaves
on the KNL.  The contract:

* a run returns the oracle's structure and values; the one refusal is a
  typed :class:`~repro.errors.OptionsError` for a pool asked for the
  resilience ladder (a pool recovers by repartitioning);
* a tuned run of a leaf with a param type adopts the tuned parameters on
  the leaf that ran: one ``tune_apply`` per device, and on one device
  :meth:`~repro.tune.TunedSpGEMM.last_overrides` reports what was
  applied;
* a leaf with nothing to tune runs no search.

A product over zero rows gets the same contract from every leaf under
each wrapper alone: the empty result, with every conservation law
holding (so no simulated allocation outlives the run).
"""

import itertools

import numpy as np
import pytest

from repro import SpGEMMOptions, runner_for
from repro.base import leaf_of
from repro.baselines.registry import ALGORITHMS
from repro.cpu.device import KNL64
from repro.errors import OptionsError
from repro.gpu.device import P100
from repro.obs import events as E
from repro.obs.metrics import check_conservation
from repro.sparse import generators
from repro.sparse.csr import CSRMatrix
from repro.sparse.reference import spgemm_reference

#: (tune, resilient, engine) -- every wrapper combination on one device
WRAPPERS = list(itertools.product((False, True), repeat=3))


def _wrapper_id(flags) -> str:
    names = [n for n, on in zip(("tune", "resilient", "engine"), flags) if on]
    return "+".join(names) or "bare"


@pytest.fixture(scope="module")
def operand():
    A = generators.banded(120, 6, rng=1)
    return A, spgemm_reference(A, A)


@pytest.mark.parametrize("devices", [None, 2], ids=["one", "pool"])
@pytest.mark.parametrize("tune,resilient,engine", WRAPPERS,
                         ids=[_wrapper_id(f) for f in WRAPPERS])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_leaf_under_wrappers(operand, algorithm, tune, resilient, engine,
                             devices):
    A, ref = operand
    leaf_cls = ALGORITHMS[algorithm]
    device = KNL64 if leaf_cls.backend_name == "cpu" else P100
    options = SpGEMMOptions(algorithm=algorithm, device=device, tune=tune,
                            resilient=resilient, engine=engine,
                            devices=devices)
    if devices and resilient:
        with pytest.raises(OptionsError):
            runner_for(options)
        return

    runner = runner_for(options)
    res = runner.multiply(A, A, precision=options.precision, device=device)
    C = res.matrix.canonicalize()
    assert np.array_equal(C.rpt, ref.rpt) and np.array_equal(C.col, ref.col)
    assert np.array_equal(C.val, ref.val)

    kinds = [e.kind for e in res.report.events]
    if not tune or leaf_cls.param_type is None:
        assert E.TUNE_SEARCH not in kinds and E.TUNE_APPLY not in kinds
        return
    applied = [e.attrs["overrides"] for e in res.report.events
               if e.kind == E.TUNE_APPLY]
    if devices:
        leaves = [leaf_of(s.runner) for s in runner.pool(device).slots]
    else:
        leaves = [leaf_of(runner)]
        assert runner.last_overrides() == leaves[0].params
    assert all(isinstance(leaf, leaf_cls) for leaf in leaves)
    assert applied == [leaf.params.describe() for leaf in leaves]


#: one wrapper at a time, as option fields
ALONE = {"bare": {}, "tune": {"tune": True}, "resilient": {"resilient": True},
         "engine": {"engine": True}, "pool": {"devices": 2}}


@pytest.mark.parametrize("shapes", [((0, 5), (5, 3)), ((0, 0), (0, 0))],
                         ids=["0x5@5x3", "0x0@0x0"])
@pytest.mark.parametrize("wrapper", sorted(ALONE))
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_zero_row_product(algorithm, wrapper, shapes):
    """A per-row kernel over zero rows is one block with no work, so a
    product with no rows runs like any other."""
    A, B = CSRMatrix.empty(shapes[0]), CSRMatrix.empty(shapes[1])
    device = KNL64 if ALGORITHMS[algorithm].backend_name == "cpu" else P100
    options = SpGEMMOptions(algorithm=algorithm, device=device,
                            **ALONE[wrapper])
    res = runner_for(options).multiply(A, B, precision=options.precision,
                                       device=device)
    ref = spgemm_reference(A, B)
    assert res.matrix.shape == ref.shape
    assert np.array_equal(res.matrix.rpt, ref.rpt)
    assert np.array_equal(res.matrix.col, ref.col)
    assert np.array_equal(res.matrix.val, ref.val)
    check_conservation(res.report)


#: The streaming passes over per-row arrays each leaf runs
#: (``pass_over_rows_kernel`` on both backends).
PASS_KERNELS = {"bhsparse": {"bhsparse_binning"},
                "hash-cpu": {"scan_rpt_c"},
                "heap-cpu": {"scan_rpt_c"},
                "propblock": {"scan_rpt_c"},
                "proposal": {"grouping_symbolic", "scan_rpt_c",
                             "grouping_numeric"}}


@pytest.mark.parametrize("shapes", [((0, 5), (5, 3)), ((0, 0), (0, 0))],
                         ids=["0x5@5x3", "0x0@0x0"])
@pytest.mark.parametrize("algorithm", sorted(PASS_KERNELS))
def test_zero_row_pass_kernels_charge_an_empty_block(algorithm, shapes):
    """A pass over zero rows is one block with no work: it charges
    exactly what its leaf's count kernel charges over the same rows."""
    A, B = CSRMatrix.empty(shapes[0]), CSRMatrix.empty(shapes[1])
    device = KNL64 if ALGORITHMS[algorithm].backend_name == "cpu" else P100
    kernels = runner_for(SpGEMMOptions(algorithm=algorithm, device=device)
                         ).multiply(A, B, device=device).report.kernels
    count = next(k for k in kernels if k.name.endswith("count_products"))
    passes = [k for k in kernels if k.name in PASS_KERNELS[algorithm]]
    assert {k.name for k in passes} == PASS_KERNELS[algorithm]
    for k in passes:
        assert (k.n_blocks, k.block_seconds) == (1, count.block_seconds), \
            k.name
