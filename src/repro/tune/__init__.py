"""Cost-model autotuner for the proposal's Table I parameter space.

The paper fixes its kernel parameters for the P100 (Section III-D);
other devices -- and skewed matrices -- can prefer different boundaries.
This package searches the construction inputs of
:func:`repro.core.params.build_group_table` (``t_max``, PWARP width and
boundary, the TB block-size ladder) using the repo's own modeled cost
machinery as the objective:

* :mod:`repro.tune.sketch` -- a cheap structural summary of ``A @ B``
  (log2-bucketed row histograms) that seeds the search and keys the
  tuning store;
* :mod:`repro.tune.tuner` -- the search itself: every candidate is
  scored analytically on the sketch, the best few are measured with real
  multiplies, and the winner is validated bit-identically against the
  reference oracle (falling back to the paper's defaults when nothing
  beats them);
* :mod:`repro.tune.store` -- a persistent JSON store of tuned configs
  keyed by ``(device, precision, sketch digest)``;
* :mod:`repro.tune.tuned` -- :class:`TunedSpGEMM`, what ``tune=True``
  on the options facade builds: a wrapper that tunes, sets the winning
  parameters on its runner chain's leaf and annotates the run report
  with ``tune_*`` events.

A leaf's family is chosen in one place, :func:`~repro.tune.tuner.
tuning_family`, which the wrapper and the ``dist`` driver both call.
"""

from repro.tune.sketch import MatrixSketch, sketch_matrix
from repro.tune.store import STORE_SCHEMA, TuningStore
from repro.tune.tuned import TunedSpGEMM
from repro.tune.tuner import Autotuner, TuneResult, candidate_space, modeled_total

__all__ = [
    "Autotuner",
    "MatrixSketch",
    "STORE_SCHEMA",
    "TuneResult",
    "TunedSpGEMM",
    "TuningStore",
    "candidate_space",
    "modeled_total",
    "sketch_matrix",
]
