"""Benchmark harness: datasets, runner, memory model, table/figure renderers.

One module per concern:

* :mod:`repro.bench.datasets` -- the Table II matrix analogues and the
  three large graph analogues, with full-scale paper statistics attached.
* :mod:`repro.bench.runner` -- run algorithms over datasets, collect
  :class:`~repro.gpu.timeline.SimReport` objects, render the paper's
  tables and figure series as text.
* :mod:`repro.bench.memory_model` -- full-scale analytic peak-memory
  estimates (Figure 4 ratios, Table III out-of-memory entries).
"""

from repro.bench.datasets import (DATASETS, LARGE_GRAPHS, TABLE2, Dataset,
                                  PaperStats, get_dataset)
from repro.bench.profile import profile_call, render_stats
from repro.bench.runner import BenchRun, run_suite
from repro.bench.wallclock import WallClockStat, run_wallclock_suite

__all__ = [
    "DATASETS",
    "LARGE_GRAPHS",
    "TABLE2",
    "BenchRun",
    "Dataset",
    "PaperStats",
    "WallClockStat",
    "get_dataset",
    "profile_call",
    "render_stats",
    "run_suite",
    "run_wallclock_suite",
]
