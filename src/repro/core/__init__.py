"""The paper's contribution: hash-table SpGEMM with row grouping (nsparse).

Modules follow the flow of Figure 1:

1. :mod:`repro.core.count_products` -- intermediate products per row (Alg. 2).
2. :mod:`repro.core.grouping` + :mod:`repro.core.params` -- row groups and the
   per-group kernel parameters (Table I).
3. :mod:`repro.core.symbolic` -- counting output nnz per row with hash tables
   (Algs. 3-5), including the Group-0 shared-try / global-retry two-phase.
4. :mod:`repro.core.numeric` -- computing values, gathering and sorting each
   output row.
5. :mod:`repro.core.spgemm` -- orchestration, CUDA-stream assignment, memory
   management, and the public :class:`~repro.core.spgemm.HashSpGEMM`.

:mod:`repro.core.hashtable` implements Alg. 5 exactly (for tests and small
runs) plus the calibrated probe-count estimator used by the cost model.
"""

from repro.core.grouping import GroupAssignment, group_rows
from repro.core.hashtable import (HashTable, expected_probes,
                                  simulate_insertions,
                                  simulate_insertions_rows)
from repro.core.params import GroupParams, GroupTable, build_group_table
from repro.core.spgemm import HashSpGEMM

__all__ = [
    "GroupAssignment",
    "GroupParams",
    "GroupTable",
    "HashSpGEMM",
    "HashTable",
    "build_group_table",
    "expected_probes",
    "group_rows",
    "simulate_insertions",
    "simulate_insertions_rows",
]
