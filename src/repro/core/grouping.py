"""Row grouping (steps (2) and (6) of Figure 1).

Rows are partitioned into the groups of :mod:`repro.core.params` by their
intermediate-product count (before the symbolic phase) or by their output
nnz (before the numeric phase).  As in the paper, grouping never reorders
the matrix: it produces, per group, an array of gathered row indices --
that array is the proposal's only working-memory overhead besides the
Group-0 hash tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AlgorithmError
from repro.core.params import GroupParams, GroupTable
from repro.types import INDEX_DTYPE


@dataclass
class GroupAssignment:
    """Partition of the rows of A into kernel groups.

    ``rows_by_group[g]`` holds the (ascending) indices of the rows assigned
    to group ``g`` of ``table``; ``gids[i]`` is row ``i``'s group.
    """

    table: GroupTable
    gids: np.ndarray
    rows_by_group: list[np.ndarray]

    @property
    def n_rows(self) -> int:
        """Total rows partitioned."""
        return int(self.gids.shape[0])

    def nonempty(self) -> list[tuple[GroupParams, np.ndarray]]:
        """(params, row indices) for groups that actually contain rows."""
        return [(self.table[g], rows)
                for g, rows in enumerate(self.rows_by_group) if rows.shape[0]]

    def device_bytes(self) -> int:
        """Device memory of the gathered row-index arrays (4 B per row)."""
        return 4 * self.n_rows

    def stats(self, counts: np.ndarray) -> list[dict]:
        """Per-group decision record for the observability event stream.

        One dict per *non-empty* group: its id, kernel assignment, row
        count and the range of ``counts`` (products or nnz) it received.
        """
        counts = np.asarray(counts)
        out = []
        for params, rows in self.nonempty():
            c = counts[rows]
            out.append({
                "group": params.gid,
                "assign": params.assignment,
                "rows": int(rows.shape[0]),
                "count_min": int(c.min()),
                "count_max": int(c.max()),
            })
        return out


def _bounds(params: GroupParams, metric: str) -> tuple[int, float]:
    if metric == "products":
        lo, hi = params.min_products, params.max_products
    elif metric in ("nnz", "estimate"):
        # an estimated bound is grouped exactly like an exact nnz count:
        # the bound stands in for nnz, so each row's numeric table holds
        # at least bound >= nnz entries (overflow only on a violation)
        lo, hi = params.min_nnz, params.max_nnz
    else:
        raise AlgorithmError(f"unknown grouping metric {metric!r}")
    return lo, (np.inf if hi is None else hi)


def _partition_edges(table: GroupTable, metric: str) -> np.ndarray:
    """Ascending group thresholds (one per group boundary) of ``table``.

    Every table :func:`~repro.core.params.build_group_table` derives
    (tuned or not) has ranges that are contiguous, non-overlapping and
    start at zero, so group assignment reduces to one ``searchsorted``;
    any other shape would leave rows without a group or with two, and
    raises :class:`AlgorithmError`.
    """
    bounds = sorted((_bounds(p, metric) for p in table), key=lambda b: b[0])
    tiles = bounds[0][0] == 0 and bounds[-1][1] == np.inf and all(
        lo == hi + 1 for (_, hi), (lo, _) in zip(bounds[:-1], bounds[1:]))
    if not tiles:
        raise AlgorithmError(
            f"group table {table.device_name!r}: {metric} ranges {bounds} "
            f"do not tile [0, inf)")
    return np.asarray([lo for lo, _ in bounds[1:]])


def assign_gids(counts: np.ndarray, table: GroupTable,
                metric: str) -> np.ndarray:
    """Per-row group ids (int8): the group whose range holds each count.

    One ``searchsorted`` against the table's ascending thresholds
    (:func:`_partition_edges`, which rejects a table whose ranges do not
    tile ``[0, inf)``).
    """
    edges = _partition_edges(table, metric)
    # bucket index in ascending-lo order -> gid of that bucket
    order = np.argsort([_bounds(p, metric)[0] for p in table], kind="stable")
    gid_of_bucket = np.asarray([p.gid for p in table], dtype=np.int8)[order]
    return gid_of_bucket[np.searchsorted(edges, np.asarray(counts),
                                         side="right")]


def group_rows(counts: np.ndarray, table: GroupTable,
               metric: str) -> GroupAssignment:
    """Assign each row to its group by ``counts`` (products or nnz).

    Guarantees a partition: every row lands in exactly one group, since
    :func:`assign_gids` accepts only tables whose ranges tile
    ``[0, inf)``.
    """
    gids = assign_gids(counts, table, metric)
    rows_by_group = [np.flatnonzero(gids == params.gid).astype(INDEX_DTYPE)
                     for params in table]
    return GroupAssignment(table=table, gids=gids,
                           rows_by_group=rows_by_group)
