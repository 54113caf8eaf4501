"""Tunable parameters of the CPU algorithms.

The CPU search space is genuinely different from the GPU's Table I
(:class:`repro.core.params.ParamOverrides`): instead of hash-table caps
and block-size ladders, the knobs are thread count, row-block
granularity and (for propagation blocking) the bin count.
:class:`CPUParams` shares the one parameter protocol,
:class:`~repro.types.TunableParams`, with ``ParamOverrides``, so the
autotuner, the plan-cache keys and the persistent tuning store treat
both backends uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.types import TunableParams


@dataclass(frozen=True)
class CPUParams(TunableParams):
    """Tuned deviations from the CPU algorithms' built-in defaults.

    Every field defaults to ``None`` = "keep the derived value".
    Overrides only move chunking and binning boundaries -- the functional
    result is unchanged, which is what lets tuned configs stay
    bit-identical to the reference oracle.

    threads:
        Worker threads of every parallel region.  Defaults to all
        hardware threads (``cores * smt``); fewer threads trade
        parallelism for less SMT contention, more (capped at the
        hardware slots) is identity.
    block_rows:
        Rows per scheduling chunk of the row-parallel loops.  Small
        blocks load-balance skewed matrices; large blocks amortize the
        per-chunk scheduling overhead.
    bins:
        Column-range bin count of the propagation-blocking algorithm.
        More bins shrink each bin's merge working set (toward L2
        residency) but raise the propagate phase's scatter overhead.
    """

    threads: int | None = None
    block_rows: int | None = None
    bins: int | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "CPUParams":
        """Inverse of :meth:`to_dict`; unknown keys raise ``TypeError``."""
        return cls(**{k: int(v) for k, v in d.items()})
