"""Tunable parameters of the tile algorithm.

The tile family's knobs are genuinely different from both the GPU's
Table I space and the CPU's thread/block space: the tile edge fixes the
format itself, and the two density cutoffs drive step 2's per-tile
accumulator selection (dense array vs bitmap vs sorted list).
:class:`TileParams` shares the one parameter protocol,
:class:`~repro.types.TunableParams`, with ``ParamOverrides`` and
``CPUParams``, so the autotuner, plan-cache keys and the persistent
tuning store treat the third family uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.types import TunableParams

#: Built-in defaults (see :mod:`repro.tile.plan` resolvers).
DEFAULT_TILE_SIZE = 16
DEFAULT_DENSE_FRAC = 0.5
DEFAULT_LIST_FRAC = 0.125


@dataclass(frozen=True)
class TileParams(TunableParams):
    """Tuned deviations from the tile algorithm's built-in defaults.

    Every field defaults to ``None`` = "keep the built-in value".
    Overrides only move accumulator-selection boundaries and the tile
    edge -- the functional result is unchanged, which is what lets tuned
    configs stay bit-identical to the reference oracle.

    tile_size:
        Tile edge in rows/columns (2..64; default 16).  Larger tiles
        amortize per-tile metadata but dilute density on scattered
        patterns.  Not searched by the autotuner (it changes the tiled
        sketch itself); settable per instance.
    dense_frac:
        C-tile fill fraction at or above which step 2 picks the dense
        ``tile x tile`` accumulator (default 0.5).
    list_frac:
        C-tile fill fraction at or below which step 2 picks the sorted
        insertion list (default 0.125); between the cutoffs the bitmap
        accumulator is used.
    """

    tile_size: int | None = None
    dense_frac: float | None = None
    list_frac: float | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "TileParams":
        """Inverse of :meth:`to_dict`; unknown keys raise ``TypeError``."""
        kwargs: dict = {}
        for k, v in d.items():
            kwargs[k] = int(v) if k == "tile_size" else float(v)
        return cls(**kwargs)
