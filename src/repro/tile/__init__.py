"""Tile-based SpGEMM subsystem (TileSpGEMM-style 2-D tiling).

A third algorithm family alongside the paper's hash proposal and the
CPU backends: :class:`TiledCSR` is the fixed-size 2-D tile intermediate
format, :class:`TileSpGEMM` runs conversion + the three-step pipeline
(tile-pair matching, density-driven accumulator selection, numeric tile
products) with **no global atomics**, and :class:`TileParams` is the
family's tuning space.  Registered as ``tile`` on the GPU backend;
composes with the engine plan cache, resilience ladder, autotuner and
``dist`` pools through the ordinary registry seams.
"""

from repro.tile.algorithm import TileSpGEMM
from repro.tile.format import DEFAULT_TILE, MAX_TILE, TiledCSR
from repro.tile.params import TileParams

__all__ = ["DEFAULT_TILE", "MAX_TILE", "TiledCSR", "TileParams",
           "TileSpGEMM"]
