"""POP's displaced-pole grid and block decomposition.

The tenth-degree benchmark (paper Section III.A): "a displaced-pole
longitude-latitude horizontal grid with the pole of the grid shifted
into Greenland ... 0.1 degree in longitude (10km) around the equator,
utilizing a 3600 x 2400 horizontal grid and 40 vertical levels."

The land mask matters for performance: ocean-only points do work, so
blocks with more land are cheaper, and the imbalance between blocks
grows as blocks shrink (more ranks) — the baroclinic load imbalance the
paper measured with its timing barrier (Fig. 4b).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

__all__ = ["PopGrid", "TENTH_DEGREE", "decompose", "Imbalance"]


@dataclass(frozen=True)
class PopGrid:
    """A POP horizontal grid with vertical levels."""

    nx: int
    ny: int
    levels: int
    #: fraction of horizontal points that are ocean
    ocean_fraction: float = 0.71

    def __post_init__(self) -> None:
        if min(self.nx, self.ny, self.levels) < 1:
            raise ValueError("grid extents must be >= 1")
        if not 0 < self.ocean_fraction <= 1:
            raise ValueError("ocean_fraction must be in (0, 1]")

    @property
    def horizontal_points(self) -> int:
        return self.nx * self.ny

    @property
    def points3d(self) -> int:
        return self.horizontal_points * self.levels

    def land_mask(self, seed: int = 101) -> np.ndarray:
        """A synthetic continental land mask (True = land).

        Continents are built from a few smoothed random blobs so that
        land is *spatially coherent* — which is what creates block-level
        load imbalance (random scatter would average out).
        """
        rng = np.random.default_rng(seed)
        field = rng.standard_normal((self.ny // 8 + 2, self.nx // 8 + 2))
        # Smooth by repeated neighbour averaging, then upsample.
        for _ in range(6):
            field = 0.25 * (
                np.roll(field, 1, 0)
                + np.roll(field, -1, 0)
                + np.roll(field, 1, 1)
                + np.roll(field, -1, 1)
            )
        big = np.kron(field, np.ones((8, 8)))[: self.ny, : self.nx]
        # Threshold at the requested land fraction.
        cut = np.quantile(big, self.ocean_fraction)
        return big > cut


#: The paper's tenth-degree benchmark grid.
TENTH_DEGREE = PopGrid(nx=3600, ny=2400, levels=40)


@dataclass(frozen=True)
class Imbalance:
    """Block-level work imbalance for one decomposition."""

    processes: int
    mean_points: float
    max_points: float

    @property
    def factor(self) -> float:
        """max/mean work ratio (1.0 = perfectly balanced)."""
        return self.max_points / self.mean_points if self.mean_points > 0 else 1.0


def decompose(processes: int, nx: int, ny: int) -> Tuple[int, int]:
    """2-D block decomposition: the most-square process grid."""
    if processes < 1:
        raise ValueError("processes must be >= 1")
    best = (processes, 1)
    best_score = float("inf")
    p = 1
    while p * p <= processes:
        if processes % p == 0:
            q = processes // p
            # Prefer the split whose block aspect matches the grid's.
            for cand in ((p, q), (q, p)):
                bx, by = nx / cand[0], ny / cand[1]
                score = max(bx, by) / max(1e-9, min(bx, by))
                if score < best_score:
                    best_score = score
                    best = cand
        p += 1
    return best


@lru_cache(maxsize=4)
def _ocean_table(nx: int, ny: int, ocean_fraction: float, seed: int) -> np.ndarray:
    """Summed-area table of the ocean mask: ``table[j, i]`` = ocean points
    in rows ``< j`` and columns ``< i``.

    Built once per mask; the float field behind the mask is gone by the
    time the table is summed.  int32 holds any grid below 2**31 points.
    """
    ocean = ~PopGrid(nx=nx, ny=ny, levels=1, ocean_fraction=ocean_fraction).land_mask(seed)
    dtype = np.int32 if nx * ny < 2**31 else np.int64
    table = np.zeros((ny + 1, nx + 1), dtype=dtype)
    np.cumsum(ocean, axis=0, dtype=dtype, out=table[1:, 1:])
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
    table.flags.writeable = False
    return table


def _block_ocean_counts(grid: PopGrid, px: int, py: int, seed: int) -> np.ndarray:
    """Ocean points per block of a ``px`` x ``py`` split, flat in (j, i) order.

    Block edges are the ``np.linspace`` integer edges; each count is
    four corner reads of the summed-area table.
    """
    table = _ocean_table(grid.nx, grid.ny, grid.ocean_fraction, seed)
    ys = np.linspace(0, grid.ny, py + 1, dtype=int)[:, None]
    xs = np.linspace(0, grid.nx, px + 1, dtype=int)
    return (
        table[ys[1:], xs[1:]]
        - table[ys[:-1], xs[1:]]
        - table[ys[1:], xs[:-1]]
        + table[ys[:-1], xs[:-1]]
    ).astype(float).ravel()


def imbalance(grid: PopGrid, processes: int, seed: int = 101) -> Imbalance:
    """Baroclinic load imbalance of a ``processes``-rank decomposition.

    Computed from the actual per-block ocean point counts of the
    synthetic mask; grows as blocks shrink, exactly the effect the
    paper isolated with its pre-barotropic timing barrier.
    """
    px, py = decompose(processes, grid.nx, grid.ny)
    if px > grid.nx or py > grid.ny:
        raise ValueError(
            f"{processes} ranks cannot tile a {grid.nx}x{grid.ny} grid"
        )
    counts = _block_ocean_counts(grid, px, py, seed)
    return Imbalance(
        processes=processes,
        mean_points=float(counts.mean()),
        max_points=float(counts.max()),
    )
