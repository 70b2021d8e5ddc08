"""POP's displaced-pole grid and block decomposition.

The tenth-degree benchmark (paper Section III.A): "a displaced-pole
longitude-latitude horizontal grid with the pole of the grid shifted
into Greenland ... 0.1 degree in longitude (10km) around the equator,
utilizing a 3600 x 2400 horizontal grid and 40 vertical levels."

The land mask matters for performance: ocean-only points do work, so
blocks with more land are cheaper, and the imbalance between blocks
grows as blocks shrink (more ranks) — the baroclinic load imbalance the
paper measured with its timing barrier (Fig. 4b).

The synthetic land is drawn on square cells of 8 x 8 grid points, so
the mask is constant on each cell (only the last row or column of cells
can be partial).  ``imbalance`` never builds the full-resolution mask:
it reads each block's ocean count from a summed-area table of the
ocean cells, and it computes each decomposition once per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

__all__ = ["PopGrid", "TENTH_DEGREE", "decompose", "Imbalance"]

#: Side of the square cells the land field is drawn on, in grid points.
_CELL = 8


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
        load imbalance (random scatter would average out).  The mask is
        constant on 8x8-point cells; this repeats the memoized cell mask
        into a fresh, writable array.  ``imbalance`` counts ocean points
        from the cells' summed-area table and never builds this array.
        """
        land, _ = _land_cells(self.nx, self.ny, self.ocean_fraction, seed)
        return land.repeat(_CELL, 0).repeat(_CELL, 1)[: self.ny, : self.nx]


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
def _land_cells(
    nx: int, ny: int, ocean_fraction: float, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The land mask on its cells, and the summed-area table of ocean cells.

    ``land[q, p]`` covers grid rows ``8q`` to ``8q + 7`` and columns
    ``8p`` to ``8p + 7``, clipped to the grid.  ``table[q, p]`` counts
    the ocean cells in cell rows ``< q`` and cell columns ``< p``.  Both
    arrays are read-only.
    """
    rng = np.random.default_rng(seed)
    field = rng.standard_normal((ny // _CELL + 2, nx // _CELL + 2))
    # Smooth by repeated neighbour averaging.
    for _ in range(6):
        field = 0.25 * (
            np.roll(field, 1, 0)
            + np.roll(field, -1, 0)
            + np.roll(field, 1, 1)
            + np.roll(field, -1, 1)
        )
    rows, cols = -(-ny // _CELL), -(-nx // _CELL)
    field = field[:rows, :cols]
    # Threshold at the requested land fraction: np.quantile's linear
    # method over all nx * ny grid points, bit for bit.  The order
    # statistics at (n - 1) * q and at the next position (clamped to
    # n - 1) are read from the cell values sorted once, each cell
    # counted once per grid point it covers, and blended as numpy's
    # lerp blends them.
    area = np.outer(
        np.minimum(_CELL, ny - _CELL * np.arange(rows)),
        np.minimum(_CELL, nx - _CELL * np.arange(cols)),
    )
    order = np.argsort(field, axis=None)
    ends = np.cumsum(area.ravel()[order])
    n = nx * ny
    index = (n - 1) * ocean_fraction
    lo = math.floor(index)
    a, b = field.ravel()[order[np.searchsorted(ends, [lo, min(lo + 1, n - 1)], "right")]]
    t = index - lo
    cut = a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)
    land = field > cut
    table = np.zeros((rows + 1, cols + 1), dtype=np.int64)
    np.cumsum(~land, axis=0, dtype=np.int64, out=table[1:, 1:])
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
    land.flags.writeable = table.flags.writeable = False
    return land, table


def _block_ocean_counts(grid: PopGrid, px: int, py: int, seed: int) -> np.ndarray:
    """Ocean points per block of a ``px`` x ``py`` split, flat in (j, i) order.

    Block edges are the ``np.linspace`` integer edges.  The mask is
    constant on each cell, so the ocean points in grid rows ``< 8q + s``
    and columns ``< 8p + t`` (``0 <= s, t <= 8``) are an exact integer
    blend of the four cell-table entries around ``(q, p)``: cell rows
    ``q`` and ``q + 1`` weighted ``8 - s`` and ``s``, then cell columns
    ``p`` and ``p + 1`` weighted ``8 - t`` and ``t``.  Each block's
    count is four corner reads of those edge sums.
    """
    _, table = _land_cells(grid.nx, grid.ny, grid.ocean_fraction, seed)
    ys = np.linspace(0, grid.ny, py + 1, dtype=int)
    xs = np.linspace(0, grid.nx, px + 1, dtype=int)
    # An edge on the grid's last cell boundary is offset 8 into the last cell.
    q = np.minimum(ys // _CELL, table.shape[0] - 2)
    p = np.minimum(xs // _CELL, table.shape[1] - 2)
    s, t = (ys - _CELL * q)[:, None], xs - _CELL * p
    rows = (_CELL - s) * table[q] + s * table[q + 1]
    below = (_CELL - t) * rows[:, p] + t * rows[:, p + 1]
    return (
        below[1:, 1:] - below[:-1, 1:] - below[1:, :-1] + below[:-1, :-1]
    ).astype(float).ravel()


@lru_cache(maxsize=256)
def imbalance(grid: PopGrid, processes: int, seed: int = 101) -> Imbalance:
    """Baroclinic load imbalance of a ``processes``-rank decomposition.

    Computed from the actual per-block ocean point counts of the
    synthetic mask; grows as blocks shrink, exactly the effect the
    paper isolated with its pre-barotropic timing barrier.

    The result is a pure function of its arguments, so it is memoized
    (``imbalance.cache_clear()`` empties the memo): Fig. 4 and Table 3
    ask for 23 distinct decompositions 93 times.
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
