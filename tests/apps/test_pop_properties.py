"""Property tests: summed-area POP block counts equal per-block mask sums.

``imbalance`` reads each block's ocean count from four corners of a
summed-area table built once per mask.  The reference sums the ocean
mask over each block's slice, as the code did before the table.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.apps.pop import decompose, imbalance, PopGrid, TENTH_DEGREE
from repro.apps.pop.grid import _block_ocean_counts, _ocean_table


def reference_counts(grid, px, py, seed):
    ocean = ~grid.land_mask(seed)
    ys = np.linspace(0, grid.ny, py + 1, dtype=int)
    xs = np.linspace(0, grid.nx, px + 1, dtype=int)
    return np.array(
        [
            ocean[ys[j] : ys[j + 1], xs[i] : xs[i + 1]].sum()
            for j in range(py)
            for i in range(px)
        ],
        dtype=float,
    )


@st.composite
def decompositions(draw):
    nx = draw(st.integers(1, 90))
    ny = draw(st.integers(1, 60))
    px = draw(st.integers(1, nx))
    py = draw(st.integers(1, ny))
    fraction = draw(st.sampled_from([0.05, 0.5, 0.71, 0.93, 1.0]))
    seed = draw(st.integers(0, 2**16))
    return PopGrid(nx=nx, ny=ny, levels=1, ocean_fraction=fraction), px, py, seed


@settings(max_examples=120, deadline=None)
@given(decompositions())
@example((PopGrid(nx=17, ny=5, levels=1), 17, 1, 101))  # px = nx, py = 1
@example((PopGrid(nx=13, ny=11, levels=1), 5, 3, 7))  # uneven linspace edges
@example((PopGrid(nx=1, ny=1, levels=1, ocean_fraction=1.0), 1, 1, 0))
def test_block_counts_match_slice_sums(case):
    grid, px, py, seed = case
    fast = _block_ocean_counts(grid, px, py, seed)
    slow = reference_counts(grid, px, py, seed)
    assert fast.dtype == slow.dtype
    assert np.array_equal(fast, slow)
    # Same values in the same order: mean and max are bit-identical.
    assert fast.mean() == slow.mean() and fast.max() == slow.max()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 400), st.integers(0, 50))
def test_imbalance_matches_reference(processes, seed):
    grid = PopGrid(nx=120, ny=80, levels=1)
    px, py = decompose(processes, grid.nx, grid.ny)
    if px > grid.nx or py > grid.ny:
        return
    slow = reference_counts(grid, px, py, seed)
    imb = imbalance(grid, processes, seed=seed)
    assert (imb.mean_points, imb.max_points) == (slow.mean(), slow.max())


def test_mask_built_once_across_decompositions(monkeypatch):
    builds = []
    land_mask = PopGrid.land_mask

    def counting(self, seed=101):
        builds.append(seed)
        return land_mask(self, seed)

    monkeypatch.setattr(PopGrid, "land_mask", counting)
    _ocean_table.cache_clear()
    try:
        for processes in (100, 500, 1000, 2000, 4000, 8000, 16000, 40000):
            imbalance(TENTH_DEGREE, processes)
        assert _ocean_table.cache_info().misses == 1
        assert builds == [101]
    finally:
        _ocean_table.cache_clear()
