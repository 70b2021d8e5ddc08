"""Property tests: POP's cell-table mask and block counts equal the
full-resolution construction.

``land_mask`` repeats a mask kept on 8x8 cells and thresholded from the
sorted cell values; ``imbalance`` reads each block's ocean count from a
summed-area table of the ocean cells.  The references build the
full-resolution field, threshold it with ``np.quantile`` and sum the
ocean mask over each block's slice, as the code did before the cells.
"""

import pathlib

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.apps.pop import decompose, grid as grid_module, imbalance, PopGrid, TENTH_DEGREE
from repro.apps.pop.grid import _block_ocean_counts, _land_cells
from repro.campaign.cache import artifact_text
from repro.core import run_experiment

FRACTIONS = [0.05, 0.3, 0.5, 0.71, 0.93, 1.0]
PAPER_DECOMPOSITIONS = (100, 500, 1000, 2000, 4000, 8000, 16000, 40000)
PINNED = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "output"


def reference_mask(grid, seed):
    """The full-resolution land mask: smooth, upsample, threshold."""
    rng = np.random.default_rng(seed)
    field = rng.standard_normal((grid.ny // 8 + 2, grid.nx // 8 + 2))
    for _ in range(6):
        field = 0.25 * (
            np.roll(field, 1, 0)
            + np.roll(field, -1, 0)
            + np.roll(field, 1, 1)
            + np.roll(field, -1, 1)
        )
    big = np.kron(field, np.ones((8, 8)))[: grid.ny, : grid.nx]
    return big > np.quantile(big, grid.ocean_fraction)


def reference_counts(grid, px, py, seed):
    ocean = ~reference_mask(grid, seed)
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
def masks(draw):
    nx = draw(st.integers(1, 260))
    ny = draw(st.integers(1, 180))
    fraction = draw(st.sampled_from(FRACTIONS))
    seed = draw(st.integers(0, 2**16))
    return PopGrid(nx=nx, ny=ny, levels=1, ocean_fraction=fraction), seed


@settings(max_examples=200, deadline=None)
@given(masks())
@example((PopGrid(nx=1, ny=1, levels=1), 101))
@example((PopGrid(nx=7, ny=9, levels=1), 101))
@example((PopGrid(nx=8, ny=8, levels=1), 101))
@example((PopGrid(nx=17, ny=5, levels=1), 101))
@example((TENTH_DEGREE, 101))
# The median of 17 points falls exactly on the first point of a cell
# above a lower one: the threshold must be that lower cell's value.
@example((PopGrid(nx=17, ny=1, levels=1, ocean_fraction=0.5), 46931))
# Counting the partial last row or column of cells as full moves the
# threshold onto another cell here.
@example((PopGrid(nx=35, ny=22, levels=1, ocean_fraction=0.3), 54244))
def test_land_mask_matches_reference(case):
    grid, seed = case
    mask = grid.land_mask(seed)
    assert mask.shape == (grid.ny, grid.nx)
    assert np.array_equal(mask, reference_mask(grid, seed))


def test_land_mask_is_fresh_and_memo_read_only():
    grid = PopGrid(nx=21, ny=13, levels=1)
    mask = grid.land_mask(7)
    assert mask.flags.writeable
    mask[...] = ~mask
    assert np.array_equal(grid.land_mask(7), reference_mask(grid, 7))
    land, table = _land_cells(grid.nx, grid.ny, grid.ocean_fraction, 7)
    assert not land.flags.writeable and not table.flags.writeable


@st.composite
def decompositions(draw):
    nx = draw(st.integers(1, 90))
    ny = draw(st.integers(1, 60))
    px = draw(st.integers(1, nx))
    py = draw(st.integers(1, ny))
    fraction = draw(st.sampled_from(FRACTIONS))
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
    built = []

    def never(self, seed=101):
        built.append(seed)
        raise AssertionError("imbalance built the full-resolution land mask")

    monkeypatch.setattr(PopGrid, "land_mask", never)
    _land_cells.cache_clear()
    imbalance.cache_clear()
    try:
        for processes in PAPER_DECOMPOSITIONS:
            imbalance(TENTH_DEGREE, processes)
        assert _land_cells.cache_info().misses == 1
        assert built == []
    finally:
        _land_cells.cache_clear()


def test_fig4_and_table3_count_each_decomposition_once(monkeypatch):
    """Fig. 4 and Table 3 ask for 93 imbalances of 23 decompositions:
    each decomposition's blocks are counted once, and both artifacts
    still equal their pins."""
    counted = []

    def counting(grid, px, py, seed):
        counted.append((grid, px, py, seed))
        return _block_ocean_counts(grid, px, py, seed)

    monkeypatch.setattr(grid_module, "_block_ocean_counts", counting)
    imbalance.cache_clear()
    try:
        for eid in ("fig4", "table3"):
            pinned = (PINNED / f"{eid}.txt").read_text(encoding="utf-8")
            assert artifact_text(run_experiment(eid)) == pinned
        assert len(counted) == len(set(counted)) == 23
    finally:
        imbalance.cache_clear()
