import math

import numpy as np
import pytest

from scipy import ndimage

from rovernav.grids import (
    _mask_geometry, bilinear_sample, dilate_disc, disc_max, disc_min, interior, plane_fit_grid, plane_fit_points,
    window_sums,
)

import oracles
from oracles import dilate_disc as dilate_disc_oracle
from oracles import plane_fit_window

# Radii in cells as the package forms them (metres / cell size), and radii
# at and one ulp below sqrt(n). The float sqrt(13) and sqrt(65) square to
# just under 13 and 65, so the disc leaves out the offsets at distance
# sqrt(n), while a plain `distance <= radius` (or an unrounded squared
# distance) keeps them.
RADII = [
    0.0, 0.5, 1.0, 3.5 / 0.5, 1.5 / 0.1, 3.5 / 0.1, math.sqrt(13), math.sqrt(65),
    float(np.nextafter(math.sqrt(13), 0)), float(np.nextafter(math.sqrt(65), 0)),
]


def _check(mask, radius):
    got = dilate_disc(mask, radius)
    assert got.dtype == bool and got.shape == mask.shape
    assert got.tolist() == dilate_disc_oracle(mask.tolist(), radius)


@pytest.mark.parametrize("radius", RADII)
def test_matches_oracle_on_random_masks(radius):
    rng = np.random.default_rng(int(radius * 1000))
    for shape, density in (((23, 31), 0.02), ((40, 17), 0.1), ((12, 12), 0.4)):
        _check(rng.random(shape) < density, radius)


@pytest.mark.parametrize("radius", RADII)
def test_empty_mask_stays_empty(radius):
    assert not dilate_disc(np.zeros((9, 14), dtype=bool), radius).any()


@pytest.mark.parametrize("radius", RADII)
def test_single_border_cell(radius):
    for r, c in ((0, 0), (0, 7), (10, 12), (5, 0)):
        mask = np.zeros((11, 13), dtype=bool)
        mask[r, c] = True
        _check(mask, radius)


# 0 and 0.5 are one-cell discs: a segment of a single column.
DISC_EXTREMA_RADII = [0.0, 0.5, 1.0, 2.5, 5.0, math.sqrt(13), 7.3]


def _holey_grid(rng, shape):
    # Few holes, so that most discs, even at r = 7.3, hold only finite values.
    grid = rng.normal(0.0, 1.0, shape)
    holes = max(grid.size // 150, 1)
    grid.flat[rng.choice(grid.size, holes)] = np.inf
    grid.flat[rng.choice(grid.size, holes)] = -np.inf
    return grid


@pytest.mark.parametrize("radius", DISC_EXTREMA_RADII)
def test_disc_extrema_match_oracle(radius):
    # Shapes include grids narrower and shorter than the disc, where the
    # clamped rows and columns repeat the edge many times over.
    rng = np.random.default_rng(int(radius * 100))
    grids = [_holey_grid(rng, shape) for shape in ((24, 31), (40, 9), (3, 17), (1, 12), (11, 1), (2, 2))]
    # A whole row and a whole column of infinities, each way round.
    for sign in (1.0, -1.0):
        grid = rng.normal(0.0, 1.0, (19, 23))
        grid[6, :] = sign * np.inf
        grid[:, 15] = -sign * np.inf
        grids.append(grid)
    for grid in grids:
        assert np.array_equal(disc_max(grid, radius), oracles.disc_max(grid, radius))
        assert np.array_equal(disc_min(grid, radius), oracles.disc_min(grid, radius))


def _check_plane_fit(z, known, window, cell):
    # The residual comes from moment sums, where an exact fit leaves rounding
    # of order 1e-16 that the square root lifts to 1e-8, so rms is compared
    # squared (mean squared residual).
    a, b, c, rms, count = plane_fit_grid(np.where(known, z, np.nan), window, cell)
    want = plane_fit_window(z.tolist(), known.tolist(), window, cell)
    want[3] = np.square(want[3])
    for name, g, w in zip(("a", "b", "c", "rms^2", "count"), (a, b, c, rms * rms, count), want):
        assert g.shape == z.shape, name
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-9, err_msg=name)


@pytest.mark.parametrize("window", [3, 5, 41])
def test_plane_fit_grid_matches_oracle(window):
    rng = np.random.default_rng(window)
    for shape, cell in (((9, 13), 0.5), ((16, 11), 0.1), ((7, 7), 2.0)):
        z = rng.normal(0.0, 1.0, shape) + 0.3 * np.arange(shape[1]) * cell
        _check_plane_fit(z, rng.random(shape) >= 0.3, window, cell)


def test_plane_fit_grid_cache_follows_the_mask():
    # Alternating masks, and one mask under new heights, must each give the
    # fit of their own inputs, not of the mask or heights before them.
    rng = np.random.default_rng(11)
    shape, window, cell = (12, 10), 5, 0.5
    masks = [rng.random(shape) >= 0.3, rng.random(shape) >= 0.6]
    for known in masks + masks:
        _check_plane_fit(rng.normal(0.0, 1.0, shape), known, window, cell)
    for _ in range(3):
        _check_plane_fit(rng.normal(0.0, 1.0, shape) + 0.2 * np.arange(shape[0])[:, None], masks[0], window, cell)


def test_plane_fit_grid_cache_keeps_two_alternating_strips():
    # Diagonal moves build a row strip and a column strip in turn, each
    # with its own margin. Both masks stay cached: the second pass hits on
    # both and gives each strip its cleared-cache fit bit for bit.
    rng = np.random.default_rng(13)
    strips = []
    for shape, margin in (((14, 33), 3), ((31, 12), 4)):
        z = rng.normal(0.0, 1.0, shape)
        z[rng.random(shape) < 0.1] = np.nan
        strips.append((z, margin))
    fresh = []
    for z, margin in strips:
        _mask_geometry.cache_clear()
        fresh.append(plane_fit_grid(z, 5, 0.1, margin))
    _mask_geometry.cache_clear()
    for _ in range(2):
        for (z, margin), want in zip(strips, fresh):
            got = plane_fit_grid(z, 5, 0.1, margin)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    info = _mask_geometry.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_plane_fit_grid_count_is_read_only():
    rng = np.random.default_rng(12)
    z = rng.normal(0.0, 1.0, (9, 9))
    z[rng.random(z.shape) < 0.2] = np.nan
    first = plane_fit_grid(z, 3, 0.5)
    with pytest.raises(ValueError):
        first[4][0, 0] = 99.0
    again = plane_fit_grid(z, 3, 0.5)
    for f, g in zip(first, again):
        assert np.array_equal(f, g)
    assert again[4][0, 0] != 99.0


@pytest.mark.parametrize("window", [3, 5])
def test_plane_fit_grid_degenerate_windows_give_zero_plane(window):
    z = np.random.default_rng(5).normal(0.0, 1.0, (8, 10))
    too_few = np.zeros(z.shape, dtype=bool)
    too_few[3, 4] = too_few[4, 6] = True
    one_row = np.zeros(z.shape, dtype=bool)
    one_row[5, 1:9] = True
    for known in (too_few, one_row):
        a, b, c, rms, count = plane_fit_grid(np.where(known, z, np.nan), window, 0.5)
        for out in (a, b, c, rms):
            assert not out.any()
        _check_plane_fit(z, known, window, 0.5)


def test_plane_fit_grid_collinear_cells_give_zero_plane_anywhere():
    # Three known cells in one column span no plane. The moments are sums
    # of grid coordinates, so far from the origin their rounding must not
    # pass for a spread in the second direction.
    placements = [(r, c) for r in range(0, 120, 8) for c in range(0, 119, 7)]
    assert len(placements) == 255
    for r, c in placements:
        z = np.full((120, 120), np.nan)
        z[r:r + 3, c] = (0.3, -0.2, 0.5)
        a, b, c_, rms, _ = plane_fit_grid(z, 9, 0.5)
        for out in (a, b, c_, rms):
            assert not out.any(), (r, c)


@pytest.mark.parametrize("size", [3, 5, 47])
def test_window_sums_are_the_uniform_filter(size):
    # `window_sums` makes `uniform_filter`'s two passes itself, axis 0
    # first; the bits are the filter's only if scipy keeps that order.
    rng = np.random.default_rng(size)
    for shape in ((66, 326), (31, 12), (5, 60), (1, 9)):
        a = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.integers(-3, 3, shape)
        want = ndimage.uniform_filter(a, size, mode="constant") * (size * size)
        assert np.array_equal(window_sums(a, size, 0), want), shape


@pytest.mark.parametrize("size", [3, 5, 47])
def test_window_sums_margin_is_the_interior(size):
    rng = np.random.default_rng(100 + size)
    for shape, margin in (((66, 326), 28), ((31, 12), 5), ((9, 9), 4), ((20, 7), 1)):
        a = rng.normal(0.0, 1.0, shape)
        assert np.array_equal(window_sums(a, size, margin), window_sums(a, size)[interior(shape, margin)])


@pytest.mark.parametrize("window", [3, 5, 47])
def test_plane_fit_grid_margin_is_the_interior(window):
    # Random unknown cells, and the margin fit before and after the margin-0
    # fit of the same mask, so the cached layout must follow the margin.
    rng = np.random.default_rng(200 + window)
    for shape, margin, unknown in (((66, 120), 23, 0.1), ((30, 41), 7, 0.5), ((12, 15), 5, 0.0)):
        z = rng.normal(0.0, 1.0, shape) + 0.3 * np.arange(shape[1]) * 0.1
        z[rng.random(shape) < unknown] = np.nan
        cropped = plane_fit_grid(z, window, 0.1, margin)
        whole = plane_fit_grid(z, window, 0.1)
        again = plane_fit_grid(z, window, 0.1, margin)
        for got, want, repeat in zip(cropped, whole, again):
            assert np.array_equal(got, want[interior(shape, margin)])
            assert np.array_equal(repeat, got)


def test_plane_fit_points_matches_lstsq():
    rng = np.random.default_rng(7)
    for n in (3, 4, 17, 60):
        xy = rng.uniform(-5.0, 5.0, (n, 2)) + rng.uniform(-1e3, 1e3, 2)
        z = 0.2 * xy[:, 0] - 0.7 * xy[:, 1] + 30.0 + rng.normal(0.0, 0.1, n)
        centre = xy.mean(axis=0)
        design = np.column_stack([xy - centre, np.ones(n)])
        (a, b, c0), *_ = np.linalg.lstsq(design, z, rcond=None)
        want = (a, b, c0 - a * centre[0] - b * centre[1])
        got = plane_fit_points(np.column_stack([xy, z]))
        assert all(isinstance(v, float) for v in got)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_plane_fit_points_on_a_line_give_flat_plane():
    points = np.array([[480.0 + t, 70.0 + 2.0 * t, 0.1 * t] for t in range(5)])
    assert plane_fit_points(points) == pytest.approx((0.0, 0.0, 0.2))


def _bilinear_reference(values, origin, cell_size, xs, ys):
    """Edge-clamped bilinear interpolation, written with clip and floor."""
    fx = (np.asarray(xs, dtype=float) - origin[0]) / cell_size - 0.5
    fy = (np.asarray(ys, dtype=float) - origin[1]) / cell_size - 0.5
    rows, cols = values.shape
    fx = np.clip(fx, 0.0, cols - 1.0)
    fy = np.clip(fy, 0.0, rows - 1.0)
    c0 = np.clip(np.floor(fx).astype(int), 0, max(cols - 2, 0))
    r0 = np.clip(np.floor(fy).astype(int), 0, max(rows - 2, 0))
    c1 = np.minimum(c0 + 1, cols - 1)
    r1 = np.minimum(r0 + 1, rows - 1)
    tx = fx - c0
    ty = fy - r0
    return (values[r0, c0] * (1 - tx) * (1 - ty) + values[r0, c1] * tx * (1 - ty)
            + values[r1, c0] * (1 - tx) * ty + values[r1, c1] * tx * ty)


@pytest.mark.parametrize("shape", [(40, 30), (1, 12), (9, 1), (1, 1)])
def test_bilinear_sample_matches_reference_bit_for_bit(shape):
    # 200 sets of 17 points, the size of the footprint tilt sample, spread
    # 3 m past every edge so that many points land off the map, then
    # lattices over the same span.
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    values = rng.normal(0.0, 2.0, shape)
    origin, cell = (5.0, -3.0), 0.5
    x_lo, x_hi = origin[0] - 3.0, origin[0] + shape[1] * cell + 3.0
    y_lo, y_hi = origin[1] - 3.0, origin[1] + shape[0] * cell + 3.0
    samples = [(rng.uniform(x_lo, x_hi, 17), rng.uniform(y_lo, y_hi, 17)) for _ in range(200)]
    # Lattices as the sensor reads the ground, (1, C) x (R, 1): regular
    # ones at several pitches and random ones, all running past every edge.
    for step in (0.1, 0.25, 0.5, 0.7):
        xs, ys = np.arange(x_lo, x_hi, step), np.arange(y_lo, y_hi, step)
        samples.append((xs[None, :], ys[:, None]))
    for _ in range(20):
        xs = np.sort(rng.uniform(x_lo, x_hi, rng.integers(1, 40)))
        ys = np.sort(rng.uniform(y_lo, y_hi, rng.integers(1, 40)))
        samples.append((xs[None, :], ys[:, None]))
    for xs, ys in samples:
        got = bilinear_sample(values, origin, cell, xs, ys)
        want = _bilinear_reference(values, origin, cell, xs, ys)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
