import hashlib
import warnings

import numpy as np
import pytest

from rovernav.errors import ValidationError
from rovernav.grids import dilate_disc, interior, neighbor_slices
from rovernav.mapping import (
    BUMP_INFLATION_RADIUS,
    CELL_BUMP_LETHAL,
    CELL_HALO,
    CELL_SLOPE_LETHAL,
    CELL_UNKNOWN,
    COST_MAX,
    COST_UNKNOWN,
    CostGrid,
    CostWeights,
    DEFAULT_INFLATION_RADIUS,
    DEFAULT_OBSTACLE_HEIGHT,
    ROUGH_WEIGHT,
    SLOPE_WEIGHT,
    STEP_WEIGHT,
    _CELL_COST,
    _nanmedian_layers,
    build_elevation_grid,
    build_navigation_costmap,
    cost_cells,
    cost_feature_reach,
    cost_features,
    cost_to_obstacle,
    extract_obstacles,
    lethal_halo,
)
from rovernav.terrain import HeightField

import oracles
from conftest import full_grid


def lattice(heights, origin=(0.0, 0.0), pitch=1.0) -> HeightField:
    """A sensed patch: `heights` at the centres of a lattice of pitch `pitch`."""
    return HeightField(np.array(heights, dtype=float), origin, pitch)


class TestElevationGrid:
    def test_plane_of_points_fills_grid(self):
        grid = build_elevation_grid(lattice(np.ones((10, 10))), (10, 10), (0.0, 0.0), 1.0)
        assert np.all(grid.elevation == 1.0)

    def test_empty_points_all_unknown(self):
        # a patch with no known sample
        grid = build_elevation_grid(lattice(np.full((8, 8), np.nan), pitch=0.5), (40, 40), (0.0, 0.0), 0.5)
        assert grid.elevation.shape == (40, 40)
        assert np.isnan(grid.elevation).all()

    def test_max_z_rule(self):
        # the four 0.5 m samples of cell (1, 1) of the 1 m grid
        heights = np.zeros((8, 8))
        heights[2:4, 2:4] = [[0.2, 0.7], [-0.4, 0.1]]
        grid = build_elevation_grid(lattice(heights, pitch=0.5), (4, 4), (0.0, 0.0), 1.0)
        assert grid.elevation[1, 1] == 0.7
        assert np.all(np.delete(grid.elevation.ravel(), 5) == 0.0)

    def test_out_of_bounds_points_dropped(self):
        grid = build_elevation_grid(lattice(np.ones((3, 3)), origin=(99.0, 99.0)), (4, 4), (0.0, 0.0), 1.0)
        assert np.isnan(grid.elevation).all()

    @pytest.mark.parametrize("seed, patch_origin, shape, pitch, origin, cell", [
        # NaN holes inside a patch that covers the grid
        (0, (-0.7, -0.4), (44, 52), 0.25, (0.0, 0.0), 0.5),
        # hanging off the grid's lower-left and upper-right corners
        (1, (-6.3, -4.1), (48, 52), 0.25, (0.0, 0.0), 0.5),
        (2, (7.9, 8.6), (30, 30), 0.3, (0.0, 0.0), 0.5),
        # pitches that do not divide the cell, off-lattice grid origins
        (3, (1.13, -2.07), (57, 41), 0.37, (2.5, -1.0), 0.5),
        (4, (30.05, 70.45), (84, 84), 0.25, (31.0, 71.5), 0.5),
        (5, (0.0, 0.0), (25, 33), 0.7, (0.35, 0.0), 1.1),
        # every centre on a cell edge
        (6, (-0.25, -0.25), (30, 30), 0.5, (0.0, 0.0), 0.5),
    ])
    def test_matches_a_sample_by_sample_rasterizer(self, seed, patch_origin, shape, pitch, origin, cell):
        rng = np.random.default_rng(seed)
        heights = rng.normal(0.0, 1.0, shape)
        heights[rng.random(shape) < 0.2] = np.nan
        rows, cols = 20, 24
        grid = build_elevation_grid(lattice(heights, patch_origin, pitch), (rows, cols), origin, cell)
        want = oracles.rasterize_max(heights.tolist(), patch_origin, pitch, rows, cols, origin, cell)
        assert (grid.origin, grid.cell_size) == (origin, cell)
        np.testing.assert_array_equal(grid.elevation, np.array(want))
        assert np.isfinite(grid.elevation).any()


def _within_inflation(shape, center, cell):
    """Cells whose centers lie within DEFAULT_INFLATION_RADIUS of a cell's."""
    rr, cc = np.indices(shape)
    return np.hypot((rr - center[0]) * cell, (cc - center[1]) * cell) <= DEFAULT_INFLATION_RADIUS


class TestObstacleExtraction:
    def test_flat_grid_no_obstacles(self):
        grid = extract_obstacles(full_grid(np.zeros((40, 40))))
        assert not (grid.values == COST_MAX).any()

    def test_single_bump_marked_and_inflated(self):
        z = np.zeros((40, 40))
        z[20, 20] = 0.5
        grid = extract_obstacles(full_grid(z))
        disc = _within_inflation(z.shape, (20, 20), 0.5)
        assert disc[20, 27] and not disc[20, 28] and not disc[25, 25]  # 3.5 m is 7 cells
        assert (grid.values[disc] == COST_MAX).all()
        assert (grid.values[~disc] == 0).all()

    def test_pit_marked_too(self):
        z = np.zeros((40, 40))
        z[10, 10] = -0.5
        grid = extract_obstacles(full_grid(z))
        disc = _within_inflation(z.shape, (10, 10), 0.5)
        assert (grid.values[disc] == COST_MAX).all()
        assert (grid.values[~disc] == 0).all()

    def test_small_bump_below_threshold_free(self):
        z = np.zeros((40, 40))
        z[20, 20] = 0.1
        grid = extract_obstacles(full_grid(z))
        assert (grid.values == 0).all()

    def test_offset_invariance(self, rng):
        # At 4 m cells the 3.5 m inflation disc is the cell itself, so the
        # raw detections are compared.
        for _ in range(50):
            z = rng.normal(0.0, 0.12, size=(30, 30))
            base = extract_obstacles(full_grid(z, cell=4.0))
            shifted = extract_obstacles(full_grid(z + 37.5, cell=4.0))
            assert np.array_equal(base.values, shifted.values)

    def test_unknown_stays_unknown(self):
        z = np.zeros((20, 20))
        z[10, 10] = 0.5
        grid = full_grid(z)
        grid.elevation[:5, :] = np.nan
        out = extract_obstacles(grid)
        assert (out.values[:5, :] == COST_UNKNOWN).all()

    def test_no_free_cell_within_inflation_radius(self, rng):
        for _ in range(20):
            z = np.zeros((40, 40))
            hits = rng.integers(5, 35, size=(5, 2))
            z[hits[:, 0], hits[:, 1]] = 0.6
            radius = DEFAULT_INFLATION_RADIUS
            grid = full_grid(z)
            out = extract_obstacles(grid)
            raw = np.abs(z) > 0.2
            rr, cc = np.nonzero(out.values == 0)
            orr, occ = np.nonzero(raw)
            for r, c in zip(rr, cc):
                d = np.hypot((orr - r) * 0.5, (occ - c) * 0.5)
                assert (d > radius - 1e-9).all()


def nanmedian_reference(stack):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nanmedian(stack, axis=0)


class TestSortedStackMedian:
    @pytest.mark.parametrize("nan_frac", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    @pytest.mark.parametrize("ties", [False, True])
    def test_equals_nanmedian(self, rng, nan_frac, ties):
        for _ in range(20):
            shape = (9, int(rng.integers(1, 30)), int(rng.integers(1, 30)))
            # Ties: heights on a 0.1 m ladder of five steps, repeated often.
            stack = (rng.integers(-2, 3, shape) * 0.1 if ties else rng.normal(0.0, 2.0, shape))
            stack[rng.random(shape) < nan_frac] = np.nan
            want = nanmedian_reference(stack)
            assert np.array_equal(_nanmedian_layers(stack.copy()), want, equal_nan=True)

    def test_every_known_count_and_all_nan_cells(self, rng):
        # One cell per known count 0..9, and every cell has ties.
        stack = np.round(rng.normal(0.0, 1.0, (9, 10, 50)), 1)
        for k in range(10):
            stack[k:, k, :] = np.nan
        for col in range(50):
            np.random.default_rng(col).shuffle(stack[:, :, col], axis=0)
        got = _nanmedian_layers(stack.copy())
        assert np.isnan(got[0]).all() and np.isfinite(got[1:]).all()
        assert np.array_equal(got, nanmedian_reference(stack), equal_nan=True)

    def test_extract_obstacles_matches_nanmedian_rule(self, rng):
        # extract_obstacles against the rule written with np.nanmedian, on
        # rough grids with unknown holes and borders.
        for _ in range(10):
            z = rng.normal(0.0, 0.15, (30, 30))
            z[rng.random(z.shape) < 0.2] = np.nan
            z[:3] = np.nan
            known = np.isfinite(z)
            stack = np.full((9,) + z.shape, np.nan)
            for layer, (dst, src) in zip(stack, neighbor_slices(z.shape)):
                layer[dst] = z[src]
            median = nanmedian_reference(stack)
            raw = known & np.isfinite(median) & (np.abs(z - median) > DEFAULT_OBSTACLE_HEIGHT)
            raw = dilate_disc(raw, DEFAULT_INFLATION_RADIUS / 0.5)
            want = np.where(known, np.where(raw, COST_MAX, 0), COST_UNKNOWN)
            assert np.array_equal(extract_obstacles(full_grid(z)).values, want)


def rounded_cost(elev):
    """The costmap before inflation: `cost_cells` read back as costs."""
    return build_navigation_costmap(cost_cells(elev), elev.origin, elev.cell_size)


class TestCostmap:
    def test_flat_zero_cost(self):
        cost = rounded_cost(full_grid(np.zeros((40, 40))))
        assert np.all(cost.values == 0)

    def test_smooth_15_degree_slope_costs_25(self):
        n = 80
        xs = (np.arange(n) + 0.5) * 0.1
        z = np.tan(np.radians(15.0)) * np.tile(xs, (n, 1))
        cost = rounded_cost(full_grid(z, cell=0.1))
        assert np.all(cost.values == 25)

    def test_45_degree_slope_lethal(self):
        n = 60
        xs = (np.arange(n) + 0.5) * 0.1
        z = np.tan(np.radians(45.0)) * np.tile(xs, (n, 1))
        cost = rounded_cost(full_grid(z, cell=0.1))
        assert np.all(cost.values == COST_MAX)

    def test_unknown_maps_to_minus_one(self):
        grid = full_grid(np.zeros((20, 20)))
        grid.elevation[5, 5] = np.nan
        cost = rounded_cost(grid)
        assert cost.values[5, 5] == COST_UNKNOWN

    def test_value_range_on_random_grids(self, rng):
        for _ in range(50):
            z = rng.normal(0.0, 0.3, size=(30, 30)).cumsum(axis=1) * 0.05
            grid = full_grid(z, cell=0.25)
            unknown = rng.random((30, 30)) < 0.2
            grid.elevation[unknown] = np.nan
            cost = rounded_cost(grid)
            vals = cost.values
            assert vals.min() >= -1
            assert vals.max() <= 100
            assert ((vals >= 0) | (vals == -1)).all()
            assert (vals[unknown] == -1).all()

    def test_rock_cap_is_lethal(self):
        # a 1 m radius, 0.8 m tall cap on flat ground at mapping resolution
        n = 120
        cell = 0.1
        coords = (np.arange(n) + 0.5) * cell
        gx, gy = np.meshgrid(coords, coords)
        d2 = (gx - 6.0) ** 2 + (gy - 6.0) ** 2
        sphere_r = (1.0 + 0.64) / 1.6
        cap = np.where(d2 <= 1.0, np.sqrt(np.maximum(sphere_r**2 - d2, 0)) - (sphere_r - 0.8), 0.0)
        cost = rounded_cost(full_grid(np.maximum(cap, 0.0), cell=cell))
        center = cost.values[55:65, 55:65]
        assert (center == COST_MAX).any()

    def test_monotone_under_added_protrusion(self):
        """Stacking a rock-like cap onto a smooth grid raises cost where it
        lands and never lowers any cell's cost by more than one quantum.

        Strict global monotonicity is unattainable for any cost that only
        sees elevation differences (raising every cell one at a time must
        reproduce the original costs), so the invariant is checked in this
        quantified form.
        """
        from rovernav.mapping import cost_features

        for seed in range(30):
            rng = np.random.default_rng(seed)
            base = np.cumsum(rng.normal(0.0, 0.02, size=(50, 50)), axis=0) * 0.3
            grid = full_grid(base, cell=0.2)
            before, *_ = cost_features(grid)
            r0, c0 = rng.integers(10, 40, size=2)
            coords = np.arange(50) * 0.2
            gx, gy = np.meshgrid(coords, coords)
            d2 = (gx - c0 * 0.2) ** 2 + (gy - r0 * 0.2) ** 2
            bump = np.maximum(0.4 - d2, 0.0)
            after, *_ = cost_features(full_grid(base + bump, cell=0.2))
            assert after[r0, c0] > before[r0, c0]
            assert (after >= before - 1.0).all()

    def test_cost_law_monotone_in_features(self, rng):
        """The cost formula itself never decreases when a feature grows."""
        w = CostWeights()
        for _ in range(200):
            s, r, h = rng.uniform(0, 40), rng.uniform(0, 0.2), rng.uniform(0, 0.4)
            ds, dr, dh = rng.uniform(0, 5, size=3)
            assert _law(s + ds, r, h, w) >= _law(s, r, h, w)
            assert _law(s, r + dr, h, w) >= _law(s, r, h, w)
            assert _law(s, r, h + dh, w) >= _law(s, r, h, w)

    def test_feature_reach_is_exact(self, rng):
        """A cell's features read heights up to `cost_feature_reach` cells
        away and no farther: a patch with that margin around a core gives
        the core the features of any wider patch, and one cell less does not."""
        cell, core, pad = 0.1, 80, 40
        z = rng.normal(0.0, 0.05, size=(core + 2 * pad, core + 2 * pad))
        wide = np.stack(cost_features(full_grid(z, cell=cell)))[:, pad:-pad, pad:-pad]
        reach = cost_feature_reach(cell)
        for margin, same in ((reach, True), (reach - 1, False)):
            sub = z[pad - margin:-(pad - margin), pad - margin:-(pad - margin)]
            got = np.stack(cost_features(full_grid(sub, cell=cell)))[:, margin:-margin, margin:-margin]
            assert np.allclose(got, wide, rtol=0.0, atol=1e-9) is same, margin


def _law(s, r, h, w):
    if s >= w.slope_max_deg or r >= w.rough_max or h >= w.step_max:
        return 100.0
    return 100.0 * (SLOPE_WEIGHT * min(s / w.slope_max_deg, 1.0)
                    + ROUGH_WEIGHT * min(r / w.rough_max, 1.0)
                    + STEP_WEIGHT * min(h / w.step_max, 1.0))


def _sha(values):
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _ramp_and_rock_grid():
    """0.1 m grid: a diagonal ramp easing into 40 deg (slope-lethal), a 0.8 m
    rock cap (bump-lethal) on the flat part, and two patches of unknown cells."""
    n, cell = 160, 0.1
    coords = (np.arange(n) + 0.5) * cell
    gx, gy = np.meshgrid(coords, coords)
    u = (gx + 0.5 * gy) / np.sqrt(1.25)
    z = np.tan(np.radians(40.0)) * 2.0 * np.logaddexp(0.0, (5.0 - u) / 2.0)
    d2 = (gx - 11.0) ** 2 + (gy - 8.0) ** 2
    sphere_r = (1.0 + 0.64) / 1.6
    z = z + np.where(d2 <= 1.0, np.sqrt(np.maximum(sphere_r**2 - d2, 0)) - (sphere_r - 0.8), 0.0)
    known = np.ones((n, n), dtype=bool)
    known[130:150, 20:60] = False
    known[::7, 100] = False
    return HeightField(np.where(known, z, np.nan), (5.0, -2.0), cell)


class TestNavigationCostmap:
    def test_byte_pin(self):
        # slope-lethal cells inflate by 35 cells, bump-lethal ones by 15
        elev = _ramp_and_rock_grid()
        w = CostWeights()
        known = np.isfinite(elev.elevation)
        _, slope, rough, step = cost_features(elev)
        assert ((slope >= w.slope_max_deg) & known).any()
        assert (((rough >= w.rough_max) | (step >= w.step_max)) & known).any()
        codes = cost_cells(elev)
        lethal_halo(codes, elev.cell_size)
        cost = build_navigation_costmap(codes, elev.origin, elev.cell_size)
        assert cost.values.dtype == np.int16
        assert _sha(cost.values) == "67c67500320bb803f54e699c7a6580ada71e2fdcdadef47dea54b6f6aa80c720"

    def test_empty_grid_rejected(self):
        grid = HeightField(np.zeros((0, 5)), (0.0, 0.0), 0.1)
        with pytest.raises(ValidationError):
            cost_cells(grid)

    def test_margin_is_the_interior_on_random_unknown_cells(self, rng):
        w = CostWeights()
        for shape, margin, unknown in (((90, 70), 28, 0.05), ((60, 61), 3, 0.4), ((70, 70), 34, 0.0)):
            z = np.cumsum(rng.normal(0.0, 0.03, size=shape), axis=0)
            z[rng.random(shape) < unknown] = np.nan
            elev = HeightField(z, (1.0, 2.0), 0.1)
            kept = interior(shape, margin)
            assert np.array_equal(cost_cells(elev, w, margin), cost_cells(elev, w)[kept])
            for got, want in zip(cost_features(elev, w, margin), cost_features(elev, w)):
                assert np.array_equal(got, want[kept])

    def test_margin_leaving_no_cells_rejected(self):
        grid = HeightField(np.zeros((10, 20)), (0.0, 0.0), 0.1)
        assert cost_cells(grid, margin=4).shape == (2, 12)
        for margin in (5, 6, -1):
            with pytest.raises(ValidationError):
                cost_cells(grid, margin=margin)


def inflate(values, cell, radius, lethal_codes=(CELL_SLOPE_LETHAL,)):
    """The navigation costmap of a cost grid whose lethal cells take the
    given codes in turn, every source inflated by `radius`."""
    codes = (np.asarray(values) + 1).astype(np.uint8)
    rr, cc = np.nonzero(np.asarray(values) >= COST_MAX)
    for i, (r, c) in enumerate(zip(rr, cc)):
        codes[r, c] = lethal_codes[i % len(lethal_codes)]
    lethal_halo(codes, cell, (radius, radius))
    return build_navigation_costmap(codes, (0.0, 0.0), cell)


class TestLethalInflation:
    def test_lethal_dilated(self):
        vals = np.zeros((20, 20), dtype=np.int16)
        vals[10, 10] = 100
        grid = inflate(vals, 0.5, 1.0)
        assert grid.values[10, 12] == 100
        assert grid.values[10, 14] == 0

    def test_unknown_not_overwritten(self):
        vals = np.full((10, 10), -1, dtype=np.int16)
        vals[5, 5] = 100
        out = inflate(vals, 0.5, 2.0)
        assert out.values[5, 7] == -1

    def test_byte_pin_non_integer_radius(self):
        # With equal radii, lethal cells split between the two sources
        # inflate as one set.
        rng = np.random.default_rng(7)
        vals = rng.integers(0, 100, size=(60, 60)).astype(np.int16)
        vals[rng.random((60, 60)) < 0.01] = COST_MAX
        vals[rng.random((60, 60)) < 0.1] = COST_UNKNOWN
        for codes in ((CELL_SLOPE_LETHAL,), (CELL_SLOPE_LETHAL, CELL_BUMP_LETHAL)):
            out = inflate(vals, 0.1, 0.35, codes)  # 3.4999... cells
            assert _sha(out.values) == "599486a91fcfc29b2836fd8ba361c494e3944fa30645d6fd07c2066c5e9e589d"


def _fold_uncropped(codes, cell, radii=(DEFAULT_INFLATION_RADIUS, BUMP_INFLATION_RADIUS)):
    """`codes` with each source's disc inflation over the whole grid folded
    in: `CELL_HALO` on its known, non-lethal cells."""
    halo = np.zeros(codes.shape, dtype=bool)
    for code, radius in zip((CELL_SLOPE_LETHAL, CELL_BUMP_LETHAL), radii):
        halo |= dilate_disc(codes == code, radius / cell)
    lethal = (codes == CELL_SLOPE_LETHAL) | (codes == CELL_BUMP_LETHAL)
    return np.where(halo & (codes != CELL_UNKNOWN) & ~lethal, CELL_HALO, codes).astype(np.uint8)


def _folded(codes, cell, radii=(DEFAULT_INFLATION_RADIUS, BUMP_INFLATION_RADIUS)):
    """A copy of `codes` after `lethal_halo`."""
    out = codes.copy()
    assert lethal_halo(out, cell, radii) is None
    return out


class TestLethalHaloCrop:
    """`lethal_halo` transforms only each source's bounding box grown by
    its radius; the fold is the whole-grid one."""

    @pytest.mark.parametrize("cell", [0.1, 0.5])
    def test_random_codes(self, rng, cell):
        for shape, density in (((120, 90), 0.002), ((80, 300), 0.0005), ((40, 40), 0.05)):
            codes = rng.integers(1, 102, size=shape).astype(np.uint8)
            u = rng.random(shape)
            codes[u < density] = CELL_SLOPE_LETHAL
            codes[(u >= density) & (u < 3 * density)] = CELL_BUMP_LETHAL
            codes[u > 0.9] = CELL_UNKNOWN
            assert np.array_equal(_folded(codes, cell), _fold_uncropped(codes, cell))

    def test_no_lethal_cell(self):
        codes = np.full((50, 60), 40, dtype=np.uint8)
        assert np.array_equal(_folded(codes, 0.1), codes)

    def test_single_lethal_cell(self):
        for code in (CELL_SLOPE_LETHAL, CELL_BUMP_LETHAL):
            codes = np.ones((101, 101), dtype=np.uint8)
            codes[50, 50] = code
            assert np.array_equal(_folded(codes, 0.1), _fold_uncropped(codes, 0.1))

    def test_lethal_cells_on_the_border(self):
        for cell, (r, c) in ((0.1, (0, 0)), (0.1, (79, 5)), (0.5, (3, 119)), (0.1, (79, 119))):
            codes = np.ones((80, 120), dtype=np.uint8)
            codes[r, c] = CELL_SLOPE_LETHAL
            codes[79 - r, 119 - c] = CELL_BUMP_LETHAL
            assert np.array_equal(_folded(codes, cell), _fold_uncropped(codes, cell))
            radii = (0.35, 0.35)
            assert np.array_equal(_folded(codes, cell, radii), _fold_uncropped(codes, cell, radii))


class TestCodeOrder:
    """A code's cost never falls as the code rises, so a block's highest
    code costs the block's highest cost."""

    def test_cost_never_falls_as_the_code_rises(self):
        assert len(_CELL_COST) == CELL_HALO + 1
        assert (np.diff(_CELL_COST) >= 0).all()
        assert _CELL_COST[[CELL_UNKNOWN, 1, COST_MAX + 1]].tolist() == [COST_UNKNOWN, 0, COST_MAX]
        assert (_CELL_COST[[CELL_SLOPE_LETHAL, CELL_BUMP_LETHAL, CELL_HALO]] == COST_MAX).all()

    @pytest.mark.parametrize("k", [2, 5])
    def test_block_max_of_codes_costs_the_block_max_of_costs(self, rng, k):
        for n, top in ((8, CELL_HALO + 1), (20, CELL_HALO + 1), (20, 3)):
            codes = rng.integers(0, top, size=(n * k, n * k)).astype(np.uint8)
            flat = codes.reshape(-1)
            flat[rng.choice(flat.size, len(_CELL_COST), replace=False)] = np.arange(len(_CELL_COST))
            assert np.unique(codes).size == len(_CELL_COST)
            blocks = codes.reshape(n, k, n, k).max(axis=(1, 3))
            costs = build_navigation_costmap(codes, (0.0, 0.0), 0.1).values
            assert np.array_equal(build_navigation_costmap(blocks, (0.0, 0.0), 0.5).values,
                                  costs.reshape(n, k, n, k).max(axis=(1, 3)))


class TestConversions:
    def test_safe_view_keeps_only_lethal_cells(self):
        cost = CostGrid(np.array([[0, 100], [-1, 99]], dtype=np.int16), (4.0, 8.0), 0.5)
        safe = cost_to_obstacle(cost)
        assert safe.values.dtype == np.int16
        assert safe.values.tolist() == [[0, 100], [0, 0]]
        assert (safe.origin, safe.cell_size) == ((4.0, 8.0), 0.5)
