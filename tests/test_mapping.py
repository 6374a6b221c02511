import hashlib

import numpy as np
import pytest

from rovernav.errors import ValidationError
from rovernav.mapping import (
    COST_MAX,
    COST_UNKNOWN,
    CostGrid,
    CostWeights,
    ElevationGrid,
    FREE,
    GridGeometry,
    OBSTACLE,
    UNKNOWN,
    build_elevation_grid,
    build_navigation_costmap,
    compute_costmap,
    cost_features,
    cost_to_obstacle,
    extract_obstacles,
    inflate_lethal,
    load_grid,
    obstacle_to_cost,
    save_grid,
)

from conftest import full_grid


def geometry(n=40, cell=0.5):
    return GridGeometry(n, n, (0.0, 0.0), cell)


class TestElevationGrid:
    def test_plane_of_points_fills_grid(self):
        geom = geometry(10, 1.0)
        xs, ys = np.meshgrid(np.arange(10) + 0.5, np.arange(10) + 0.5)
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.ones(100)])
        grid = build_elevation_grid(pts, geom)
        assert grid.known.all()
        assert np.all(grid.elevation == 1.0)

    def test_empty_points_all_unknown(self):
        grid = build_elevation_grid(np.empty((0, 3)), geometry())
        assert not grid.known.any()

    def test_max_z_rule(self):
        geom = geometry(4, 1.0)
        pts = np.array([[1.5, 1.5, 0.2], [1.6, 1.4, 0.7]])
        grid = build_elevation_grid(pts, geom)
        assert grid.elevation[1, 1] == 0.7

    def test_out_of_bounds_points_dropped(self):
        geom = geometry(4, 1.0)
        grid = build_elevation_grid(np.array([[100.0, 100.0, 1.0]]), geom)
        assert not grid.known.any()


class TestObstacleExtraction:
    def test_flat_grid_no_obstacles(self):
        grid = extract_obstacles(full_grid(np.zeros((40, 40))))
        assert not (grid.cells == OBSTACLE).any()

    def test_single_bump_marked_and_inflated(self):
        z = np.zeros((40, 40))
        z[20, 20] = 0.5
        grid = extract_obstacles(full_grid(z), h_obstacle=0.2, inflate_radius=1.0)
        assert grid.cells[20, 20] == OBSTACLE
        assert grid.cells[20, 22] == OBSTACLE  # within 1 m at 0.5 m cells
        assert grid.cells[20, 25] == FREE

    def test_pit_marked_too(self):
        z = np.zeros((40, 40))
        z[10, 10] = -0.5
        grid = extract_obstacles(full_grid(z), inflate_radius=0.0)
        assert grid.cells[10, 10] == OBSTACLE

    def test_small_bump_below_threshold_free(self):
        z = np.zeros((40, 40))
        z[20, 20] = 0.1
        grid = extract_obstacles(full_grid(z), h_obstacle=0.2, inflate_radius=0.0)
        assert grid.cells[20, 20] == FREE

    def test_offset_invariance(self, rng):
        for _ in range(50):
            z = rng.normal(0.0, 0.12, size=(30, 30))
            base = extract_obstacles(full_grid(z), inflate_radius=0.0)
            shifted = extract_obstacles(full_grid(z + 37.5), inflate_radius=0.0)
            assert np.array_equal(base.cells, shifted.cells)

    def test_unknown_stays_unknown(self):
        z = np.zeros((20, 20))
        z[10, 10] = 0.5
        grid = full_grid(z)
        grid.known[:5, :] = False
        out = extract_obstacles(grid, inflate_radius=3.0)
        assert (out.cells[:5, :] == UNKNOWN).all()

    def test_no_free_cell_within_inflation_radius(self, rng):
        for _ in range(20):
            z = np.zeros((40, 40))
            hits = rng.integers(5, 35, size=(5, 2))
            z[hits[:, 0], hits[:, 1]] = 0.6
            radius = 1.5
            grid = full_grid(z)
            out = extract_obstacles(grid, inflate_radius=radius)
            raw = np.abs(z) > 0.2
            rr, cc = np.nonzero(out.cells == FREE)
            orr, occ = np.nonzero(raw)
            for r, c in zip(rr, cc):
                d = np.hypot((orr - r) * 0.5, (occ - c) * 0.5)
                assert (d > radius - 1e-9).all()


class TestCostmap:
    def test_flat_zero_cost(self):
        cost = compute_costmap(full_grid(np.zeros((40, 40))))
        assert np.all(cost.values == 0)

    def test_smooth_15_degree_slope_costs_25(self):
        n = 80
        xs = (np.arange(n) + 0.5) * 0.1
        z = np.tan(np.radians(15.0)) * np.tile(xs, (n, 1))
        cost = compute_costmap(full_grid(z, cell=0.1))
        assert np.all(cost.values == 25)

    def test_45_degree_slope_lethal(self):
        n = 60
        xs = (np.arange(n) + 0.5) * 0.1
        z = np.tan(np.radians(45.0)) * np.tile(xs, (n, 1))
        cost = compute_costmap(full_grid(z, cell=0.1))
        assert np.all(cost.values == COST_MAX)

    def test_unknown_maps_to_minus_one(self):
        grid = full_grid(np.zeros((20, 20)))
        grid.known[5, 5] = False
        cost = compute_costmap(grid)
        assert cost.values[5, 5] == COST_UNKNOWN

    def test_value_range_on_random_grids(self, rng):
        for _ in range(50):
            z = rng.normal(0.0, 0.3, size=(30, 30)).cumsum(axis=1) * 0.05
            grid = full_grid(z, cell=0.25)
            grid.known[rng.random((30, 30)) < 0.2] = False
            cost = compute_costmap(grid)
            vals = cost.values
            assert vals.min() >= -1
            assert vals.max() <= 100
            assert ((vals >= 0) | (vals == -1)).all()
            assert (vals[~grid.known] == -1).all()

    def test_rock_cap_is_lethal(self):
        # a 1 m radius, 0.8 m tall cap on flat ground at mapping resolution
        n = 120
        cell = 0.1
        coords = (np.arange(n) + 0.5) * cell
        gx, gy = np.meshgrid(coords, coords)
        d2 = (gx - 6.0) ** 2 + (gy - 6.0) ** 2
        sphere_r = (1.0 + 0.64) / 1.6
        cap = np.where(d2 <= 1.0, np.sqrt(np.maximum(sphere_r**2 - d2, 0)) - (sphere_r - 0.8), 0.0)
        cost = compute_costmap(full_grid(np.maximum(cap, 0.0), cell=cell))
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


def _law(s, r, h, w):
    if s >= w.slope_max_deg or r >= w.rough_max or h >= w.step_max:
        return 100.0
    return 100.0 * (w.w_slope * min(s / w.slope_max_deg, 1.0)
                    + w.w_rough * min(r / w.rough_max, 1.0)
                    + w.w_step * min(h / w.step_max, 1.0))


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
    return ElevationGrid(z, known, (5.0, -2.0), cell)


class TestNavigationCostmap:
    def test_byte_pin(self):
        # slope-lethal cells inflate by 35 cells, bump-lethal ones by 15
        elev = _ramp_and_rock_grid()
        w = CostWeights()
        _, slope, rough, step = cost_features(elev)
        assert ((slope >= w.slope_max_deg) & elev.known).any()
        assert (((rough >= w.rough_max) | (step >= w.step_max)) & elev.known).any()
        cost = build_navigation_costmap(elev)
        assert cost.values.dtype == np.int16
        assert _sha(cost.values) == "67c67500320bb803f54e699c7a6580ada71e2fdcdadef47dea54b6f6aa80c720"

    def test_empty_grid_rejected(self):
        grid = ElevationGrid(np.zeros((0, 5)), np.zeros((0, 5), dtype=bool), (0.0, 0.0), 0.1)
        with pytest.raises(ValidationError):
            build_navigation_costmap(grid)


class TestLethalInflation:
    def test_lethal_dilated(self):
        vals = np.zeros((20, 20), dtype=np.int16)
        vals[10, 10] = 100
        grid = inflate_lethal(
            __import__("rovernav.mapping", fromlist=["CostGrid"]).CostGrid(vals, (0, 0), 0.5), 1.0
        )
        assert grid.values[10, 12] == 100
        assert grid.values[10, 14] == 0

    def test_unknown_not_overwritten(self):
        vals = np.full((10, 10), -1, dtype=np.int16)
        vals[5, 5] = 100
        from rovernav.mapping import CostGrid

        out = inflate_lethal(CostGrid(vals, (0, 0), 0.5), 2.0)
        assert out.values[5, 7] == -1

    def test_byte_pin_non_integer_radius(self):
        rng = np.random.default_rng(7)
        vals = rng.integers(0, 100, size=(60, 60)).astype(np.int16)
        vals[rng.random((60, 60)) < 0.01] = COST_MAX
        vals[rng.random((60, 60)) < 0.1] = COST_UNKNOWN
        out = inflate_lethal(CostGrid(vals, (0.0, 0.0), 0.1), 0.35)  # 3.4999... cells
        assert _sha(out.values) == "599486a91fcfc29b2836fd8ba361c494e3944fa30645d6fd07c2066c5e9e589d"


class TestConversions:
    def test_obstacle_cost_round_trip(self):
        cells = np.array([[FREE, OBSTACLE], [UNKNOWN, FREE]], dtype=np.int8)
        from rovernav.mapping import ObstacleGrid

        grid = ObstacleGrid(cells, (0, 0), 0.5)
        cost = obstacle_to_cost(grid)
        assert cost.values.tolist() == [[0, 100], [-1, 0]]
        back = cost_to_obstacle(cost)
        assert np.array_equal(back.cells, cells)


class TestSerialization:
    def test_cost_grid_round_trip(self, tmp_path, rng):
        from rovernav.mapping import CostGrid

        vals = rng.integers(-1, 101, size=(25, 30)).astype(np.int16)
        grid = CostGrid(vals, (4.0, 8.0), 0.5)
        save_grid(grid, tmp_path / "g")
        loaded = load_grid(tmp_path / "g")
        assert isinstance(loaded, CostGrid)
        assert np.array_equal(loaded.values, vals)
        assert loaded.origin == (4.0, 8.0)
        assert loaded.cell_size == 0.5
