import hashlib

import numpy as np
import pytest

from rovernav.config import build_scene
from rovernav.errors import ValidationError
from rovernav.planning import Path, astar_cost
from rovernav.terrain import HeightField
from rovernav.waypoints import (
    global_cost_from_dem,
    load_waypoints,
    plan_waypoints,
    save_waypoints,
    sparsify_waypoints,
)

from oracles import dijkstra_weighted_cost


def dem(elevation, cell=0.5):
    return HeightField(np.asarray(elevation, dtype=float), (0.0, 0.0), cell)


class TestCoarseCost:
    def test_flat_dem_zero_cost(self):
        cost = global_cost_from_dem(dem(np.zeros((200, 200))))
        assert (cost.values == 0).all()
        assert cost.cell_size == 2.0

    def test_dimensions(self):
        cost = global_cost_from_dem(dem(np.zeros((800, 800))))
        assert cost.rows == cost.cols == 200

    def test_ridge_cost_positive_valley_zero(self):
        n = 200
        xs = (np.arange(n) + 0.5) * 0.5
        ridge = 6.0 * np.exp(-((xs - 50.0) ** 2) / (2 * 4.0**2))  # ~25 deg flanks
        z = np.tile(ridge, (n, 1))
        cost = global_cost_from_dem(dem(z))
        mid = cost.cols // 2
        assert (cost.values[:, mid - 3 : mid + 3] > 0).all()
        assert (cost.values[:, :5] == 0).all()


class TestMinCostSearch:
    def test_uniform_grid_straight(self):
        cost = global_cost_from_dem(dem(np.zeros((100, 100))))
        path = astar_cost(cost, (3.0, 25.0), (47.0, 25.0))
        assert path.length() == pytest.approx(44.0, abs=2.1)

    def test_start_equals_goal(self):
        cost = global_cost_from_dem(dem(np.zeros((100, 100))))
        path = astar_cost(cost, (10.0, 10.0), (10.0, 10.0))
        assert len(path) == 1

    def test_detours_around_high_cost_hill(self):
        n = 240
        coords = (np.arange(n) + 0.5) * 0.5
        gx, gy = np.meshgrid(coords, coords)
        z = 14.0 * np.exp(-((gx - 60.0) ** 2 + (gy - 60.0) ** 2) / (2 * 9.0**2))
        cost = global_cost_from_dem(dem(z))
        path = astar_cost(cost, (11.0, 60.0), (109.0, 60.0))
        # oracle agreement on total weight
        sr, sc = int(60.0 / 2.0), int(11.0 / 2.0)
        gr, gc = int(60.0 / 2.0), int(109.0 / 2.0)
        oracle = dijkstra_weighted_cost(cost.values.tolist(), (sr, sc), (gr, gc),
                                        cell_size=2.0)
        measured = _weight(path, cost)
        assert measured == pytest.approx(oracle, abs=1e-9)
        # and the route visibly avoids the hill center
        d_hill = np.hypot(path.points[:, 0] - 60.0, path.points[:, 1] - 60.0)
        assert d_hill.min() > 6.0


def _weight(path, cost, alpha=4.0):
    total = 0.0
    cs = cost.cell_size
    cells = [(int(y // cs), int(x // cs)) for x, y in path.points]
    for (r0, c0), (r1, c1) in zip(cells, cells[1:]):
        step = np.hypot(r1 - r0, c1 - c0) * cs
        total += step * (1.0 + alpha * 0.5 * (cost.values[r0][c0] + cost.values[r1][c1]) / 100.0)
    return total


class TestSparsify:
    def test_straight_100m_spacing_20(self):
        xs = np.arange(0.0, 100.5, 0.5)
        path = Path(np.column_stack([xs, np.zeros_like(xs)]))
        queue = sparsify_waypoints(path, 20.0)
        assert len(queue) == 6
        assert queue.points[0] == (0.0, 0.0)
        assert queue.points[-1] == (100.0, 0.0)

    def test_short_path_keeps_both_ends(self):
        path = Path(np.array([[0.0, 0.0], [3.0, 0.0], [6.0, 0.0]]))
        queue = sparsify_waypoints(path, 20.0)
        assert queue.points == [(0.0, 0.0), (6.0, 0.0)]

    def test_last_point_always_kept(self):
        xs = np.arange(0.0, 47.5, 0.5)
        path = Path(np.column_stack([xs, np.zeros_like(xs)]))
        queue = sparsify_waypoints(path, 20.0)
        assert queue.points[-1] == (47.0, 0.0)

    def test_waypoints_are_path_members(self, rng):
        pts = np.cumsum(rng.uniform(0.2, 0.6, size=(80, 2)), axis=0)
        path = Path(pts)
        queue = sparsify_waypoints(path, 5.0)
        path_set = {tuple(p) for p in path.points}
        assert all(tuple(w) in path_set for w in queue.points)

    def test_spacing_invariant(self):
        xs = np.arange(0.0, 200.5, 0.5)
        path = Path(np.column_stack([xs, np.zeros_like(xs)]))
        queue = sparsify_waypoints(path, 20.0)
        pts = np.array(queue.points)
        gaps = np.hypot(*np.diff(pts, axis=0).T)
        assert (gaps[:-1] >= 20.0 - 1e-9).all()
        assert (gaps[:-1] < 40.0).all()

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValidationError):
            sparsify_waypoints(Path(np.array([[0.0, 0.0]])), 0.0)


class TestWaypointFiles:
    def test_round_trip(self, tmp_path):
        xs = np.arange(0.0, 100.5, 0.5)
        queue = sparsify_waypoints(Path(np.column_stack([xs, xs * 0.5])), 25.0)
        save_waypoints(queue, tmp_path / "wp.csv")
        loaded = load_waypoints(tmp_path / "wp.csv")
        assert loaded.points == pytest.approx(queue.points)

    def test_comments_ignored(self, tmp_path):
        (tmp_path / "wp.csv").write_text("# route\n1.0,2.0\n\n3.0,4.0\n")
        queue = load_waypoints(tmp_path / "wp.csv")
        assert queue.points == [(1.0, 2.0), (3.0, 4.0)]

    def test_empty_file_rejected(self, tmp_path):
        (tmp_path / "wp.csv").write_text("# nothing\n")
        with pytest.raises(ValidationError):
            load_waypoints(tmp_path / "wp.csv")


class TestFullPipeline:
    def test_plan_waypoints_on_flat(self):
        queue = plan_waypoints(dem(np.zeros((280, 280))), (10.0, 70.0), (130.0, 70.0))
        assert len(queue) >= 6
        assert queue.points[0] == pytest.approx((10.0, 70.0), abs=1.5)
        assert queue.points[-1] == pytest.approx((130.0, 70.0), abs=1.5)

    def test_build_scene_routes_pinned(self):
        # Every auto route of the presets, seeds 0-4: the routes the
        # scenario matrix flies.
        digest = hashlib.sha256()
        for kind in ("flat", "rocky", "challenging", "mixed"):
            for seed in range(5):
                digest.update(repr((kind, seed, build_scene(kind, seed).waypoints.points)).encode())
        assert digest.hexdigest() == "b18459d471013c5d1d0c8c16bdefbd8be88e34f35ba9ea880b59c11b29ac6964"
