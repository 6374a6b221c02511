import math

import numpy as np
import pytest

from rovernav.errors import InvalidStartError, NoPathError
from rovernav.grids import world_to_cell
from rovernav.mapping import COST_MAX, COST_UNKNOWN, CostGrid, cost_to_obstacle
from rovernav.planning import (
    Path,
    astar_cost,
    astar_obstacle,
    best_progress_path,
    bspline_path,
    first_lethal_point,
    octile,
)

from oracles import (
    dijkstra_grid_length,
    dijkstra_weighted_cost,
    point_segment_distance,
    search_astar_cells,
    search_best_progress_cells,
    values_under_points,
)

SQRT2 = math.sqrt(2.0)


def cost_grid(values, cell_size=1.0):
    return CostGrid(np.asarray(values, dtype=np.int16), (0.0, 0.0), cell_size)


def obstacle_grid(cells, cell_size=1.0):
    """The safe view the mid-tier planner searches."""
    return cost_to_obstacle(cost_grid(cells, cell_size))


def center(r, c, cs=1.0):
    return ((c + 0.5) * cs, (r + 0.5) * cs)


class TestBSpline:
    def test_degenerate_single_point(self):
        path = bspline_path((3.0, 4.0), (3.0, 4.0), 0.0)
        assert len(path) == 1
        assert tuple(path.points[0]) == (3.0, 4.0)

    def test_endpoints_exact(self):
        path = bspline_path((0.0, 0.0), (17.3, -4.2), 0.4)
        assert tuple(path.points[0]) == (0.0, 0.0)
        assert tuple(path.points[-1]) == (17.3, -4.2)

    def test_collinear_controls_stay_on_segment(self):
        # heading along the start-goal line puts all control points on it
        path = bspline_path((0.0, 0.0), (20.0, 0.0), 0.0)
        for p in path.points:
            assert point_segment_distance(p, (0.0, 0.0), (20.0, 0.0)) < 1e-6

    def test_samples_inside_control_hull(self):
        start, goal, heading = (0.0, 0.0), (12.0, 6.0), 1.2
        path = bspline_path(start, goal, heading)
        ctrl = np.array([
            start,
            (2.0 * math.cos(heading), 2.0 * math.sin(heading)),
            (6.0, 3.0),
            goal,
        ])
        lo = ctrl.min(axis=0) - 1e-9
        hi = ctrl.max(axis=0) + 1e-9
        # bounding box of the hull contains the hull
        assert (path.points >= lo).all() and (path.points <= hi).all()

    def test_sample_spacing(self):
        path = bspline_path((0.0, 0.0), (30.0, 0.0), 0.0)
        gaps = np.hypot(*np.diff(path.points, axis=0).T)
        assert gaps.max() < 0.75
        assert gaps.min() > 0.2


class TestAstarObstacle:
    def test_empty_grid_diagonal(self):
        grid = obstacle_grid(np.zeros((20, 20)))
        path = astar_obstacle(grid, center(0, 0), center(19, 19))
        assert path.length() == pytest.approx(19 * SQRT2)
        oracle = dijkstra_grid_length(np.zeros((20, 20), dtype=bool), (0, 0), (19, 19))
        assert path.length() == pytest.approx(oracle)

    def test_enclosed_goal_unreachable(self):
        cells = np.zeros((10, 10))
        cells[4:7, 4:7] = COST_MAX
        cells[5, 5] = 0
        with pytest.raises(NoPathError):
            astar_obstacle(obstacle_grid(cells), center(0, 0), center(5, 5))

    def test_wall_with_gap(self):
        cells = np.zeros((11, 11))
        cells[:, 5] = COST_MAX
        cells[7, 5] = 0
        grid = obstacle_grid(cells)
        path = astar_obstacle(grid, center(2, 1), center(2, 9))
        cols = ((path.points[:, 0]) - 0.5).round().astype(int)
        rows = ((path.points[:, 1]) - 0.5).round().astype(int)
        on_wall = [tuple(p) for p in zip(rows, cols) if p[1] == 5]
        assert on_wall == [(7, 5)]
        blocked = cells == COST_MAX
        assert path.length() == pytest.approx(
            dijkstra_grid_length(blocked.tolist(), (2, 1), (2, 9)))

    def test_start_in_obstacle_rejected(self):
        cells = np.zeros((5, 5))
        cells[2, 2] = COST_MAX
        with pytest.raises(InvalidStartError):
            astar_obstacle(obstacle_grid(cells), center(2, 2), center(0, 0))

    def test_unknown_cells_traversable(self):
        cells = np.full((9, 9), COST_UNKNOWN)
        cells[0, 0] = 0
        cells[8, 8] = 0
        path = astar_obstacle(obstacle_grid(cells), center(0, 0), center(8, 8))
        assert path.length() == pytest.approx(8 * SQRT2)

    def test_matches_oracle_on_random_grids(self, rng):
        for _ in range(60):
            cells = np.where(rng.random((30, 30)) < 0.25, COST_MAX, 0)
            cells[0, 0] = 0
            cells[29, 29] = 0
            grid = obstacle_grid(cells)
            oracle = dijkstra_grid_length(cells == COST_MAX, (0, 0), (29, 29))
            if oracle is None:
                with pytest.raises(NoPathError):
                    astar_obstacle(grid, center(0, 0), center(29, 29))
            else:
                path = astar_obstacle(grid, center(0, 0), center(29, 29))
                assert path.length() == pytest.approx(oracle, abs=1e-9)


class TestAstarCost:
    def test_uniform_grid_matches_geometry(self):
        values = np.full((15, 15), 20)
        path = astar_cost(cost_grid(values), center(0, 0), center(14, 14))
        assert path.length() == pytest.approx(14 * SQRT2)

    def test_detour_around_expensive_strip(self):
        # a 4-cell-wide cost-90 strip with a free gap along the top row:
        # crossing straight costs ~14 extra weight, the detour only ~3.3
        values = np.zeros((9, 21), dtype=int)
        values[:, 9:13] = 90
        values[0, 9:13] = 0
        path = astar_cost(cost_grid(values), center(4, 2), center(4, 18))
        rows = ((path.points[:, 1]) - 0.5).round().astype(int)
        cols = ((path.points[:, 0]) - 0.5).round().astype(int)
        crossing_rows = {r for r, c in zip(rows, cols) if 9 <= c <= 12}
        assert crossing_rows == {0}
        oracle = dijkstra_weighted_cost(values.tolist(), (4, 2), (4, 18))
        assert _path_weight(path, values) == pytest.approx(oracle, abs=1e-9)

    def test_unknown_blocked(self):
        values = np.zeros((9, 9), dtype=int)
        values[:, 4] = -1
        with pytest.raises(NoPathError):
            astar_cost(cost_grid(values), center(4, 0), center(4, 8))

    def test_lethal_start_rejected(self):
        values = np.zeros((5, 5), dtype=int)
        values[2, 2] = 100
        with pytest.raises(InvalidStartError):
            astar_cost(cost_grid(values), center(2, 2), center(0, 0))

    def test_deterministic_tie_break(self):
        values = np.zeros((12, 12), dtype=int)
        a = astar_cost(cost_grid(values), center(0, 0), center(0, 11))
        b = astar_cost(cost_grid(values), center(0, 0), center(0, 11))
        assert np.array_equal(a.points, b.points)

    def test_matches_weighted_oracle_on_random_grids(self, rng):
        for _ in range(60):
            values = rng.integers(0, 100, size=(25, 25)).astype(np.int16)
            values[rng.random((25, 25)) < 0.1] = 100
            values[0, 0] = min(int(values[0, 0]), 99)
            values[24, 24] = min(int(values[24, 24]), 99)
            grid = cost_grid(values)
            oracle = dijkstra_weighted_cost(values.tolist(), (0, 0), (24, 24))
            if oracle is None:
                with pytest.raises(NoPathError):
                    astar_cost(grid, center(0, 0), center(24, 24))
                continue
            path = astar_cost(grid, center(0, 0), center(24, 24))
            weight = _path_weight(path, values)
            assert weight == pytest.approx(oracle, abs=1e-9)

    def test_zero_cost_grid_matches_weighted_oracle(self, rng):
        # no open cell has cost, so the search runs with uniform weights;
        # unknown cells must still block
        for _ in range(30):
            values = np.where(rng.random((25, 25)) < 0.25, 100, 0)
            values[rng.random((25, 25)) < 0.1] = -1
            values[0, 0] = values[24, 24] = 0
            oracle = dijkstra_weighted_cost(values.tolist(), (0, 0), (24, 24))
            if oracle is None:
                with pytest.raises(NoPathError):
                    astar_cost(cost_grid(values), center(0, 0), center(24, 24))
                continue
            path = astar_cost(cost_grid(values), center(0, 0), center(24, 24))
            assert _path_weight(path, values) == pytest.approx(oracle, abs=1e-9)


class TestBestProgress:
    @staticmethod
    def walled(start):
        # column 5 is a wall and (2, 4) is blocked, so the reachable cells
        # nearest the goal (2, 8) are (1, 4) and (3, 4), both sqrt(17) away
        cells = np.zeros((5, 9))
        cells[:, 5] = COST_MAX
        cells[2, 4] = COST_MAX
        return best_progress_path(obstacle_grid(cells), center(*start), center(2, 8))

    def test_nearest_reachable_cell(self):
        cells = np.zeros((5, 9))
        cells[:, 5] = COST_MAX
        path = best_progress_path(obstacle_grid(cells), center(2, 0), center(2, 8))
        assert tuple(path.points[0]) == center(2, 0)
        assert tuple(path.points[-1]) == center(2, 4)
        assert path.length() == pytest.approx(4.0)

    def test_distance_tie_breaks_on_path_weight(self):
        # from row 3, (3, 4) is a straight run; (1, 4) needs two diagonals
        assert tuple(self.walled((3, 0)).points[-1]) == center(3, 4)

    def test_full_tie_breaks_row_major(self):
        # from row 2 both candidates cost 3 + sqrt(2); the lower row wins
        assert tuple(self.walled((2, 0)).points[-1]) == center(1, 4)

    def test_costmap_walled_in_stays(self):
        # no reachable cell is nearer the goal than the start, unknown
        # ground on the start's side included
        values = np.zeros((12, 12), dtype=int)
        values[:, 6] = 100
        values[0, 0:3] = -1
        path = best_progress_path(cost_grid(values), center(6, 5), center(6, 11))
        assert path.points.tolist() == [list(center(6, 5))]

    def test_single_point_when_nothing_reachable(self):
        cells = np.zeros((5, 5))
        cells[1:4, 1:4] = COST_MAX
        cells[2, 2] = 0
        path = best_progress_path(obstacle_grid(cells), center(2, 2), center(0, 4))
        assert path.points.tolist() == [list(center(2, 2))]

    def test_blocked_start_rejected(self):
        cells = np.zeros((5, 5))
        cells[2, 2] = COST_MAX
        with pytest.raises(InvalidStartError):
            best_progress_path(obstacle_grid(cells), center(2, 2), center(0, 0))
        values = np.zeros((5, 5), dtype=int)
        values[2, 2] = -1
        with pytest.raises(InvalidStartError):
            best_progress_path(cost_grid(values), center(2, 2), center(0, 0))
        with pytest.raises(InvalidStartError):
            best_progress_path(cost_grid(values), (-3.0, 1.0), center(0, 0))


def _oracle_grids(rng):
    """Seeded (values, start, goal) cases for the search oracle, 12 of each kind."""
    def cell(rows, cols, col_lo=0):
        return int(rng.integers(rows)), int(rng.integers(col_lo, cols))

    for _ in range(12):  # uniform weights, heavy on ties
        n, m = rng.integers(8, 30, size=2)
        values = np.where(rng.random((n, m)) < rng.uniform(0.0, 0.35), 100, 0)
        yield values, cell(n, m), cell(n, m)
    for _ in range(12):  # graded costs: ramps, half of them cut into coarse steps
        n, m = rng.integers(8, 30, size=2)
        rows, cols = np.mgrid[0:n, 0:m]
        values = (rng.integers(0, 8) * rows + rng.integers(0, 8) * cols) % 90
        values = np.where(rng.random((n, m)) < 0.5, values, (values // 30) * 30)
        values[rng.random((n, m)) < 0.15] = 100
        yield values, cell(n, m), cell(n, m)
    for _ in range(12):  # unknown patches
        n, m = rng.integers(10, 30, size=2)
        values = rng.integers(0, 4, size=(n, m)) * 20
        for _patch in range(rng.integers(1, 4)):
            (r, c), (h, w) = cell(n, m), rng.integers(2, 6, size=2)
            values[r:r + h, c:c + w] = -1
        values[rng.random((n, m)) < 0.08] = 100
        yield values, cell(n, m), cell(n, m)
    for k in range(12):  # walled-in starts, half with unknown ground on the start's side
        n, m = rng.integers(10, 24), rng.integers(12, 30)
        values = rng.integers(0, 3, size=(n, m)) * 25 if k % 3 else np.zeros((n, m), dtype=int)
        wall = int(rng.integers(m // 3, 2 * m // 3))
        values[:, wall] = 100
        if k % 2:
            r, c = cell(n - 2, max(wall - 2, 1))
            values[r:r + 2, c:c + 2] = -1
        yield values, cell(n, wall), cell(n, m, wall + 1)
    for _ in range(12):  # goal behind a wall: two cells at equal distance, at different weights
        n, m = 2 * int(rng.integers(5, 11)) + 1, int(rng.integers(14, 26))
        mid, wall = n // 2, m - 5
        values = rng.integers(0, 5, size=(n, m)) * 15
        values[:, wall] = 100
        values[mid, wall - 1] = 100  # leaves (mid - 1, wall - 1) and (mid + 1, wall - 1)
        yield values, cell(n, wall - 1), (mid, m - 2)


class TestSearchOracle:
    """The planners' paths equal those of the dict/heap search core they
    replaced, cell for cell, on seeded grids of every kind."""

    @staticmethod
    def cells(path, cell_size):
        rows, cols = world_to_cell(path.points[:, 0], path.points[:, 1], (0.0, 0.0), cell_size)
        return np.column_stack([rows, cols])

    def test_paths_match_reference_search(self, rng):
        cases = list(_oracle_grids(rng))
        assert len(cases) >= 40
        counts = {"astar": 0, "no_path": 0, "best_progress": 0, "walled_in": 0}
        for values, start, goal in cases:
            for cell_size in (1.0, 0.25):
                grid = cost_grid(values, cell_size)
                s, g = center(*start, cell_size), center(*goal, cell_size)
                for planner, view in ((astar_cost, grid), (astar_obstacle, cost_to_obstacle(grid))):
                    if not 0 <= view.values[start] < COST_MAX:
                        continue
                    expected = search_best_progress_cells(view.values, start, goal)
                    got = best_progress_path(view, s, g)
                    assert np.array_equal(self.cells(got, cell_size), expected)
                    counts["best_progress"] += 1
                    counts["walled_in"] += math.dist(expected[-1], goal) >= (
                        math.dist(start, goal) - 3.0 / cell_size)
                    if start == goal or not 0 <= view.values[goal] < COST_MAX:
                        continue
                    expected = search_astar_cells(view.values, start, goal)
                    if expected is None:
                        counts["no_path"] += 1
                        with pytest.raises(NoPathError):
                            planner(view, s, g)
                    else:
                        counts["astar"] += 1
                        assert np.array_equal(self.cells(planner(view, s, g), cell_size), expected)
        assert min(counts.values()) >= 20, counts


def _path_weight(path, values, cell_size=1.0, alpha=4.0):
    total = 0.0
    cells = [(int(y // cell_size), int(x // cell_size)) for x, y in path.points]
    for (r0, c0), (r1, c1) in zip(cells, cells[1:]):
        step = math.hypot(r1 - r0, c1 - c0) * cell_size
        total += step * (1.0 + alpha * 0.5 * (values[r0][c0] + values[r1][c1]) / 100.0)
    return total


class TestPathChecks:
    def test_collision_on_obstacle_cell(self):
        cells = np.zeros((10, 10))
        cells[5, 5] = COST_MAX
        grid = obstacle_grid(cells)
        path = astar_obstacle(grid, center(5, 0), center(5, 9))
        assert first_lethal_point(Path(np.array([[5.5, 5.5]])), grid) == (5.5, 5.5)
        assert first_lethal_point(path, grid) is None

    def test_unknown_cells_do_not_collide(self):
        values = np.zeros((6, 6), dtype=int)
        values[:, :3] = COST_MAX - 1
        values[:, 3:] = COST_UNKNOWN
        pts = np.column_stack([np.arange(6) + 0.5, np.full(6, 2.5)])
        assert first_lethal_point(Path(pts), cost_grid(values)) is None

    def test_points_outside_grid_ignored(self):
        values = np.full((4, 4), COST_MAX, dtype=int)
        outside = np.array([[100.0, 100.0], [-5.0, 2.0], [2.0, -0.5], [4.0, 1.0]])
        assert first_lethal_point(Path(outside), cost_grid(values)) is None
        path = Path(np.vstack([outside, [[3.5, 0.5]]]))
        assert first_lethal_point(path, cost_grid(values)) == (3.5, 0.5)

    def test_cost_lethal_collides(self):
        values = np.zeros((4, 4), dtype=int)
        values[1, 1] = 100
        assert first_lethal_point(Path(np.array([[0.5, 0.5], [1.5, 1.5]])), cost_grid(values)) == (1.5, 1.5)

    def test_first_lethal_point_in_path_order(self):
        values = np.zeros((4, 8), dtype=int)
        values[1, 2] = values[1, 6] = COST_MAX
        pts = np.column_stack([np.arange(8)[::-1] + 0.5, np.full(8, 1.5)])
        assert first_lethal_point(Path(pts), cost_grid(values)) == (6.5, 1.5)
        assert first_lethal_point(Path(pts[::-1]), cost_grid(values)) == (2.5, 1.5)

    def test_checks_match_pointwise_oracle(self, rng):
        for _ in range(40):
            values = rng.integers(-1, 101, size=(12, 15))
            grid = CostGrid(values.astype(np.int16), (-2.0, 3.0), 0.5)
            pts = rng.uniform((-4.0, 1.0), (7.0, 11.0), size=(30, 2))
            under = values_under_points(values.tolist(), grid.origin, grid.cell_size, pts.tolist())
            lethal = [i for i, v in enumerate(under) if v is not None and v >= COST_MAX]
            expected = tuple(pts[lethal[0]].tolist()) if lethal else None
            assert first_lethal_point(Path(pts), grid) == expected


class TestOctile:
    def test_known_values(self):
        assert octile(0, 5) == 5.0
        assert octile(3, 3) == pytest.approx(3 * SQRT2)
        assert octile(2, 5) == pytest.approx(5 + (SQRT2 - 1) * 2)
