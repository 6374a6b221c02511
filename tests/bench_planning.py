"""Microbenchmarks of the grid planners, with pytest-benchmark.

The file name keeps it out of the default test run; run it with
`python -m pytest tests/bench_planning.py`. The windows match what the
mission loop plans on, a 20 m window of the global map's 0.5 m cells: its
safe view (`cost_to_obstacle`), and the graded costmap that the
conservative mode searches as it is. The route search is the one
`waypoints.plan_waypoints` runs while the mixed course (seed 0) is set up:
the coarse costmap of its ground layer, inflated, then `astar_cost` from
start to goal.
"""

import numpy as np
import pytest
from scipy import ndimage

from rovernav.config import build_scene
from rovernav.grids import dilate_disc
from rovernav.mapping import COST_MAX, COST_UNKNOWN, CostGrid, cost_to_obstacle
from rovernav.planning import astar_cost, astar_obstacle, best_progress_path
from rovernav.waypoints import global_cost_from_dem


def _window(n, cell, graded, seed=0):
    """A seeded n x n window: inflated rock discs, a band of unknown ground
    along the far edge and, when graded, smooth 0..60 costs elsewhere."""
    rng = np.random.default_rng(seed)
    values = np.zeros((n, n), dtype=np.int16)
    if graded:
        smooth = ndimage.gaussian_filter(rng.random((n, n)), sigma=n / 20)
        smooth = (smooth - smooth.min()) / np.ptp(smooth)
        values[:] = np.rint(60.0 * smooth).astype(np.int16)
    rocks = rng.random((n, n)) < 0.016 * cell * cell  # 0.016 rocks per square meter
    values[dilate_disc(rocks, 1.0 / cell)] = COST_MAX
    values[:, -n // 8:] = COST_UNKNOWN
    ends = np.zeros((n, n), dtype=bool)
    ends[n // 10, n // 10] = ends[9 * n // 10, 8 * n // 10] = True
    values[dilate_disc(ends, 1.5 / cell)] = 0
    start = ((n // 10 + 0.5) * cell,) * 2
    goal = ((8 * n // 10 + 0.5) * cell, (9 * n // 10 + 0.5) * cell)
    return CostGrid(values, (0.0, 0.0), cell), start, goal


SAFE = {f"{n}x{n}": _window(n, 0.5, graded=False) for n in (40,)}


@pytest.mark.parametrize("size", sorted(SAFE))
def test_astar_obstacle_safe_view(benchmark, size):
    window, start, goal = SAFE[size]
    path = benchmark(lambda: astar_obstacle(cost_to_obstacle(window), start, goal))
    assert len(path) > 1


@pytest.mark.parametrize("size", sorted(SAFE))
def test_best_progress_path_safe_view(benchmark, size):
    window, start, goal = SAFE[size]
    path = benchmark(lambda: best_progress_path(cost_to_obstacle(window), start, goal))
    assert len(path) > 1


COSTMAP = _window(40, 0.5, graded=True)


def test_astar_cost_40(benchmark):
    window, start, goal = COSTMAP
    path = benchmark(astar_cost, window, start, goal)
    assert len(path) > 1


def test_best_progress_path_costmap_40(benchmark):
    window, start, goal = COSTMAP
    path = benchmark(best_progress_path, window, start, goal)
    assert len(path) > 1


MIXED = build_scene("mixed", 0)


def test_route_search_mixed(benchmark):
    def route():
        cost = global_cost_from_dem(MIXED.terrain.ground)
        return astar_cost(cost, (MIXED.start.x, MIXED.start.y), MIXED.goal)

    path = benchmark(route)
    assert len(path) > 1
