"""Microbenchmarks of the per-tick mapping and sensing layers, with
pytest-benchmark.

The file name keeps it out of the default test run; run it with
`python -m pytest tests/bench_mapping.py`. Sizes are those of the mission
loop: the conservative mode senses a 25.6 m window at 0.1 m and builds its
costmap on the 246 x 246 cell grid around it (a 20 m window plus a half fit
window each side), and the safe mode extracts obstacles on a 20 m window at
0.5 m. The terrain is the rocky preset, scene seed 0.
"""

import numpy as np
import pytest

from rovernav.config import build_scene
from rovernav.grids import disc_max, disc_min
from rovernav.mapping import GridGeometry, build_elevation_grid, build_navigation_costmap, extract_obstacles
from rovernav.world import TILT_FLAT_RANGE, RoverState

SENSE_SIZE = 25.6
COST_CELLS = 246


@pytest.fixture(scope="module")
def rocky():
    scene = build_scene("rocky", 0)
    # A pose among rocks, away from the flattened spawn clearing.
    return scene.world, RoverState(70.0, 70.0, 0.0)


@pytest.fixture(scope="module")
def costmap_elevation(rocky):
    world, pose = rocky
    pts = world.sense_points(pose, SENSE_SIZE, 0.1)
    half = COST_CELLS * 0.1 / 2.0
    geom = GridGeometry(COST_CELLS, COST_CELLS, (pose.x - half, pose.y - half), 0.1)
    return build_elevation_grid(pts, geom)


def test_build_navigation_costmap_246(benchmark, costmap_elevation):
    # Every call after the first reuses the cached mask half of the plane
    # fit, as the mission's all-known costmap grids do.
    cost = benchmark(build_navigation_costmap, costmap_elevation)
    assert cost.values.shape == (COST_CELLS, COST_CELLS)


def test_step_disc_max_min_r5(benchmark, costmap_elevation):
    # The step feature's inputs: heights with unknown cells at -inf / +inf.
    z = costmap_elevation.elevation
    known = np.isfinite(z)
    hi_in = np.where(known, z, -np.inf)
    lo_in = np.where(known, z, np.inf)
    hi, lo = benchmark(lambda: (disc_max(hi_in, 5.0), disc_min(lo_in, 5.0)))
    assert (hi >= lo).all()


def test_sense_points_rocky_256(benchmark, rocky):
    world, pose = rocky
    pts = benchmark(world.sense_points, pose, SENSE_SIZE, 0.1)
    assert pts.shape == (256 * 256, 3)


def _ground_range(world, pose):
    window = world.terrain.ground.elevation[world._tilt_window(pose.x, pose.y)]
    return window.max() - window.min()


def test_check_hazard(benchmark, rocky):
    world, pose = rocky
    # Flat ground with no hazard: the off-map and rock checks run, then the
    # ground's height range under the footprint ends the check before the
    # tilt fit, as on most ticks.
    assert _ground_range(world, pose) < TILT_FLAT_RANGE
    assert benchmark(world.check_hazard, pose) is None


def test_check_hazard_steep(benchmark):
    world = build_scene("challenging", 0).world
    pose = RoverState(20.0, 50.0, 0.0)
    # 4.3 m of relief under the footprint but no hazard, so the check runs
    # through to the tilt fit.
    assert _ground_range(world, pose) >= TILT_FLAT_RANGE
    assert benchmark(world.check_hazard, pose) is None


def test_extract_obstacles_40(benchmark, rocky):
    world, pose = rocky
    pts = world.sense_points(pose, 21.0, 0.25)
    geom = GridGeometry(40, 40, (pose.x - 10.0, pose.y - 10.0), 0.5)
    elev = build_elevation_grid(pts, geom)
    grid = benchmark(extract_obstacles, elev)
    assert grid.values.shape == (40, 40)
