"""Microbenchmarks of the per-tick mapping and sensing layers, with
pytest-benchmark.

The file name keeps it out of the default test run; run it with
`python -m pytest tests/bench_mapping.py`. Sizes are those of the mission
loop. The conservative mode keeps a record of cost-cell codes at 0.1 m: a
straight move of 1 m between costmap ticks builds one strip of 10 x 270
cells (the 20 m window plus the 3.5 m inflation radius each side), sensed
with a 2.8 m feature margin and costed on its 10 x 270 kept cells alone
(`cost_cells(strip, margin=REACH)`), and folds the lethal halo in place
into the stored codes of the strip padded by the radius (`lethal_halo`).
Each tick then reads the 20 m window as the highest code of each of its
40 x 40 blocks of 5 x 5 cells and costs those at 0.5 m. The safe mode
senses 84 x 84 samples at 0.25 m (a 21 m patch), rasterizes them onto the
40 x 40 cells of a 20 m window at 0.5 m and extracts obstacles there. The
terrain is the rocky preset, scene seed 0.
"""

import math

import numpy as np
import pytest

from rovernav.config import build_scene
from rovernav.grids import disc_max, disc_min, interior
from rovernav.map_server import MapServer
from rovernav.mapping import (
    BUILD_PATCH_CELLS,
    CELL_HALO,
    DEFAULT_INFLATION_RADIUS,
    CostCellRecord,
    build_elevation_grid,
    build_navigation_costmap,
    cost_cells,
    cost_feature_reach,
    extract_obstacles,
    lethal_halo,
)
from rovernav.world import RoverState

CELL = 0.1
BASE = 0.5
WINDOW_CELLS = 200
HALO = math.ceil(DEFAULT_INFLATION_RADIUS / CELL)
REACH = cost_feature_reach(CELL)
STRIP_CELLS = 10


@pytest.fixture(scope="module")
def rocky():
    scene = build_scene("rocky", 0)
    # A pose among rocks, away from the flattened spawn clearing.
    return scene.world, RoverState(70.0, 70.0, 0.0)


def _patch(world, pose, rows, cols):
    """Heights sensed on the 0.1 m lattice, rows x cols cells centred on the pose."""
    origin = (round(pose.x / CELL - cols / 2) * CELL, round(pose.y / CELL - rows / 2) * CELL)
    return world.sense_points(origin, (rows, cols), CELL)


@pytest.fixture(scope="module")
def strip_elevation(rocky):
    world, pose = rocky
    return _patch(world, pose, WINDOW_CELLS + 2 * HALO + 2 * REACH, STRIP_CELLS + 2 * REACH)


@pytest.fixture(scope="module")
def strip_codes(rocky):
    """A strip's codes padded by the inflation radius, as the record folds
    its halo in: the stored codes of the strip and of the cells around it."""
    world, pose = rocky
    rows, cols = WINDOW_CELLS + 4 * HALO, STRIP_CELLS + 2 * HALO
    return cost_cells(_patch(world, pose, rows + 2 * REACH, cols + 2 * REACH), margin=REACH)


@pytest.fixture(scope="module")
def window_record(rocky):
    """A record with the 20 m window around the pose, and the inflation
    radius around it, built; with the window's first block (row, col) and
    its side n in blocks, as a tick reads them."""
    world, pose = rocky
    t = world.terrain
    record = CostCellRecord(world, MapServer((t.extent_x, t.extent_y)).global_map.values.shape, CELL,
                            round(BASE / CELL))
    n = round(WINDOW_CELLS * CELL / BASE)
    row, col = round(pose.y / BASE) - n // 2, round(pose.x / BASE) - n // 2
    record.window(row, col, n)
    return record, row, col, n


def test_sense_points_strip(benchmark, rocky, strip_elevation):
    world, pose = rocky
    elev = benchmark(_patch, world, pose, *strip_elevation.elevation.shape)
    assert np.isfinite(elev.elevation).all()


def test_cost_cells_strip(benchmark, strip_elevation):
    codes = benchmark(cost_cells, strip_elevation, margin=REACH)
    assert codes.shape == (WINDOW_CELLS + 2 * HALO, STRIP_CELLS)


def test_cost_cells_first_window_piece(benchmark, rocky):
    # A mission's first costmap window builds 54 x 54 blocks (the 40-block
    # window and the inflation radius around it) in two pieces of 27 x 54
    # blocks under `BUILD_PATCH_CELLS`; one piece, with its feature margin.
    world, pose = rocky
    k = round(BASE / CELL)
    piece = _patch(world, pose, 27 * k + 2 * REACH, 54 * k + 2 * REACH)
    assert piece.elevation.size <= BUILD_PATCH_CELLS
    codes = benchmark(cost_cells, piece, margin=REACH)
    assert codes.shape == (27 * k, 54 * k)


def _fold(codes):
    lethal_halo(codes, CELL)
    return codes


def test_lethal_halo_strip(benchmark, strip_codes):
    # the fold writes in place: each round folds a fresh copy, untimed
    codes = benchmark.pedantic(_fold, setup=lambda: ((strip_codes.copy(),), {}), rounds=20)
    assert codes.shape == strip_codes.shape and (codes == CELL_HALO).any()


def test_read_window_costs_40(benchmark, window_record):
    record, row, col, n = window_record

    def read():
        return build_navigation_costmap(record.window(row, col, n), (col * BASE, row * BASE), BASE)

    cost = benchmark(read)
    assert cost.values.shape == (n, n) and (cost.values >= 0).all()


def test_step_disc_max_min_r5(benchmark, strip_elevation):
    # The step feature's inputs: heights with unknown cells at -inf / +inf,
    # on the cells it fits planes on, the strip's kept cells and their
    # 5-cell step ring.
    z = strip_elevation.elevation[interior(strip_elevation.elevation.shape, REACH - 5)]
    assert z.shape == (WINDOW_CELLS + 2 * HALO + 10, STRIP_CELLS + 10)
    known = np.isfinite(z)
    hi_in = np.where(known, z, -np.inf)
    lo_in = np.where(known, z, np.inf)
    hi, lo = benchmark(lambda: (disc_max(hi_in, 5.0), disc_min(lo_in, 5.0)))
    assert (hi >= lo).all()


def _check_hazard_afresh(world, pose):
    """`check_hazard` with the world's carried clearance dropped, so every
    call refreshes it as a tick does after a jump."""
    world._clearance = (0.0, 0.0, -math.inf)
    return world.check_hazard(pose)


def test_check_hazard_refresh(benchmark, rocky):
    world, pose = rocky
    # Among rocks with no hazard: the hull clearance, the tilt slack and the
    # rock gaps are all measured.
    assert benchmark(_check_hazard_afresh, world, pose) is None


def test_check_hazard_carried(benchmark, rocky):
    world, pose = rocky
    # A tick 4 cm on from a refreshed pose, inside its clearance: the check
    # returns before any test.
    assert _check_hazard_afresh(world, pose) is None
    assert world._clearance[2] > 0.04
    moved = RoverState(pose.x + 0.04, pose.y, pose.heading)
    assert benchmark(world.check_hazard, moved) is None
    assert world._clearance[:2] == (pose.x, pose.y)


def _walk_hazards(world, poses):
    world._clearance = (0.0, 0.0, -math.inf)
    return [world.check_hazard(pose) for pose in poses]


def test_check_hazard_walk(benchmark):
    # 300 ticks of 0.04 m (0.8 m/s, the safe-mode cap) over the challenging
    # tile, from a pose with 4.3 m of relief under the footprint: most ticks
    # answer from the clearance carried from the last refresh.
    world = build_scene("challenging", 0).world
    poses = [RoverState(20.0 + 0.04 * i, 50.0, 0.0) for i in range(300)]
    hazards = benchmark(_walk_hazards, world, poses)
    assert hazards == [None] * len(poses)


def test_check_hazard_flat_walk(benchmark):
    # 2 700 ticks 0.1 m apart along the mixed course's two flat tiles: the
    # tilt slack's bound is read near each refresh pose, so the steep
    # challenging tile does not shorten the clearance carried here.
    world = build_scene("mixed", 0).world
    poses = [RoverState(5.0 + 0.1 * i, 70.0, 0.0) for i in range(2700)]
    hazards = benchmark(_walk_hazards, world, poses)
    assert hazards == [None] * len(poses)


def _safe_patch(world, pose):
    """The safe mode's 21 m patch of 84 x 84 samples at 0.25 m around the pose."""
    return world.sense_points((pose.x - 10.5, pose.y - 10.5), (84, 84), 0.25)


def test_sense_points_safe_84(benchmark, rocky):
    world, pose = rocky
    patch = benchmark(_safe_patch, world, pose)
    assert patch.elevation.shape == (84, 84)


def test_build_elevation_grid_40(benchmark, rocky):
    world, pose = rocky
    patch = _safe_patch(world, pose)
    elev = benchmark(build_elevation_grid, patch, (40, 40), (pose.x - 10.0, pose.y - 10.0), 0.5)
    assert np.isfinite(elev.elevation).all()


def test_extract_obstacles_40(benchmark, rocky):
    world, pose = rocky
    elev = build_elevation_grid(_safe_patch(world, pose), (40, 40), (pose.x - 10.0, pose.y - 10.0), 0.5)
    grid = benchmark(extract_obstacles, elev)
    assert grid.values.shape == (40, 40)
