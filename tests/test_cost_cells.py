"""The conservative costmap's per-mission record of cost cells
(`mapping.CostCellRecord`): the codes behind the windows it publishes, what
the global map merges of them, and how often it builds."""

import math

import numpy as np
import pytest

from rovernav.config import build_scene
from rovernav.grids import dilate_disc, interior, plane_fit_grid
from rovernav.mapping import (
    BUMP_INFLATION_RADIUS,
    CELL_BUMP_LETHAL,
    CELL_HALO,
    CELL_SLOPE_LETHAL,
    CELL_UNKNOWN,
    DEFAULT_INFLATION_RADIUS,
    CostGrid,
    CostWeights,
    build_navigation_costmap,
    cost_cells,
    cost_feature_reach,
    cost_features,
    lethal_halo,
)
from rovernav.mapping import CostCellRecord, _feature_windows
from rovernav import mapping
from rovernav.mission import MissionRunner, ModeConfig
from rovernav.modes import NavMode
from rovernav.world import RoverState

CELL = ModeConfig.cost_resolution
# Cells from the published window to the farthest height its costs read:
# the inflation radius, then the feature reach of the cells inside it.
WIDE_MARGIN = cost_feature_reach(CELL) + math.ceil(DEFAULT_INFLATION_RADIUS / CELL)
THRESHOLD_EPS = 1e-9


def conservative_runner(kind, monkeypatch):
    """A forced-conservative runner on `build_scene(kind, 0)`, with the lists
    it fills: each window the record publishes, as its 0.1 m codes
    (`window_cells`) and the block codes `CostCellRecord.window` returned,
    the grids it merges into the global map, and the patches it senses."""
    scene = build_scene(kind, 0)
    runner = MissionRunner(scene.world, scene.waypoints, None, forced_mode=NavMode.CONSERVATIVE,
                           start=scene.start)
    published, merged, sensed = [], [], []
    window, merge, sense = CostCellRecord.window, runner.server.update_from_local, runner.world.sense_points

    def record_window(record, row, col, n):
        blocks = window(record, row, col, n)
        published.append((window_cells(record, row, col, n), blocks))
        return blocks

    def record_merge(local, mode):
        merged.append(local)
        return merge(local, mode)

    def record_sense(origin, shape, resolution):
        sensed.append((origin, shape))
        return sense(origin, shape, resolution)

    monkeypatch.setattr(CostCellRecord, "window", record_window)
    runner.server.update_from_local = record_merge
    runner.world.sense_points = record_sense
    return runner, published, merged, sensed


def window_cells(record, row, col, n):
    """The record's 0.1 m codes over the n x n blocks from block (row, col),
    with unknown off the map, as a grid of codes."""
    k = record.block
    codes = np.zeros((n * k, n * k), dtype=np.uint8)
    src = record.codes[max(row, 0) * k:(row + n) * k, max(col, 0) * k:(col + n) * k]
    top, left = (max(row, 0) - row) * k, (max(col, 0) - col) * k
    codes[top:top + src.shape[0], left:left + src.shape[1]] = src
    return CostGrid(codes, (col * k * record.cell, row * k * record.cell), record.cell)


def publish_at(runner, published, x, y):
    """The window the runner publishes with the rover at (x, y): its 0.1 m
    codes and its block codes."""
    runner.state = RoverState(x, y, 0.0)
    runner._update_map(NavMode.CONSERVATIVE)
    return published[-1]


def seeded_poses(world, start, count, seed):
    """A random walk from `start`: steps of up to 2.5 m, and now and then a
    jump back to an earlier pose, so windows move straight, diagonally, and
    return over cells already built."""
    rng = np.random.default_rng(seed)
    t = world.terrain
    poses = [start]
    while len(poses) < count:
        if rng.random() < 0.15:
            poses.append(poses[int(rng.integers(len(poses)))])
            continue
        step = rng.uniform(0.2, 2.5)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        x = min(max(poses[-1][0] + step * math.cos(heading), 3.0), t.extent_x - 3.0)
        y = min(max(poses[-1][1] + step * math.sin(heading), 3.0), t.extent_y - 3.0)
        poses.append((x, y))
    return poses


def from_scratch(world, window):
    """One build of the window's codes, the halo folded in, from a patch
    sensed on the same cell centres and wide enough for every cell the
    window reads; also the cells where float rounding may legitimately
    flip a code."""
    m = WIDE_MARGIN
    origin = (window.origin[0] - m * CELL, window.origin[1] - m * CELL)
    elev = world.sense_points(origin, (window.rows + 2 * m, window.cols + 2 * m), CELL)
    codes, inner = cost_cells(elev), np.s_[m:-m, m:-m]
    lethal_halo(codes, CELL)
    expected = CostGrid(codes[inner], (origin[0] + m * CELL, origin[1] + m * CELL), CELL)
    w = CostWeights()
    f, slope, rough, step = cost_features(elev, w)
    near_rounding = np.abs(f - np.floor(f) - 0.5) < THRESHOLD_EPS
    near_lethal = ((np.abs(slope - w.slope_max_deg) < THRESHOLD_EPS)
                   | (np.abs(rough - w.rough_max) < THRESHOLD_EPS)
                   | (np.abs(step - w.step_max) < THRESHOLD_EPS))
    allowed = near_rounding | dilate_disc(near_lethal, DEFAULT_INFLATION_RADIUS / CELL)
    return expected, allowed[inner]


@pytest.mark.parametrize("kind, origin", [
    ("rocky", (67.3, 55.0)), ("challenging", (18.4, 40.2)),
    # hanging off the map's corner: two thirds of the cells are unknown
    ("rocky", (-3.3, -13.0)),
])
def test_a_build_costs_the_interior_of_its_patch(kind, origin):
    """A record's build: a strip of blocks sensed with its feature margin
    and costed with `margin`, equal byte for byte to the interior of the
    codes of its whole patch."""
    world = build_scene(kind, 0).world
    m = cost_feature_reach(CELL)
    elev = world.sense_points(origin, (270 + 2 * m, 10 + 2 * m), CELL)
    kept = interior(elev.elevation.shape, m)
    codes = cost_cells(elev, margin=m)
    assert codes.shape == (270, 10)
    assert codes.tobytes() == cost_cells(elev)[kept].tobytes()
    win, ring = _feature_windows(CELL, CostWeights())
    fit = interior(elev.elevation.shape, m - int(ring))
    for got, want in zip(plane_fit_grid(elev.elevation, win, CELL, m - int(ring)),
                         plane_fit_grid(elev.elevation, win, CELL)):
        assert np.array_equal(got, want[fit])


@pytest.mark.parametrize("kind", ["rocky", "challenging"])
def test_published_windows_equal_a_build_from_scratch(kind, monkeypatch):
    runner, published, merged, _ = conservative_runner(kind, monkeypatch)
    world = runner.world
    start = (runner.state.x, runner.state.y)
    for i, (x, y) in enumerate(seeded_poses(world, start, 20, seed=5)):
        window, blocks = publish_at(runner, published, x, y)
        expected, allowed = from_scratch(world, window)
        assert (window.origin, window.values.shape) == (expected.origin, expected.values.shape)
        differ = window.values != expected.values
        # Costs built from different patches differ only by float rounding,
        # which can flip a cell only where a feature sits on a threshold.
        unexplained = np.argwhere(differ & ~allowed).tolist()
        assert unexplained == [], (i, (x, y), unexplained[:20])
        assert (window.values != CELL_UNKNOWN).any()
        # each block code is the highest 0.1 m code of its block, and the
        # global map merges each global cell's highest cost
        local, k = merged[-1], runner.cost_record.block
        n = window.rows // k
        assert np.array_equal(blocks, window.values.reshape(n, k, n, k).max(axis=(1, 3)))
        costs = build_navigation_costmap(window.values, window.origin, CELL).values
        assert local.cell_size == runner.server.global_map.cell_size
        assert local.origin == pytest.approx(window.origin, abs=1e-9)
        assert np.array_equal(local.values, costs.reshape(n, k, n, k).max(axis=(1, 3)))


def test_each_block_is_built_at_most_once(monkeypatch):
    runner, published, _, sensed = conservative_runner("rocky", monkeypatch)
    start = (runner.state.x, runner.state.y)
    for x, y in seeded_poses(runner.world, start, 30, seed=11):
        publish_at(runner, published, x, y)
    record = runner.cost_record
    k, m = record.block, record.reach
    builds = np.zeros(record.built.shape, dtype=int)
    for (x0, y0), (rows, cols) in sensed:
        r0, c0 = round(y0 / CELL) + m, round(x0 / CELL) + m
        builds[r0 // k:(r0 + rows - 2 * m) // k, c0 // k:(c0 + cols - 2 * m) // k] += 1
    assert builds.max() == 1
    assert np.array_equal(builds == 1, record.built)


def test_halo_is_that_of_every_stored_code(monkeypatch):
    # The last two windows hang off a corner and an edge of the map, so the
    # halo grown there is clipped to the map.
    runner, published, _, _ = conservative_runner("rocky", monkeypatch)
    built = []  # each build's top-left cell and its codes before the fold
    cost = mapping.cost_cells

    def recorded(elev, margin):
        codes = cost(elev, margin=margin)
        built.append((round(elev.origin[1] / CELL) + margin, round(elev.origin[0] / CELL) + margin, codes.copy()))
        return codes

    monkeypatch.setattr(mapping, "cost_cells", recorded)
    start = (runner.state.x, runner.state.y)
    for x, y in [*seeded_poses(runner.world, start, 20, seed=3), (4.0, 136.5), (139.5, 70.0)]:
        publish_at(runner, published, x, y)
    codes = runner.cost_record.codes
    raw = np.zeros_like(codes)
    for r, c, block in built:
        raw[r:r + block.shape[0], c:c + block.shape[1]] = block
    slope, bump = raw == CELL_SLOPE_LETHAL, raw == CELL_BUMP_LETHAL
    assert slope.any() and bump.any()
    halo = dilate_disc(slope, DEFAULT_INFLATION_RADIUS / CELL) | dilate_disc(bump, BUMP_INFLATION_RADIUS / CELL)
    expected = halo & (raw != CELL_UNKNOWN) & ~slope & ~bump
    assert np.array_equal(codes == CELL_HALO, expected)
    # every other code, the lethal ones among them, is the one built
    assert np.array_equal(codes[~expected], raw[~expected])


def test_a_refresh_that_builds_no_block_inflates_nothing(monkeypatch):
    runner, published, _, _ = conservative_runner("rocky", monkeypatch)
    calls = []
    dilate = mapping.dilate_disc

    def counted(mask, radius_cells):
        calls.append(radius_cells)
        return dilate(mask, radius_cells)

    monkeypatch.setattr(mapping, "dilate_disc", counted)
    first, first_blocks = publish_at(runner, published, 70.0, 70.0)
    assert calls
    calls.clear()
    again, again_blocks = publish_at(runner, published, 70.0, 70.0)
    assert calls == []
    assert np.array_equal(again.values, first.values)
    assert np.array_equal(again_blocks, first_blocks)


@pytest.mark.parametrize("x, y", [(15.05, 70.0), (20.15, 66.45), (4.0, 136.5)])
def test_no_in_map_window_cell_is_unknown(x, y, monkeypatch):
    # The first two poses lie an odd multiple of 0.05 m off the map
    # lattice: a lattice sensed around the rover and rasterized onto the
    # map's cells left up to 15 712 of these windows' cells unknown. The
    # last window hangs off a corner of the map.
    runner, published, _, _ = conservative_runner("rocky", monkeypatch)
    window, blocks = publish_at(runner, published, x, y)
    t = runner.world.terrain
    xs = window.origin[0] + (np.arange(window.cols) + 0.5) * CELL
    ys = window.origin[1] + (np.arange(window.rows) + 0.5) * CELL
    in_map = ((ys >= 0) & (ys <= t.extent_y))[:, None] & ((xs >= 0) & (xs <= t.extent_x))[None, :]
    assert in_map.sum() > 0
    assert int(np.count_nonzero(window.values[in_map] == CELL_UNKNOWN)) == 0
    assert (window.values[~in_map] == CELL_UNKNOWN).all()
    # the block codes `CostCellRecord.window` returned: unknown on exactly
    # the blocks off the map, and each in-map block's highest code
    k = runner.cost_record.block
    n = window.rows // k
    on_map = in_map.reshape(n, k, n, k)
    assert np.array_equal(on_map.any(axis=(1, 3)), on_map.all(axis=(1, 3)))
    in_map_blocks = on_map.all(axis=(1, 3))
    assert np.array_equal(blocks == CELL_UNKNOWN, ~in_map_blocks)
    assert np.array_equal(blocks, window.values.reshape(n, k, n, k).max(axis=(1, 3)))
