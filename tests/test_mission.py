import contextlib
import dataclasses
import hashlib
import http.server
import itertools
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import rovernav.mission as mission
from rovernav.classify import (
    VLM_KEY_ENV,
    MockClassifierBackend,
    ModeSwitcher,
    TerrainAssessment,
    VlmClassifierBackend,
    VlmConfig,
)
from rovernav.compare import ComparisonReport
from rovernav.config import build_scene, fill_config, scene_from_config
from rovernav.control import GOAL_TOLERANCE
from rovernav.errors import (
    EmptyPatchError,
    InsufficientDataError,
    InvalidStartError,
    NoPathError,
    ValidationError,
    VlmTimeoutError,
    VlmTransportError,
)
from rovernav.grids import cell_center, world_to_cell
from rovernav.map_server import GLOBAL_RESOLUTION, WaypointQueue
from rovernav.mapping import COST_MAX, CostGrid
from rovernav.mission import MissionMetrics, MissionRunner, ModeConfig, run_mission
from rovernav.modes import NavMode, TerrainClass
from rovernav.planning import astar_cost, first_lethal_point
from rovernav.terrain import Rock
from rovernav.world import FOOTPRINT_RADIUS, TICK_DT, RoverState, VelocityCommand, World, format_trajectory_row

import run_matrix
from conftest import flat_terrain

# The scenario matrix (`tests/run_matrix.py`) pins whole-scene missions but
# has no sensor-noise axis yet. These pin the rocky seed-0 scene with
# sensor_sigma 0.02, and so the order and number of noise draws: the
# forced-conservative mission over the first 2 waypoints (the costmap's
# record senses each block once), and the adaptive mock mission, which runs
# in safe mode and senses a fresh patch every second. The noise moves map
# cells (3097 and 5) but none of either mission's plans, so each digest is
# that of the matrix's noiseless `rocky/conservative-first2/seed0` and
# `rocky/mock/seed0`. Each pin therefore adds the sha256 of the final global
# map's bytes, which is what the noise draws reach.
NOISY_CONSERVATIVE_DIGEST = "15f880807524e456ad0c842c6ae6e568324faa83c915f10a184540cbc1180366"
NOISY_CONSERVATIVE_MAP = "33b3d4bd7ce4797393489847dd833994bfd10d13827902f278360e5a8964f06a"
NOISY_ADAPTIVE_DIGEST = "55ca16d400aa04d12f63ee0ab663d5a44c6f622b40a00ccb1f64f15100221819"
NOISY_ADAPTIVE_MAP = "20c6b5a15a4b0042959820d51dae4e1e5fe04892ab9d9547e08832d03afe1ebd"

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def scenarios(monkeypatch):
    """The benchmark's scenario module: its behaviour digest and the run
    invariants that every mission keeps."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "scenarios", raising=False)
    import scenarios

    return scenarios


def _assert_matrix_pin(name):
    record = run_matrix.scene_record(name)
    assert record["violations"] == [], record
    assert record["digest"] == run_matrix.newest_matrix()["scenes"][name]["digest"]


@pytest.mark.parametrize("kind", ["flat", "rocky", "mixed", "challenging"])
def test_golden_digests(kind):
    # The adaptive mock mission on build_scene(kind, 0); mixed is the
    # benchmark's adaptive mission.
    _assert_matrix_pin(f"{kind}/mock/seed0")


def test_golden_conservative_digest():
    # The benchmark's forced-conservative mission: the costmap path.
    _assert_matrix_pin("rocky/conservative-first2/seed0")


@pytest.mark.parametrize("seed", range(5))
def test_forced_conservative_records_no_hazard(seed):
    # The single-mode baseline may fail to arrive, never to stay safe. Seed
    # 2's final waypoint lies on inflated lethal cells and the final goal is
    # never relaxed: the flood ends short of it, and the mission ends
    # no_path once no plan makes progress.
    record = run_matrix.scene_record(f"rocky/conservative-first2/seed{seed}")
    assert record["hazards"] == []
    assert record["end_reason"] == ("no_path" if seed == 2 else "complete")


def _conservative_run(scene):
    """The forced-conservative mission over the scene's first 2 waypoints."""
    queue = WaypointQueue(list(scene.waypoints.points[:2]))
    return run_mission(scene.world, queue, None, forced_mode=NavMode.CONSERVATIVE, start=scene.start)


def _map_sha(result):
    return hashlib.sha256(result.server.global_map.values.tobytes()).hexdigest()


def test_conservative_missions_share_no_state(scenarios):
    # Each runner builds its own record of cost cells; nothing one mission
    # builds may reach the next, on the same scene or after another one.
    def digest(kind):
        result = _conservative_run(build_scene(kind, 0))
        return scenarios.mission_digest(result.metrics.to_dict(), result.trajectory)

    first = digest("rocky")
    assert digest("rocky") == first
    digest("challenging")
    pinned = run_matrix.newest_matrix()["scenes"]["rocky/conservative-first2/seed0"]["digest"]
    assert digest("rocky") == first == pinned


def _noisy_rocky_scene():
    return scene_from_config(fill_config({"terrain": {"preset": "rocky"}, "seed": 0, "sensor_sigma": 0.02}))


def test_noisy_conservative_digest(scenarios):
    result = _conservative_run(_noisy_rocky_scene())
    metrics, trajectory = result.metrics.to_dict(), result.trajectory
    assert scenarios.check_invariants(metrics, trajectory, len(trajectory), NavMode.CONSERVATIVE.value) == []
    assert scenarios.mission_digest(metrics, trajectory) == NOISY_CONSERVATIVE_DIGEST
    assert _map_sha(result) == NOISY_CONSERVATIVE_MAP != _map_sha(_conservative_run(build_scene("rocky", 0)))


def test_noisy_adaptive_digest(scenarios):
    scene = _noisy_rocky_scene()
    result = run_mission(scene.world, scene.waypoints, MockClassifierBackend(0), start=scene.start)
    metrics = result.metrics.to_dict()
    assert metrics["time_by_mode"]["safe"] == metrics["total_time"] > 0
    assert scenarios.check_invariants(metrics, result.trajectory, len(result.trajectory), None) == []
    assert scenarios.mission_digest(metrics, result.trajectory) == NOISY_ADAPTIVE_DIGEST
    assert _map_sha(result) == NOISY_ADAPTIVE_MAP


def test_forced_conservative_serves_every_waypoint():
    # The conservative goal lands on sensed ground, so each leg plans
    # directly to its waypoint instead of flooding short of it and skipping
    scene = build_scene("rocky", 0)
    queue = WaypointQueue(list(scene.waypoints.points[:3]))
    result = run_mission(scene.world, queue, None, forced_mode=NavMode.CONSERVATIVE, start=scene.start)
    metrics = result.metrics
    assert (metrics.end_reason, metrics.waypoints_reached, metrics.waypoints_skipped) == ("complete", 3, 0)
    assert metrics.hazards == []


def test_no_path_ending_counts_the_control_period(monkeypatch, scenarios):
    # Every plan fails, so the streak reaches no_path_limit on the fifth
    # retry, at tick 80: an even tick, where control is due.
    def blocked(*args, **kwargs):
        raise InvalidStartError("start cell is blocked")

    monkeypatch.setattr(mission, "astar_obstacle", blocked)
    result = run_mission(World(flat_terrain()), WaypointQueue([(40.0, 20.0)]), None,
                         forced_mode=NavMode.SAFE, start=RoverState(20.0, 20.0, 0.0))
    metrics = result.metrics.to_dict()
    assert (metrics["success"], metrics["end_reason"]) == (False, "no_path")
    assert scenarios.check_invariants(metrics, result.trajectory, 80, NavMode.SAFE.value) == []


def _closest_approach(trajectory, point):
    xy = np.array([[float(v) for v in row.split(",")[1:3]] for row in trajectory])
    return float(np.min(np.hypot(xy[:, 0] - point[0], xy[:, 1] - point[1])))


def _line(start, end):
    """A straight path sampled every 0.25 m at most, as the planners sample."""
    return mission.Path(np.linspace(start, end, math.ceil(math.dist(start, end) / 0.25) + 1))


def test_unplannable_intermediate_leg_is_skipped(monkeypatch):
    # Every plan toward the walled-off first waypoint fails; after
    # no_path_limit failures the mission routes on to the second one.
    walled = (40.0, 20.0)
    failures = []

    def planner(grid, start, goal):
        if math.dist(goal, walled) < 12.0:
            failures.append(start)
            raise InvalidStartError("start cell is blocked")
        return _line(start, goal)

    monkeypatch.setattr(mission, "astar_obstacle", planner)
    result = run_mission(World(flat_terrain()), WaypointQueue([walled, (20.0, 40.0)]), None,
                         forced_mode=NavMode.SAFE, start=RoverState(20.0, 20.0, 0.0))
    metrics = result.metrics
    assert (metrics.end_reason, metrics.waypoints_reached, metrics.waypoints_skipped) == ("complete", 1, 1)
    assert len(failures) == ModeConfig.no_path_limit
    assert result.plans["walled_in"] == ModeConfig.no_path_limit
    assert _closest_approach(result.trajectory, walled) > ModeConfig.waypoint_tolerance


def _stop_short(monkeypatch, blocked, stop, fallback=True):
    """Route every plan toward `blocked` (its goal within 12 m of it) to
    `stop` instead, short of it: through the flood fallback, the direct
    planner finding no path, or with `fallback` False as a direct path.
    Returns the starts of those plans."""
    starts = []

    def planner(grid, start, goal):
        if math.dist(goal, blocked) < 12.0:
            if fallback:
                raise NoPathError("goal cell is blocked")
            starts.append(start)
            return _line(start, stop)
        return _line(start, goal)

    def flood(grid, start, goal):
        starts.append(start)
        return _line(start, stop)

    monkeypatch.setattr(mission, "astar_obstacle", planner)
    monkeypatch.setattr(mission, "best_progress_path", flood)
    return starts


def test_blocked_intermediate_waypoint_within_slack_is_skipped(monkeypatch):
    blocked, stop = (40.0, 20.0), (35.0, 20.0)
    starts = _stop_short(monkeypatch, blocked, stop)
    result = run_mission(World(flat_terrain()), WaypointQueue([blocked, (20.0, 40.0)]), None,
                         forced_mode=NavMode.SAFE, start=RoverState(20.0, 20.0, 0.0))
    metrics = result.metrics
    assert (metrics.end_reason, metrics.waypoints_reached, metrics.waypoints_skipped) == ("complete", 1, 1)
    # skipped on arrival at the path's end, before any plan from there
    assert all(math.dist(start, stop) > 1.0 for start in starts)
    assert _closest_approach(result.trajectory, blocked) > ModeConfig.waypoint_tolerance


def test_short_direct_path_does_not_skip_its_waypoint(monkeypatch):
    # A direct path that ends short (the goal clamped into the window, here
    # a stand-in) proves nothing blocked: the rover replans from its end,
    # and only the no-path streak skips the waypoint.
    blocked, stop = (40.0, 20.0), (35.0, 20.0)
    starts = _stop_short(monkeypatch, blocked, stop, fallback=False)
    result = run_mission(World(flat_terrain()), WaypointQueue([blocked, (20.0, 40.0)]), None,
                         forced_mode=NavMode.SAFE, start=RoverState(20.0, 20.0, 0.0))
    metrics = result.metrics
    assert (metrics.end_reason, metrics.waypoints_reached, metrics.waypoints_skipped) == ("complete", 1, 1)
    assert sum(math.dist(start, stop) <= 1.0 for start in starts) == ModeConfig.no_path_limit


def test_rover_between_two_vertices_stays_on_its_path(monkeypatch):
    # The cross-track error is measured to the path's segments: mid-way
    # along a long straight segment, far from both of its vertices, the
    # rover is on its path and keeps it.
    starts = []

    def planner(grid, start, goal):
        starts.append(start)
        return mission.Path([start, goal])

    monkeypatch.setattr(mission, "astar_obstacle", planner)
    result = run_mission(World(flat_terrain()), WaypointQueue([(28.0, 24.0)]), None,
                         forced_mode=NavMode.SAFE, start=RoverState(20.0, 20.0, 0.0))
    assert result.metrics.success
    assert starts == [(20.0, 20.0)]


def _hairpin():
    """Out along y = 20, up the turn at x = 30 and back along y = 24, every
    0.25 m to x = 26, then one long segment to x = 16."""
    points = np.vstack([_line((20.0, 20.0), (30.0, 20.0)).points,
                        _line((30.0, 20.0), (30.0, 24.0)).points[1:],
                        _line((30.0, 24.0), (26.0, 24.0)).points[1:],
                        [(16.0, 24.0)]])
    return mission.Path(points)


def _old_rule_keeps(pts, x, y, limit):
    """The whole-path rule: the rover is on its path when a vertex or a
    segment lies within the limit."""
    vertex = np.hypot(pts[:, 0] - x, pts[:, 1] - y).min()
    a, b = pts[:-1], pts[1:]
    t = np.clip(((x - a[:, 0]) * (b[:, 0] - a[:, 0]) + (y - a[:, 1]) * (b[:, 1] - a[:, 1]))
                / np.maximum(((b - a) ** 2).sum(axis=1), 1e-300), 0.0, 1.0)
    segment = np.hypot(a[:, 0] + t * (b[:, 0] - a[:, 0]) - x, a[:, 1] + t * (b[:, 1] - a[:, 1]) - y).min()
    return bool(min(vertex, segment) <= limit)


def _keeps(runner, path, cursor_at, x, y):
    """Whether `_check_progress` keeps `path` with the rover at (x, y) and
    the tracker's cursor on the vertex nearest `cursor_at`."""
    runner.tracker = mission.PathTracker(path)
    runner.tracker.step(RoverState(*cursor_at, 0.0), 1.0)
    runner.state = RoverState(x, y, 0.0)
    runner._check_progress()
    return runner.tracker is not None


@pytest.mark.parametrize("x, y, kept", [
    (28.0, 23.2, True),   # 0.8 m from a vertex of the way back
    (21.0, 23.2, True),   # 0.8 m from the long segment, far from its ends
    (23.0, 22.0, False),  # 2 m from both legs
    (35.0, 22.0, False),  # beyond the turn
])
def test_off_path_check_reads_the_whole_path_beyond_the_cursor(x, y, kept):
    runner, path, limit = _runner(), _hairpin(), ModeConfig.off_path_limit
    cursor_at = (25.0, 20.0)
    assert math.dist(cursor_at, (x, y)) > limit
    assert _keeps(runner, path, cursor_at, x, y) is kept
    assert _old_rule_keeps(path.points, x, y, limit) is kept


def test_off_path_check_agrees_with_the_whole_path_rule():
    runner, path, limit = _runner(), _hairpin(), ModeConfig.off_path_limit
    rng = np.random.default_rng(31)
    decided = set()
    for cursor_at in [(20.0, 20.0), (25.0, 20.0), (30.0, 22.0), (27.0, 24.0), (16.0, 24.0)]:
        for x, y in rng.uniform((14.0, 17.0), (33.0, 27.0), (400, 2)):
            if math.dist((x, y), path.points[-1]) <= 2 * GOAL_TOLERANCE:
                continue  # a used-up path is dropped whatever the rule
            kept = _old_rule_keeps(path.points, x, y, limit)
            assert _keeps(runner, path, cursor_at, x, y) is kept, (cursor_at, x, y)
            decided.add(kept)
    assert decided == {True, False}


def test_off_path_check_drops_a_path_just_beyond_the_limit_at_the_cursor():
    # The cursor vertex lies a relative 1e-10 beyond the limit, inside the
    # band the cursor test's 1e-12 allowance must not skip, and the arms of
    # the V leave it at 45 degrees away from the rover, so every other
    # vertex and every segment lies farther still: the rover has left it.
    runner, limit = _runner(), ModeConfig.off_path_limit
    apex = (25.0, 20.0)
    path = mission.Path(np.vstack([_line((20.0, 25.0), apex).points, _line(apex, (30.0, 25.0)).points[1:]]))
    x, y = apex[0], apex[1] - limit * (1.0 + 1e-10)
    assert limit < math.hypot(apex[0] - x, apex[1] - y) < limit * (1.0 + 1e-9)
    assert _old_rule_keeps(path.points, x, y, limit) is False
    assert _keeps(runner, path, apex, x, y) is False


def test_blocked_final_waypoint_is_never_skipped(monkeypatch):
    blocked, stop = (40.0, 20.0), (35.0, 20.0)
    starts = _stop_short(monkeypatch, blocked, stop)
    result = run_mission(World(flat_terrain()), WaypointQueue([blocked]), None,
                         forced_mode=NavMode.SAFE, start=RoverState(20.0, 20.0, 0.0))
    metrics = result.metrics
    assert (metrics.end_reason, metrics.waypoints_reached, metrics.waypoints_skipped) == ("no_path", 0, 0)
    # the rover stood at the path's end, within the slack, and kept planning
    assert sum(math.dist(start, stop) <= 1.0 for start in starts) == ModeConfig.no_path_limit


def _safe_run(route):
    """A forced-safe mission on the flat 60 m terrain from (20, 20), facing
    east; the runner and its result."""
    runner = MissionRunner(World(flat_terrain()), WaypointQueue(route), None, forced_mode=NavMode.SAFE,
                           start=RoverState(20.0, 20.0, 0.0))
    return runner, runner.run()


def test_rover_parked_short_of_the_final_waypoint_replans_onto_it(monkeypatch):
    # The first path ends at (40.3, 20.75), 0.81 m from the final waypoint:
    # too far to be finished on it. The tracker stops the rover within
    # GOAL_TOLERANCE of that end, 0.76 m from the waypoint: inside
    # waypoint_tolerance but beyond the final leg's radius, so the used-up
    # path is dropped and the next plan finishes on the waypoint.
    waypoint = (40.0, 20.0)
    starts = []

    def planner(grid, start, goal):
        starts.append(start)
        return _line(start, (40.3, 20.75) if len(starts) == 1 else goal)

    monkeypatch.setattr(mission, "astar_obstacle", planner)
    runner, result = _safe_run([waypoint])
    metrics = result.metrics
    assert (metrics.end_reason, metrics.waypoints_reached) == ("complete", 1)
    assert result.plans == {"direct": 2}
    assert GOAL_TOLERANCE < math.dist(starts[1], waypoint) <= ModeConfig.waypoint_tolerance
    assert math.dist((runner.state.x, runner.state.y), waypoint) <= GOAL_TOLERANCE


def test_path_that_cannot_move_the_rover_fails_on_the_final_leg(monkeypatch):
    # Every path toward the waypoint ends at (39.2, 20), 0.8 m short of it:
    # within waypoint_tolerance, and too far to be finished on it. The
    # tracker stops the rover 0.5 m before that end, 1.3 m from the
    # waypoint, and from there every new path ends within GOAL_TOLERANCE of
    # the rover: each such plan fails, and the final leg ends "no_path"
    # after no_path_limit of them instead of replanning in place every tick
    # until the timeout.
    starts = _stop_short(monkeypatch, (40.0, 20.0), (39.2, 20.0), fallback=False)
    _, result = _safe_run([(40.0, 20.0)])
    metrics = result.metrics
    assert (metrics.end_reason, metrics.waypoints_reached, metrics.waypoints_skipped) == ("no_path", 0, 0)
    assert result.plans == {"direct": 1 + ModeConfig.no_path_limit}
    assert all(math.dist(start, (39.2, 20.0)) <= GOAL_TOLERANCE for start in starts[1:])


def test_path_that_cannot_move_the_rover_fails_on_an_intermediate_leg(monkeypatch):
    # The same paths on the first of two legs: after no_path_limit failed
    # plans the first waypoint is skipped, and the second one is reached.
    starts = _stop_short(monkeypatch, (40.0, 20.0), (39.2, 20.0), fallback=False)
    _, result = _safe_run([(40.0, 20.0), (20.0, 40.0)])
    metrics = result.metrics
    assert (metrics.end_reason, metrics.waypoints_reached, metrics.waypoints_skipped) == ("complete", 1, 1)
    assert len(starts) == 1 + ModeConfig.no_path_limit


def test_run_leaves_the_callers_queue_alone():
    queue = WaypointQueue([(30.0, 20.0)])
    result = run_mission(World(flat_terrain()), queue, None, forced_mode=NavMode.EFFICIENT,
                         start=RoverState(20.0, 20.0, 0.0))
    assert (result.metrics.success, result.metrics.waypoints_reached) == (True, 1)
    assert queue == WaypointQueue([(30.0, 20.0)])


def _runner(x=20.0, y=20.0):
    world = World(flat_terrain())
    return MissionRunner(world, WaypointQueue([(40.0, 20.0)]), None, start=RoverState(x, y, 0.0))


def test_planning_keeps_lethal_cells_on_the_rovers_trail(monkeypatch):
    # Having driven over a cell does not prove it drivable: a cell the map
    # marks lethal after the rover left it stays lethal for the planner.
    start = (20.25, 20.25)  # the centre of a global map cell
    runner = _runner(*start)
    runner.last_cmd = VelocityCommand(0.5, 0.0)
    for _ in range(120):  # 6 s east at 0.5 m/s, out of the start disc
        assert runner._move() is None
    assert runner.state.x - start[0] > 2.0 * runner.config.start_clear_radius
    gm = runner.server.global_map
    gm.values[:] = 0
    gm.values[world_to_cell(*start, gm.origin, gm.cell_size)] = COST_MAX
    searched = []

    def record(grid, *args):
        searched.append(grid)
        return astar_cost(grid, *args)

    monkeypatch.setattr(mission, "astar_cost", record)
    kind, path = runner._plan(NavMode.CONSERVATIVE, runner.route[0])
    assert kind == "direct" and path is not None
    (grid,) = searched
    assert grid.values[world_to_cell(*start, grid.origin, grid.cell_size)] == COST_MAX


def test_conservative_plan_searches_the_global_maps_own_cells(monkeypatch):
    # The costmap search gets the global map's own cells over the window:
    # outside the start disc every cell holds the global map's value.
    runner = _runner(20.25, 20.25)
    gm = runner.server.global_map
    gm.values[:] = np.random.default_rng(0).integers(-1, COST_MAX + 1, gm.values.shape)
    searched = []

    def record(grid, *args):
        searched.append(grid)
        return astar_cost(grid, *args)

    monkeypatch.setattr(mission, "astar_cost", record)
    runner._plan(NavMode.CONSERVATIVE, runner.route[0])
    (grid,) = searched
    assert grid.cell_size == GLOBAL_RESOLUTION
    assert grid.rows == grid.cols == round(ModeConfig.map_window / GLOBAL_RESOLUTION)
    c0, r0 = (round(v / GLOBAL_RESOLUTION) for v in grid.origin)
    xs, ys = cell_center(np.arange(grid.rows), np.arange(grid.cols), grid.origin, grid.cell_size)
    outside = np.hypot(xs - 20.25, ys[:, None] - 20.25) > runner.config.start_clear_radius
    mapped = gm.values[r0:r0 + grid.rows, c0:c0 + grid.cols]
    assert np.array_equal(grid.values[outside], mapped[outside])
    assert (grid.values[~outside] == 0).all()


def test_conservative_path_finishes_on_the_waypoint_over_no_lethal_cell(monkeypatch):
    # The search ends on the goal cell's centre, up to 1.5 cells (0.75 m at
    # GLOBAL_RESOLUTION) from the waypoint, and `_plan` finishes the path on
    # the waypoint with one straight segment that no search checked. Over
    # the forced-conservative rocky scenes, sampled every 0.01 m, no such
    # segment touches a lethal cell of the global map.
    segments = []
    plan = MissionRunner._plan

    def recording_plan(self, mode, waypoint):
        kind, path = plan(self, mode, waypoint)
        if mode is NavMode.CONSERVATIVE and path is not None:
            last, end = path.points[-2:]
            if np.array_equal(end, waypoint) and not np.array_equal(last, waypoint):
                dense = mission.Path(np.linspace(last, end, 100))
                segments.append(first_lethal_point(dense, self.server.global_map))
        return kind, path

    monkeypatch.setattr(MissionRunner, "_plan", recording_plan)
    for seed in range(5):
        run_matrix.run_scene("rocky", "conservative", 2, seed)
    assert segments == [None] * 9


def _plans_without_side_effects(runner, mode, waypoint):
    """`runner._plan(mode, waypoint)`, checking that it assigns no attribute
    of the runner."""
    before = dict(vars(runner))
    out = runner._plan(mode, waypoint)
    assert vars(runner).keys() == before.keys()
    assert [k for k, v in vars(runner).items() if v is not before[k]] == []
    return out


def _short_line(grid, start, goal):
    """A search that returns a path 1 m long: it stays in the start disc."""
    return _line(start, (start[0] + 1.0, start[1]))


def _raise(error):
    def search(*args):
        raise error("stand-in")
    return search


@pytest.mark.parametrize("mode", [NavMode.SAFE, NavMode.CONSERVATIVE])
def test_plan_returns_its_kind_and_path(monkeypatch, mode):
    runner = _runner(20.25, 20.25)
    waypoint = runner.route[0]
    assert _plans_without_side_effects(runner, mode, waypoint) == ("no_data", None)
    gm = runner.server.global_map
    gm.values[:] = 0
    kind, path = _plans_without_side_effects(runner, mode, waypoint)
    assert kind == "direct" and path.points[-1][0] > 30.0 - gm.cell_size
    # a lethal wall across the window between the rover and the waypoint
    wall = world_to_cell(27.0, 0.0, gm.origin, gm.cell_size)[1]
    gm.values[:, wall:wall + 2] = COST_MAX
    kind, path = _plans_without_side_effects(runner, mode, waypoint)
    assert kind == "flood" and 20.25 + 2.0 * runner.config.start_clear_radius < path.points[-1][0] < 27.0

    search = "astar_obstacle" if mode is NavMode.SAFE else "astar_cost"
    monkeypatch.setattr(mission, search, _raise(InvalidStartError))
    assert _plans_without_side_effects(runner, mode, waypoint) == ("walled_in", None)
    # a direct path and a flood that stay in the start disc
    monkeypatch.setattr(mission, search, _short_line)
    assert _plans_without_side_effects(runner, mode, waypoint) == ("direct", None)
    monkeypatch.setattr(mission, search, _raise(NoPathError))
    monkeypatch.setattr(mission, "best_progress_path", _short_line)
    assert _plans_without_side_effects(runner, mode, waypoint) == ("flood", None)


def test_efficient_plan_is_a_spline():
    runner = _runner(20.25, 20.25)
    kind, path = _plans_without_side_effects(runner, NavMode.EFFICIENT, runner.route[0])
    assert kind == "spline"
    assert path.points[0].tolist() == [20.25, 20.25] and path.points[-1].tolist() == [40.0, 20.0]


def test_plan_tick_keeps_the_books_from_the_plan_kind(monkeypatch):
    # (kind, path or None, the no-path streak and the flood flag after it)
    path = _line((20.0, 20.0), (30.0, 20.0))
    steps = [
        ("walled_in", None, 1, False),
        ("no_data", None, 1, False),  # no data yet is no failure
        ("flood", None, 2, False),
        ("spline", path, 2, False),   # a spline leaves the streak...
        ("flood", path, 0, True),
        ("spline", path, 0, True),    # ...and the flood flag
        ("direct", path, 0, False),
    ]
    runner = _runner()
    plans = iter(steps)
    monkeypatch.setattr(runner, "_plan", lambda mode, waypoint: next(plans)[:2])
    for kind, made, streak, flood in steps:
        runner.tracker = None
        assert runner._plan_tick(runner.next_plan_tick) is None
        assert (runner.tracker is not None, runner._no_path_streak, runner._flood_path) == (
            made is not None, streak, flood), kind
    assert runner.plans == {"walled_in": 1, "no_data": 1, "flood": 2, "spline": 2, "direct": 1}


def test_spline_plan_between_failed_safe_plans_leaves_the_no_path_streak(monkeypatch):
    # Two walled-in safe plans, a spline in efficient mode, then safe
    # again: the leg on the final waypoint ends "no_path" at the
    # no_path_limit-th failure, counting the two before the spline.
    monkeypatch.setattr(mission, "astar_obstacle", _raise(InvalidStartError))
    runner = _runner(20.25, 20.25)
    runner.server.global_map.values[:] = 0

    def plan(mode):
        runner.mode, runner.tracker = mode, None
        return runner._plan_tick(runner.next_plan_tick)

    assert [plan(NavMode.SAFE) for _ in range(2)] == [None, None]
    assert plan(NavMode.EFFICIENT) is None and runner.tracker is not None
    assert runner._no_path_streak == 2
    ends = [plan(NavMode.SAFE) for _ in range(ModeConfig.no_path_limit - 2)]
    assert ends == [None] * (ModeConfig.no_path_limit - 3) + ["no_path"]
    assert runner.plans == {"walled_in": ModeConfig.no_path_limit, "spline": 1}


def test_arrival_starts_the_next_leg_with_no_failed_plans(monkeypatch):
    # Two walled-in safe plans, then a spline that reaches the first
    # waypoint: the final leg still takes no_path_limit failed plans before
    # it ends "no_path", none carried from the leg before.
    monkeypatch.setattr(mission, "astar_obstacle", _raise(InvalidStartError))
    world = World(flat_terrain())
    runner = MissionRunner(world, WaypointQueue([(30.0, 20.0), (40.0, 20.0)]), None,
                           start=RoverState(20.25, 20.25, 0.0))
    runner.server.global_map.values[:] = 0

    def plan(mode):
        runner.mode, runner.tracker = mode, None
        return runner._plan_tick(runner.next_plan_tick)

    assert [plan(NavMode.SAFE) for _ in range(2)] == [None, None]
    assert plan(NavMode.EFFICIENT) is None and runner._no_path_streak == 2
    runner.state = RoverState(30.0, 20.0, 0.0)
    assert runner._arrive() is None
    assert (runner.leg, runner.metrics.waypoints_reached, runner._no_path_streak) == (1, 1, 0)
    ends = [plan(NavMode.SAFE) for _ in range(ModeConfig.no_path_limit)]
    assert ends == [None] * (ModeConfig.no_path_limit - 1) + ["no_path"]


def test_conservative_goal_in_unknown_cells_lands_on_sensed_ground(monkeypatch):
    # The waypoint lies beyond the sensed strip x < 25: the goal walks back
    # along the chord from the rover to the last known cell.
    runner = _runner(20.25, 20.25)
    gm = runner.server.global_map
    gm.values[:, :50] = 0
    goals = []

    def record(grid, start, goal):
        goals.append((grid, goal))
        return astar_cost(grid, start, goal)

    monkeypatch.setattr(mission, "astar_cost", record)
    kind, path = runner._plan(NavMode.CONSERVATIVE, (40.0, 22.25))
    assert kind == "direct" and path is not None
    ((grid, goal),) = goals
    assert grid.values[world_to_cell(*goal, grid.origin, grid.cell_size)] >= 0
    assert 25.0 - grid.cell_size <= goal[0] < 25.0
    # on the chord from the rover to the goal clamped into the window
    cx, cy = runner._clamp_goal(grid, (40.0, 22.25))
    assert goal[1] == pytest.approx(20.25 + (goal[0] - 20.25) * (cy - 20.25) / (cx - 20.25))


def test_conservative_goal_on_a_lethal_cell_stays():
    runner = _runner(20.25, 20.25)
    grid = CostGrid(np.full((200, 200), COST_MAX, dtype=np.int16), (10.0, 10.0), 0.1)
    assert runner._sensed_goal(grid, (29.95, 22.25)) == (29.95, 22.25)


def test_arrival_on_the_final_waypoint_uses_its_tolerance():
    runner = _runner(x=39.4)
    assert runner._arrive() is None and runner.leg == 0
    runner.state = RoverState(40.0 - GOAL_TOLERANCE, 20.0, 0.0)
    assert runner._arrive() == "complete"


def _clear_start_on_grid(x, y):
    """Clear the start of a rover at (x, y) on an 8 x 8 lethal grid from
    (9, 9) at 0.5 m; the runner, the grid, and the cells whose centres lie
    within the start radius of the rover."""
    runner = _runner(x=x, y=y)
    grid = CostGrid(np.full((8, 8), COST_MAX, dtype=np.int16), (9.0, 9.0), 0.5)
    runner._clear_start(grid)
    all_r, all_c = np.mgrid[0:8, 0:8]
    inside = np.hypot(9.0 + (all_c + 0.5) * 0.5 - x,
                      9.0 + (all_r + 0.5) * 0.5 - y) <= runner.config.start_clear_radius
    return runner, grid, inside


def test_clear_start_clears_disc_under_rover():
    runner, grid, inside = _clear_start_on_grid(10.5, 10.5)
    rr, cc = np.nonzero(grid.values == 0)
    xs = 9.0 + (cc + 0.5) * 0.5
    ys = 9.0 + (rr + 0.5) * 0.5
    assert len(rr) > 0
    assert (np.hypot(xs - 10.5, ys - 10.5) <= runner.config.start_clear_radius).all()
    assert np.array_equal(grid.values == 0, inside)


@pytest.mark.parametrize("x, y", [(9.2, 9.3), (12.9, 10.1), (13.6, 13.4), (8.5, 12.0), (20.0, 20.0)])
def test_clear_start_clips_the_disc_to_the_grid(x, y):
    # poses near a corner or edge of the grid, beyond it, and far from it
    _, grid, inside = _clear_start_on_grid(x, y)
    assert np.array_equal(grid.values == 0, inside)


def test_benchmark_targets_resolve(monkeypatch):
    # the benchmark wraps package functions by name; a rename must fail here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    shim = spans.Shim()
    assert len(shim.targets) == len(spans.TARGETS)
    tracer = spans.Tracer()
    shim.install(tracer)
    try:
        assert len(shim.unrestored()) == len(spans.TARGETS)
    finally:
        shim.restore()
    assert shim.unrestored() == []


def test_every_mission_loop_target_records_a_span(monkeypatch):
    # A target the mission captured at import (a table of functions, a
    # default argument) would escape its wrapper and read zero calls.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    loop = ("rovernav.mission", "rovernav.world", "rovernav.map_server", "rovernav.control")
    # the flood fallback runs only where a scene blocks the direct search
    expected = {span for module, _, span in spans.TARGETS
                if module in loop and span != "planning.best_progress_path"}
    shim, tracer = spans.Shim(), spans.Tracer()
    shim.install(tracer)
    try:
        for forced, classifier in ((NavMode.SAFE, None), (NavMode.CONSERVATIVE, None),
                                   (None, MockClassifierBackend(0))):
            result = run_mission(World(flat_terrain()), WaypointQueue([(30.0, 20.0)]), classifier,
                                 forced_mode=forced, start=RoverState(20.0, 20.0, 0.0))
            assert result.metrics.success, forced
    finally:
        shim.restore()
    assert sorted(expected - set(tracer.names)) == []


@pytest.mark.parametrize(
    "single_ok, multi_ok, multi_reached",
    [(True, True, 3), (True, False, 3), (False, True, 3), (False, False, 3), (True, True, 2)],
    ids=["True-True", "True-False", "False-True", "False-False", "True-True-fewer-waypoints"],
)
def test_comparison_speedup_only_when_both_runs_succeed(single_ok, multi_ok, multi_reached):
    # Two runs that reached different waypoints served different missions,
    # so their times are not compared either.
    single = MissionMetrics(success=single_ok, waypoints_reached=3)
    single.time_by_mode["conservative"] = 120.0
    single.distance_by_mode["conservative"] = 50.0
    multi = MissionMetrics(success=multi_ok, waypoints_reached=multi_reached)
    multi.time_by_mode["safe"] = 40.0
    multi.distance_by_mode["safe"] = 52.0
    row = ComparisonReport(single, multi).to_dict()
    assert "time_ratio" not in row
    if single_ok and multi_ok and multi_reached == 3:
        assert (row["speedup"], row["distance_ratio"]) == (3.0, 1.04)
    else:
        assert row["speedup"] is None and row["distance_ratio"] is None


def _ramp_terrain(slope_deg, foot):
    """Level ground that turns, at x = `foot`, into a ramp rising east."""
    terrain = flat_terrain()
    g = terrain.ground
    xs, _ = cell_center(0, np.arange(g.cols), g.origin, g.cell_size)
    g.elevation[:] = math.tan(math.radians(slope_deg)) * np.maximum(xs - foot, 0.0)
    return terrain


def _assert_ends_on_the_hazard(terrain, waypoints, start, kind):
    """Fly a forced-efficient mission that must end in hazard `kind`, and
    check the end against a fresh world: the trajectory's last row is the
    first pose that fails the check, with that hazard."""
    runner = MissionRunner(World(terrain), WaypointQueue(waypoints), None,
                           forced_mode=NavMode.EFFICIENT, start=start)
    result = runner.run()
    metrics, state = result.metrics, runner.state
    assert (metrics.end_reason, metrics.success) == (kind, False)
    hazard = World(terrain).check_hazard(state)
    assert (hazard.kind.value, hazard.position) == (kind, (state.x, state.y))
    assert metrics.hazards == [{"kind": kind, "x": round(state.x, 3), "y": round(state.y, 3),
                                "time": round(state.time, 3)}]
    assert len(result.trajectory) == round(state.time / TICK_DT)
    assert result.trajectory[-1] == format_trajectory_row(state, NavMode.EFFICIENT.value)
    t, x, y, heading, speed = map(float, result.trajectory[-2].split(",")[:5])
    assert World(terrain).check_hazard(RoverState(x, y, heading, speed, t)) is None
    return state


def test_efficient_mission_into_a_rock_ends_in_rock_collision():
    terrain = flat_terrain()
    terrain.rocks = [Rock(30.0, 20.0, 1.0, 0.5)]
    state = _assert_ends_on_the_hazard(terrain, [(40.0, 20.0)], RoverState(20.0, 20.0, 0.0), "rock_collision")
    # the footprint disc (2.3 m) touches the 1 m rock 3.3 m from its centre
    assert math.hypot(state.x - 30.0, state.y - 20.0) < FOOTPRINT_RADIUS + 1.0


def test_efficient_mission_up_a_35_degree_ramp_ends_in_tilt_exceeded():
    state = _assert_ends_on_the_hazard(_ramp_terrain(35.0, 30.0), [(45.0, 30.0)], RoverState(20.0, 30.0, 0.0),
                                       "tilt_exceeded")
    assert 30.0 - FOOTPRINT_RADIUS < state.x < 45.0


def test_mission_to_a_waypoint_on_the_map_edge_ends_off_map():
    state = _assert_ends_on_the_hazard(flat_terrain(), [(60.0, 30.0)], RoverState(40.0, 30.0, 0.0), "off_map")
    # the footprint leaves the hull of the cell centres, 0.25 m inside the edge
    assert state.x + FOOTPRINT_RADIUS > 60.0 - 0.25


class _ShortTimeout(ModeConfig):
    timeout_factor = 0.05


def test_mission_past_its_budget_ends_in_timeout():
    # budget 0.05 * 20 m / 0.5 m/s = 2 s: too short for 20 m at 2 m/s
    runner = MissionRunner(World(flat_terrain()), WaypointQueue([(40.0, 20.0)]), None, _ShortTimeout(),
                           forced_mode=NavMode.EFFICIENT, start=RoverState(20.0, 20.0, 0.0))
    assert runner.budget == pytest.approx(2.0)
    result = runner.run()
    metrics = result.metrics
    assert (metrics.end_reason, metrics.success, metrics.hazards, metrics.waypoints_reached) == (
        "timeout", False, [], 0)
    # it ends on the first tick n whose start, n * TICK_DT, lies past the budget
    n = len(result.trajectory) - 1
    assert n * TICK_DT > runner.budget >= (n - 1) * TICK_DT
    assert round(runner.state.time / TICK_DT) == n + 1


def test_mission_given_no_start_starts_on_its_first_waypoint_facing_east():
    runner = MissionRunner(World(flat_terrain()), WaypointQueue([(20.0, 20.0), (45.0, 20.0)]), None,
                           forced_mode=NavMode.EFFICIENT)
    assert runner.state == RoverState(20.0, 20.0, 0.0)
    # the budget's route is the 25 m leg between the waypoints
    assert runner.budget == ModeConfig.timeout_factor * 25.0 / ModeConfig.speed_conservative
    result = runner.run()
    assert (result.metrics.end_reason, result.metrics.waypoints_reached) == ("complete", 2)
    assert result.trajectory[0].split(",")[1:3] == ["20.000000", "20.000000"]


def test_every_scheduler_rate_divides_the_tick():
    config = ModeConfig()
    for rate in (config.control_rate, config.obstacle_rate, config.costmap_rate,
                 config.collision_rate, config.classifier_rate):
        ticks = config.tick_rate / rate
        assert ticks == round(ticks) == config.ticks(rate), rate


def test_mode_config_sets_only_speeds():
    assert [f.name for f in dataclasses.fields(ModeConfig)] == [
        "speed_efficient", "speed_safe", "speed_conservative"]
    with pytest.raises(ValidationError):
        ModeConfig(speed_efficient=0.8, speed_safe=0.8, speed_conservative=0.5)


FLAT, ROCKY, CHALLENGING = (TerrainAssessment(c, 0.1, 0.1) for c in TerrainClass)


def _modes(switcher, verdicts):
    return [switcher.update(v) for v in verdicts]


def test_mode_switcher_upgrades_immediately():
    assert _modes(ModeSwitcher(), [FLAT, ROCKY, CHALLENGING]) == [
        NavMode.EFFICIENT, NavMode.SAFE, NavMode.CONSERVATIVE]


def test_mode_switcher_follows_each_verdict_alone():
    # each class selects its mode and a miss selects conservative, whatever
    # came before: every verdict follows every run of two
    expected = {None: NavMode.CONSERVATIVE, FLAT: NavMode.EFFICIENT, ROCKY: NavMode.SAFE,
                CHALLENGING: NavMode.CONSERVATIVE}
    for verdicts in itertools.product(expected, repeat=3):
        assert _modes(ModeSwitcher(), verdicts) == [expected[v] for v in verdicts], verdicts


class _Verdicts:
    """A classifier that returns the given verdicts in turn, and raises
    those that are exceptions."""

    def __init__(self, *verdicts):
        self.verdicts = iter(verdicts)

    def assess(self, world, center):
        verdict = next(self.verdicts)
        if isinstance(verdict, Exception):
            raise verdict
        return verdict


def test_mode_switch_drops_the_path():
    runner = MissionRunner(World(flat_terrain()), WaypointQueue([(40.0, 20.0)]), _Verdicts(FLAT, FLAT, ROCKY),
                           start=RoverState(20.0, 20.0, 0.0))
    runner._classify()
    assert runner.mode is NavMode.EFFICIENT
    runner.tracker = mission.PathTracker(_line((20.0, 20.0), (40.0, 20.0)))
    runner._classify()  # the same class keeps the path
    assert runner.tracker is not None
    runner._classify()
    assert runner.mode is NavMode.SAFE
    assert runner.tracker is None


@pytest.mark.parametrize("error", [VlmTimeoutError, EmptyPatchError, InsufficientDataError])
def test_failed_verdict_drives_conservatively_until_the_next_verdict(error):
    runner = MissionRunner(World(flat_terrain()), WaypointQueue([(40.0, 20.0)]),
                           _Verdicts(FLAT, error("no verdict"), FLAT), start=RoverState(20.0, 20.0, 0.0))
    runner._classify()
    assert runner.mode is NavMode.EFFICIENT
    runner.tracker = mission.PathTracker(_line((20.0, 20.0), (40.0, 20.0)))
    runner._classify()
    assert runner.mode is NavMode.CONSERVATIVE
    assert runner.tracker is None
    runner._classify()
    assert runner.mode is NavMode.EFFICIENT


class _VlmStub(http.server.BaseHTTPRequestHandler):
    """Answers every POST with a fixed valid assessment and records its
    Authorization header."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.auth_headers.append(self.headers.get("Authorization"))
        body = b'{"terrain_class": "rocky", "rock_complexity": 0.5, "slope_complexity": 0.1}'
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _FaultyVlmStub(http.server.BaseHTTPRequestHandler):
    """Fails every POST the way `server.fault` names."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        if self.server.fault == "slow":
            time.sleep(0.5)  # then close without a reply
        elif self.server.fault == "http_500":
            self.send_error(500)
        elif self.server.fault == "truncated":
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"terrain_class": "rocky"')
        # "closed": return without a reply; the connection closes

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _serve(handler, **attrs):
    server = http.server.HTTPServer(("127.0.0.1", 0), handler)
    for name, value in attrs.items():
        setattr(server, name, value)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()


@pytest.fixture
def vlm_stub():
    with _serve(_VlmStub, auth_headers=[]) as server:
        yield server


@pytest.mark.parametrize("key, header", [("s3cret", "Bearer s3cret"), (None, None)], ids=["set", "unset"])
def test_vlm_backend_sends_key_from_env(vlm_stub, monkeypatch, key, header):
    config = VlmConfig(f"http://127.0.0.1:{vlm_stub.server_port}/", timeout_s=5.0)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    if key is None:
        monkeypatch.delenv(VLM_KEY_ENV, raising=False)
    else:
        monkeypatch.setenv(VLM_KEY_ENV, key)
    assessment = VlmClassifierBackend(config).assess(World(flat_terrain()), (30.0, 30.0))
    assert assessment.terrain_class is TerrainClass.ROCKY
    assert vlm_stub.auth_headers == [header]


@pytest.mark.parametrize("fault, error", [
    ("slow", VlmTimeoutError),
    ("http_500", VlmTransportError),
    ("closed", VlmTransportError),
    ("truncated", VlmTransportError),
])
def test_vlm_transport_failures_raise_vlm_errors(monkeypatch, fault, error):
    # the mission falls back on a VlmError; anything else would end it
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    with _serve(_FaultyVlmStub, fault=fault) as server:
        config = VlmConfig(f"http://127.0.0.1:{server.server_port}/", timeout_s=0.2)
        with pytest.raises(error):
            VlmClassifierBackend(config).assess(World(flat_terrain()), (30.0, 30.0))
