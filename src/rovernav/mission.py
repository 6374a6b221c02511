"""Closed-loop mission executor: this module keeps only the runner.

`MissionRunner` drives every subsystem at its own rate on a fixed 20 Hz
tick. It asks the classifier about the terrain ahead of the rover (toward
the next waypoint); the mode rule turns the verdict into a navigation mode,
which selects the speed cap, the mapping product, and the planner. The
backends and the rule live in `rovernav.classify`. Everything is simulated
time; a run is exactly reproducible from its seed when using the mock or
geometric classifier.

Each plan has one kind: "spline" (efficient mode), "direct" (the search
reached the goal), "flood" (no route, so the path to the reachable cell
nearest the goal), "no_data" (the window holds no known cell) or
"walled_in" (the start is). `MissionResult.plans` tallies them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import classify
from .classify import ModeSwitcher
from .control import GOAL_TOLERANCE, PathTracker
from .errors import (
    EmptyPatchError,
    InsufficientDataError,
    InvalidStartError,
    MissionConfigError,
    NoPathError,
    ValidationError,
    VlmError,
)
from .grids import cell_center, world_to_cell
from .map_server import MapServer, WaypointQueue
from .mapping import (
    CostCellRecord,
    CostGrid,
    build_elevation_grid,
    build_navigation_costmap,
    cost_to_obstacle,
    extract_obstacles,
)
from .modes import NavMode
from .planning import Path, astar_cost, astar_obstacle, best_progress_path, bspline_path
from .world import (
    RoverState,
    TICK_DT,
    VelocityCommand,
    World,
    format_trajectory_row,
    step,
)


@dataclass(frozen=True)
class ModeConfig:
    """Per-mode speed caps, the one setting a mission config can change.

    The map geometry, scheduler rates and mission limits below are class
    constants shared by every mission. Each rate must divide the tick rate.
    """

    speed_efficient: float = 2.0
    speed_safe: float = 0.8
    speed_conservative: float = 0.5

    map_window = 20.0
    cost_resolution = 0.1
    control_rate = 10.0
    obstacle_rate = 1.0
    costmap_rate = 0.5
    collision_rate = 1.0
    classifier_rate = 0.2
    tick_rate = 1.0 / TICK_DT
    classifier_lookahead = 12.0
    waypoint_tolerance = 1.0
    start_clear_radius = 1.15
    # An intermediate waypoint whose surroundings are blocked counts as
    # served once the rover stands at the closest approachable point within
    # this distance of it; the final goal is never relaxed.
    blocked_waypoint_slack = 8.0
    off_path_limit = 1.2
    no_path_limit = 5
    timeout_factor = 5.0

    def __post_init__(self):
        if not self.speed_efficient > self.speed_safe > self.speed_conservative > 0:
            raise ValidationError("mode speeds must strictly decrease with severity")

    def speed(self, mode: NavMode) -> float:
        return getattr(self, f"speed_{mode.value}")

    def ticks(self, rate: float) -> int:
        return round(self.tick_rate / rate)


@dataclass
class MissionMetrics:
    success: bool = False
    end_reason: str = ""
    time_by_mode: dict = field(default_factory=lambda: {m.value: 0.0 for m in NavMode})
    distance_by_mode: dict = field(default_factory=lambda: {m.value: 0.0 for m in NavMode})
    hazards: list = field(default_factory=list)
    replan_count: int = 0
    waypoints_reached: int = 0
    waypoints_skipped: int = 0
    scheduler_counts: dict = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return sum(self.time_by_mode.values())

    @property
    def total_distance(self) -> float:
        return sum(self.distance_by_mode.values())

    def to_dict(self) -> dict:
        return {
            "success": self.success,
            "end_reason": self.end_reason,
            "total_time": round(self.total_time, 6),
            "total_distance": round(self.total_distance, 6),
            "time_by_mode": {k: round(v, 6) for k, v in sorted(self.time_by_mode.items())},
            "distance_by_mode": {k: round(v, 6) for k, v in sorted(self.distance_by_mode.items())},
            "hazards": self.hazards,
            "replan_count": self.replan_count,
            "waypoints_reached": self.waypoints_reached,
            "waypoints_skipped": self.waypoints_skipped,
            "scheduler_counts": dict(sorted(self.scheduler_counts.items())),
        }


# `perfbench/` reads the mock backend from here; drop this alias when the
# benchmark imports it from `rovernav.classify` (ROADMAP item 8).
MockClassifierBackend = classify.MockClassifierBackend


def _segment_distance(pts: np.ndarray, x: float, y: float) -> float:
    """Distance from (x, y) to the nearest segment of `pts`, or to its one
    point. The first point's distance starts the minimum; segment 0 at
    t = 0 computes the same value."""
    ap, ab = np.array([x, y]) - pts, np.diff(pts, axis=0)
    t = np.clip((ap[:-1] * ab).sum(axis=1) / np.maximum((ab * ab).sum(axis=1), 1e-300), 0.0, 1.0)
    return float(np.min(np.hypot(*(ap[:-1] - t[:, None] * ab).T), initial=np.hypot(*ap[0])))


@dataclass
class MissionResult:
    metrics: MissionMetrics
    trajectory: list
    server: MapServer
    # plans made, by `MissionRunner._plan` kind; in no digest
    plans: Counter = field(default_factory=Counter)


class MissionRunner:
    """One mission on a fixed 20 Hz tick.

    `run` is the schedule. Each tick runs the subsystems whose period
    (`ModeConfig` rate, in ticks) is due, in order: classification
    (0.2 Hz), the one local-map step `_update_map` (the obstacle map at
    1 Hz in safe mode, the costmap at 0.5 Hz in conservative mode), the
    path collision check (1 Hz), the progress checks, planning when there
    is no path, control (10 Hz), one physics step with its hazard check,
    waypoint arrival, and the timeout. The mode is the latest verdict's,
    or conservative when the classifier failed; no earlier verdict
    counts. The mission ends on the first of no_path, a hazard, complete
    or timeout. Both cautious modes plan on the global map's own cells
    around the rover, and open only the disc under it: a lethal cell stays
    lethal even where the rover has driven.

    The rover tracks one path, the current mode's, or none (`_plan_tick`).
    `_plan` returns a plan's kind and its path, and `_plan_tick` keeps the
    books from them. A blocked leg has three ways out: a "flood" plan to
    the reachable cell nearest the waypoint, the slack skip when that
    flood ends close to it, and the skip after `no_path_limit` failed
    plans ("walled_in", or a "direct" or "flood" path too short to count
    or that cannot move the rover; "no_data" counts none).

    The runner owns its place on the route: `leg` indexes the waypoint it
    is driving to, and `_next_leg` moves it on when that waypoint is
    reached or skipped. The route's points are only read. A leg ends on
    one rule, `_tolerance`: the rover reaches an intermediate waypoint
    within `waypoint_tolerance` (1 m), and the final one within the
    tracker's stop radius `GOAL_TOLERANCE` (0.5 m), where the rover stops
    at the end of a path that finishes on it. A used-up path that leaves
    the rover beyond that radius is dropped and the leg replanned.
    """

    def __init__(
        self,
        world: World,
        waypoints: WaypointQueue,
        classifier,
        config: ModeConfig = ModeConfig(),
        forced_mode: NavMode | None = None,
        start: RoverState | None = None,
    ):
        if len(waypoints) == 0:
            raise MissionConfigError("waypoint queue is empty")
        points = [("waypoint", p) for p in waypoints.points]
        if start is not None:
            points.append(("start", (start.x, start.y)))
        for what, (x, y) in points:
            if not (0 <= x <= world.terrain.extent_x and 0 <= y <= world.terrain.extent_y):
                raise MissionConfigError(f"{what} ({x:.1f}, {y:.1f}) outside the map extent")
        self.world = world
        self.config = config
        self.classifier = classifier
        self.forced_mode = forced_mode
        self.server = MapServer((world.terrain.extent_x, world.terrain.extent_y))
        # made by the first conservative map update, so that a mission that
        # never maps conservatively allocates none of it
        self.cost_record: CostCellRecord | None = None
        self.route = waypoints.points
        self.leg = 0
        if start is None:
            start = RoverState(*self.route[0], 0.0)
        self.state = start
        self.switcher = ModeSwitcher()

        self.periods = {
            "classifier": config.ticks(config.classifier_rate),
            "obstacle_map": config.ticks(config.obstacle_rate),
            "costmap": config.ticks(config.costmap_rate),
            "collision": config.ticks(config.collision_rate),
            "control": config.ticks(config.control_rate),
        }
        route_len = sum(map(math.dist, [(start.x, start.y), *self.route], self.route))
        self.budget = config.timeout_factor * max(route_len, config.map_window) / config.speed_conservative

        self.mode = forced_mode or NavMode.CONSERVATIVE
        self.tracker: PathTracker | None = None
        self.last_cmd = VelocityCommand(0.0, 0.0)
        self._no_path_streak = 0
        self._flood_path = False  # the tracked path came from the flood fallback
        self.next_plan_tick = 0
        self.plans: Counter = Counter()  # plans made, by kind
        self.metrics = MissionMetrics()
        self.trajectory: list[str] = []

    # -- helpers --

    @property
    def _final_leg(self) -> bool:
        return self.leg == len(self.route) - 1

    @property
    def _tolerance(self) -> float:
        """The leg's arrival radius: `waypoint_tolerance` on an
        intermediate leg, and on the final one the tracker's stop radius
        `GOAL_TOLERANCE`, where the rover stops at its path's end."""
        return GOAL_TOLERANCE if self._final_leg else self.config.waypoint_tolerance

    def _classifier_center(self) -> tuple[float, float]:
        wp = self.route[self.leg]
        dx = wp[0] - self.state.x
        dy = wp[1] - self.state.y
        d = math.hypot(dx, dy)
        look = self.config.classifier_lookahead
        if d < 1e-6:
            ux, uy = math.cos(self.state.heading), math.sin(self.state.heading)
        else:
            ux, uy = dx / d, dy / d
        cx = self.state.x + look * ux
        cy = self.state.y + look * uy
        cx = min(max(cx, 1.0), self.world.terrain.extent_x - 1.0)
        cy = min(max(cy, 1.0), self.world.terrain.extent_y - 1.0)
        return (cx, cy)

    def _update_map(self, mode: NavMode) -> None:
        """The mode's local map of the window around the rover, merged into
        the global map; a no-op unless `mode` is the active mode. The window
        snaps to the global 0.5 m lattice.

        Safe mode extracts obstacles on the global map's own cells from a
        patch sensed every half cell (0.25 m) over the window plus half a
        meter each side, so each cell keeps the highest of 2 x 2 samples.
        Conservative mode takes the window of the mission's
        `CostCellRecord`, whose 0.1 m cells are sensed on their own
        centres and built once each (with `sensor_sigma` > 0 a cell's cost
        comes from one noise draw per mission, not one per tick), and costs
        the highest code of each global cell's block: its highest cost.
        """
        if self.mode is not mode:
            return
        base = self.server.global_map.cell_size
        size = self.config.map_window
        row, col = map(int, world_to_cell(self.state.x, self.state.y, (size / 2.0, size / 2.0), base))
        n = round(size / base)
        origin = (col * base, row * base)
        if mode is NavMode.SAFE:
            span, pitch = size + 1.0, base / 2.0
            side = round(span / pitch)
            corner = (self.state.x - span / 2.0, self.state.y - span / 2.0)
            patch = self.world.sense_points(corner, (side, side), pitch)
            local = extract_obstacles(build_elevation_grid(patch, (n, n), origin, base))
        else:
            if self.cost_record is None:
                self.cost_record = CostCellRecord(self.world, self.server.global_map.values.shape,
                                                  self.config.cost_resolution, round(base / self.config.cost_resolution))
            local = build_navigation_costmap(self.cost_record.window(row, col, n), origin, base)
        self.server.update_from_local(local, mode)

    def _clamp_goal(self, grid: CostGrid, goal) -> tuple[float, float]:
        eps = grid.cell_size * 0.5
        x0 = grid.origin[0] + eps
        x1 = grid.origin[0] + grid.cols * grid.cell_size - eps
        y0 = grid.origin[1] + eps
        y1 = grid.origin[1] + grid.rows * grid.cell_size - eps
        return (min(max(goal[0], x0), x1), min(max(goal[1], y0), y1))

    def _sensed_goal(self, grid: CostGrid, goal) -> tuple[float, float]:
        """The first point on a known cell (lethal counts) walking from the
        goal back along the chord to the rover, one cell at a time."""
        x, y = self.state.x, self.state.y
        d = math.hypot(goal[0] - x, goal[1] - y)
        t = np.arange(math.floor(d / grid.cell_size) + 1) * (grid.cell_size / max(d, grid.cell_size))
        xs, ys = goal[0] - t * (goal[0] - x), goal[1] - t * (goal[1] - y)
        rows, cols = world_to_cell(xs, ys, grid.origin, grid.cell_size)
        known = np.flatnonzero(grid.values[rows.clip(0, grid.rows - 1), cols.clip(0, grid.cols - 1)] >= 0)
        return (float(xs[known[0]]), float(ys[known[0]])) if known.size else goal

    def _clear_start(self, grid: CostGrid) -> None:
        """Zero out the cells under the rover so planning can always leave
        the (physically occupied, hazard-checked) current pose."""
        radius = self.config.start_clear_radius
        x, y = self.state.x, self.state.y
        (r0, r1), (c0, c1) = world_to_cell(
            [x - radius, x + radius], [y - radius, y + radius], grid.origin, grid.cell_size)
        r0, c0 = max(r0, 0), max(c0, 0)
        xs, ys = cell_center(np.arange(r0, min(r1 + 1, grid.rows)), np.arange(c0, min(c1 + 1, grid.cols)),
                             grid.origin, grid.cell_size)
        grid.values[r0:r0 + ys.size, c0:c0 + xs.size][np.hypot(xs - x, ys[:, None] - y) <= radius] = 0

    def _plan(self, mode: NavMode, waypoint) -> tuple[str, Path | None]:
        """Plan a path toward the waypoint with the mode's machinery, and
        return the plan's kind with the path, or with None.

        Efficient mode fits a B-spline (kind "spline"). The cautious modes
        search the same window: the global map's own cells over the
        `map_window` around the rover, every cell as mapped but the disc
        under the rover (`_clear_start`). Safe mode searches it as an
        obstacle grid, conservative mode as a costmap. The goal
        is the waypoint clamped into the window, and in conservative mode
        pulled back onto sensed ground (`_sensed_goal`). The kind is
        "direct" when the search reaches the goal, "flood" when it finds no
        route and one flood returns the path to the reachable cell nearest
        the goal instead, "no_data" when the window holds no known cell
        yet, and "walled_in" when the start is. A path whose end lies
        within 1.5 cells of the waypoint is finished on it. A direct or
        flood path that ends short of its waypoint comes back as None when
        it ends beyond `waypoint_tolerance` of the waypoint and stays in
        the start disc, or when it cannot move the rover: its end lies
        within `GOAL_TOLERANCE` of the rover, where the tracker stops at
        once.
        """
        if mode is NavMode.EFFICIENT:
            return "spline", bspline_path((self.state.x, self.state.y), waypoint, self.state.heading)
        window = self.server.get_local_window((self.state.x, self.state.y), self.config.map_window)
        if int(np.count_nonzero(window.values >= 0)) == 0:
            return "no_data", None
        self._clear_start(window)
        start = (self.state.x, self.state.y)
        goal = self._clamp_goal(window, waypoint)
        if mode is NavMode.SAFE:
            grid, search = cost_to_obstacle(window), astar_obstacle
        else:
            grid, goal, search = window, self._sensed_goal(window, goal), astar_cost
        kind = "direct"
        try:
            path = search(grid, start, goal)
        except InvalidStartError:
            return "walled_in", None
        except NoPathError:
            # the search checked the start first, so the flood from it runs
            path, kind = best_progress_path(grid, start, goal), "flood"
        pts = path.points
        end_err = math.hypot(pts[-1][0] - waypoint[0], pts[-1][1] - waypoint[1])
        if 1e-9 < end_err <= window.cell_size * 1.5:
            # the search ends on the goal cell's center; finish on the true
            # waypoint so arrival tolerances measure against the real target
            pts = np.vstack([pts, np.asarray(waypoint, dtype=float)])
            end_err = 0.0
        if (end_err > self.config.waypoint_tolerance
                and Path(pts).length() < 2.0 * self.config.start_clear_radius + 0.2):
            # no meaningful progress is possible on this leg (anything this
            # short stays inside the start-clearing bubble)
            return kind, None
        if end_err > 0.0 and math.hypot(pts[-1][0] - start[0], pts[-1][1] - start[1]) <= GOAL_TOLERANCE:
            # the tracker would stop where the rover stands, short of the
            # waypoint: the path cannot move the rover
            return kind, None
        return kind, Path(pts)

    # -- the schedule --

    def run(self) -> MissionResult:
        for n in itertools.count():
            due = {name for name, period in self.periods.items() if n % period == 0}
            if "classifier" in due:
                self._classify()
            if "obstacle_map" in due:
                self._update_map(NavMode.SAFE)
            if "costmap" in due:
                self._update_map(NavMode.CONSERVATIVE)
            if "collision" in due:
                self._check_path()
            self._check_progress()
            end = self._plan_tick(n)
            if end is None:
                if "control" in due:
                    self._control()
                end = self._move() or self._arrive()
            if end is None and n * TICK_DT > self.budget:
                end = "timeout"
            if end is not None:
                break

        self.metrics.success = end == "complete"
        self.metrics.end_reason = end
        # ticks 0..n ran each subsystem on every multiple of its period
        self.metrics.scheduler_counts = {name: n // period + 1 for name, period in self.periods.items()}
        return MissionResult(self.metrics, self.trajectory, self.server, self.plans)

    # -- one step per subsystem --

    def _classify(self) -> None:
        """Classify the terrain ahead and take the verdict's mode, or
        conservative mode when the classifier fails. A mode change drops
        the path, so the new mode plans its own."""
        if self.forced_mode is not None or self.classifier is None:
            return
        try:
            assessment = self.classifier.assess(self.world, self._classifier_center())
        except (VlmError, EmptyPatchError, InsufficientDataError):
            assessment = None
        mode = self.switcher.update(assessment)
        if mode is not self.mode:
            self.mode = mode
            self.tracker = None

    def _check_path(self) -> None:
        """Drop a path with a lethal cell under it."""
        if self.tracker is not None and self.server.collision_check_tick(self.tracker.path) is not None:
            self.metrics.replan_count += 1
            self.tracker = None

    def _check_progress(self) -> None:
        """Drop a path the rover has left or used up.

        A large cross-track excursion (turn-around sweeps after a
        direction-reversing replan) invalidates the path: replan from where
        the rover actually is, keeping deviations bounded. A path is used
        up when the tracker has stopped at its end; if the rover stands
        beyond the leg's `_tolerance` of the waypoint there (the goal was
        clamped to the local window, the flood got only so close, or the
        path ended a little short), it is dropped and the leg replanned
        from the new pose. An intermediate waypoint the flood could not
        reach but that is already within `blocked_waypoint_slack` counts
        as served.

        The path is left when its nearest segment, or its one point, lies
        beyond `off_path_limit`. That is never farther than the tracker's
        cursor vertex, so while the cursor vertex lies within the limit the
        whole-path scan is skipped. That test takes a relative 1e-12 off
        the limit, far more than `math.hypot` and `np.hypot` can differ by.
        """
        if self.tracker is None:
            return
        cfg = self.config
        x, y = self.state.x, self.state.y
        pts = self.tracker.path.points
        cx, cy = pts[self.tracker.cursor].tolist()
        if (math.hypot(cx - x, cy - y) >= cfg.off_path_limit * (1.0 - 1e-12)
                and _segment_distance(pts, x, y) > cfg.off_path_limit):
            self.tracker = None
            return
        if not self.tracker.reached(self.state):
            return
        wp = self.route[self.leg]
        d_wp = math.hypot(wp[0] - self.state.x, wp[1] - self.state.y)
        if d_wp > self._tolerance:
            if self._flood_path and not self._final_leg and d_wp <= cfg.blocked_waypoint_slack:
                self._next_leg(reached=False)
            self.tracker = None

    def _plan_tick(self, n: int) -> str | None:
        """Plan when there is no path and the retry tick has come.

        The rover tracks one path or none. A mode switch drops the path, so
        the new mode plans its own; so do a lethal cell under it, leaving it,
        using it up and arriving. A failed plan is retried one collision
        period later; a leg that stays unplannable is skipped, and on the
        final leg the mission ends with "no_path".

        This is the one place that keeps the plans' books: the tally of
        kinds, the no-path streak and the flood flag. A safe or
        conservative path resets the streak and records whether it came
        from the flood; a spline leaves both as they were. A failed plan
        adds to the streak unless the window held no data yet."""
        if self.tracker is not None or n < self.next_plan_tick:
            return None
        kind, path = self._plan(self.mode, self.route[self.leg])
        self.plans[kind] += 1
        if path is not None:
            if kind != "spline":
                self._no_path_streak = 0
                self._flood_path = kind == "flood"
            self.tracker = PathTracker(path)
            return None
        if kind != "no_data":
            self._no_path_streak += 1
        self.next_plan_tick = n + self.periods["collision"]
        if self._no_path_streak < self.config.no_path_limit:
            return None
        if self._final_leg:
            return "no_path"
        # this leg is walled off; route via the next one
        self._next_leg(reached=False)
        self.next_plan_tick = n
        return None

    def _control(self) -> None:
        if self.tracker is None:
            self.last_cmd = VelocityCommand(0.0, 0.0)
        else:
            self.last_cmd = self.tracker.step(self.state, self.config.speed(self.mode),
                                              taper=self._final_leg)

    def _move(self) -> str | None:
        """One physics step under the last command, logged per mode, then
        the hazard check. Returns the hazard kind, or None."""
        self.state = step(self.state, self.last_cmd, TICK_DT)
        self.metrics.time_by_mode[self.mode.value] += TICK_DT
        self.metrics.distance_by_mode[self.mode.value] += self.last_cmd.linear * TICK_DT
        self.trajectory.append(format_trajectory_row(self.state, self.mode.value))
        hazard = self.world.check_hazard(self.state)
        if hazard is None:
            return None
        self.metrics.hazards.append({
            "kind": hazard.kind.value,
            "x": round(hazard.position[0], 3),
            "y": round(hazard.position[1], 3),
            "time": round(hazard.time, 3),
        })
        return hazard.kind.value

    def _arrive(self) -> str | None:
        """Advance past a waypoint within the leg's `_tolerance`. Returns
        "complete" after the last one, else None."""
        wp = self.route[self.leg]
        if math.hypot(wp[0] - self.state.x, wp[1] - self.state.y) <= self._tolerance:
            self._next_leg(reached=True)
            if self.leg == len(self.route):
                return "complete"
        return None

    def _next_leg(self, reached: bool) -> None:
        """Count this waypoint reached or skipped, and drive to the next one
        with no path and a new no-path streak: the streak counts one leg."""
        self.leg += 1
        self.metrics.waypoints_reached += reached
        self.metrics.waypoints_skipped += not reached
        self._no_path_streak = 0
        self.tracker = None


def run_mission(
    world: World,
    waypoints: WaypointQueue,
    classifier,
    config: ModeConfig = ModeConfig(),
    forced_mode: NavMode | None = None,
    start: RoverState | None = None,
) -> MissionResult:
    runner = MissionRunner(world, waypoints, classifier, config, forced_mode, start)
    return runner.run()
