"""Closed-loop mission executor.

`MissionRunner` drives every subsystem at its own rate on a fixed 20 Hz
tick. The classifier looks at the terrain ahead of the rover (toward the
next waypoint); its verdict selects the navigation mode, which in turn
selects the speed cap, the mapping product, and the planner. Everything is
simulated time; a run is exactly reproducible from its seed when using the
mock or geometric classifier.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .classify import (
    ANALYSIS_RADIUS,
    VLM_KEY_ENV,
    TerrainAssessment,
    VlmConfig,
    compute_terrain_metrics,
    default_prompt,
    mock_classify,
    render_patch_image,
    threshold_classify,
    vlm_classify,
)
from .control import PathTracker
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
    DEFAULT_INFLATION_RADIUS,
    CostGrid,
    build_elevation_grid,
    build_navigation_costmap,
    cost_cells,
    cost_feature_reach,
    cost_to_obstacle,
    extract_obstacles,
    lethal_halo,
)
from .modes import MODE_FOR_CLASS, NavMode
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
    sense_resolution_safe = 0.25
    control_rate = 10.0
    obstacle_rate = 1.0
    costmap_rate = 0.5
    collision_rate = 1.0
    classifier_rate = 0.2
    tick_rate = 1.0 / TICK_DT
    classifier_lookahead = 12.0
    waypoint_tolerance = 1.0
    final_tolerance = 0.5
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


# --- classifier backends -----------------------------------------------------


# Side of the square patch a sensing classifier looks at, meters, and the
# sample pitch of each backend's patch.
CLASSIFIER_PATCH_SIZE = 20.0
GEOMETRIC_PATCH_RESOLUTION = 0.1
VLM_PATCH_RESOLUTION = 0.5


def _classifier_patch(world: World, center, resolution: float):
    """The CLASSIFIER_PATCH_SIZE square patch centred on `center`."""
    half = CLASSIFIER_PATCH_SIZE / 2.0
    n = round(CLASSIFIER_PATCH_SIZE / resolution)
    return world.sense_elevation_patch((center[0] - half, center[1] - half), (n, n), resolution)


class MockClassifierBackend:
    """Scores terrain from the generating spec; no sensing, no network."""

    def __init__(self, seed: int):
        self.seed = seed

    def assess(self, world: World, center) -> TerrainAssessment:
        spec = world.terrain.spec_at(center[0])
        return mock_classify(spec, world.terrain.ground, center, self.seed)


class GeometricClassifierBackend:
    """Senses an elevation patch ahead and applies the geometric baseline."""

    def assess(self, world: World, center) -> TerrainAssessment:
        patch = _classifier_patch(world, center, GEOMETRIC_PATCH_RESOLUTION)
        return threshold_classify(compute_terrain_metrics(patch, ANALYSIS_RADIUS))


class VlmClassifierBackend:
    """Renders the terrain ahead and queries the configured endpoint.

    The API key, when one is set, comes from the environment variable
    `VLM_KEY_ENV`, read on every request.
    """

    def __init__(self, config: VlmConfig):
        self.config = config
        self.prompt = default_prompt()

    def assess(self, world: World, center) -> TerrainAssessment:
        patch = _classifier_patch(world, center, VLM_PATCH_RESOLUTION)
        image = render_patch_image(patch)
        api_key = os.environ.get(VLM_KEY_ENV)
        return vlm_classify(image, self.prompt, self.config, api_key)


# Consecutive classifier periods a calmer class must persist before the
# mode moves down to it.
DOWNSWITCH_PERIODS = 2


class ModeSwitcher:
    """Mode selection with fail-safe fallback and down-switch hysteresis.

    Moving to a more severe mode happens immediately; moving down requires
    the calmer class in `DOWNSWITCH_PERIODS` verdicts in a row. A missed
    verdict (classifier failure) breaks the run, so a down-switch streak
    starts again after it. On classifier failure the mode is kept for one
    period; persistent failure falls back to the most cautious mode.
    """

    def __init__(self):
        self.mode: NavMode | None = None
        self._pending: NavMode | None = None
        self._pending_count = 0
        self._missed = 0

    def update(self, assessment: TerrainAssessment | None) -> NavMode:
        if assessment is None:
            self._missed += 1
            self._pending = None
            self._pending_count = 0
            if self.mode is None or self._missed > 1:
                self.mode = NavMode.CONSERVATIVE
            return self.mode
        self._missed = 0
        target = MODE_FOR_CLASS[assessment.terrain_class]
        if self.mode is None or target.priority > self.mode.priority:
            self.mode = target
            self._pending = None
            self._pending_count = 0
        elif target.priority < self.mode.priority:
            if self._pending is target:
                self._pending_count += 1
            else:
                self._pending = target
                self._pending_count = 1
            if self._pending_count >= DOWNSWITCH_PERIODS:
                self.mode = target
                self._pending = None
                self._pending_count = 0
        else:
            self._pending = None
            self._pending_count = 0
        return self.mode


# --- the conservative costmap ---------------------------------------------------

# Most cells one costmap build senses. A mission's first window, with the
# inflation radius around it, is built in pieces under this bound, so that
# its transient arrays stay within those of one 25.6 m sensing window.
BUILD_PATCH_CELLS = 256 * 256


class CostCellRecord:
    """The conservative costmap's cells of one mission, each built once.

    Cells lie on the world-fixed lattice of pitch `cell`: cell (i, j) has
    its centre at ((j + 0.5) * cell, (i + 0.5) * cell). They are built in
    blocks of `block` x `block` cells, one global map cell each (`shape` is
    the global map's), and stored as `mapping.cost_cells` codes; a block
    that was never built reads unknown. Each build folds the lethal halo
    into the known codes around it (`mapping.lethal_halo`): its own lethal
    cells mark the built cells within reach, and the lethal cells built
    before mark its new cells. So a known code is `CELL_HALO` exactly when
    a lethal code built so far reaches it. `window` builds every block of
    the window, and of the inflation radius around it, that is not built
    yet; no lethal cell it has not built can then reach the window, so it
    reads each block's highest code straight from the record.

    A block is built from heights sensed on the centres of its cells and of
    a `cost_feature_reach` margin around them, so its codes equal those of
    one build over any larger patch, up to float rounding in the plane
    fit. The margin cells only feed the plane-fit sums: `cost_cells` fits,
    rings and costs the block's own cells alone (`margin`), with the codes
    of the whole patch's interior byte for byte. With sensor noise, the
    heights behind a cell's cost are drawn once per mission, when its
    block is built, not once per tick.
    """

    def __init__(self, world: World, shape: tuple[int, int], cell: float, block: int):
        self.world = world
        self.cell = cell
        self.block = block
        # np.zeros leaves the pages of blocks never built untouched.
        self.codes = np.zeros((shape[0] * block, shape[1] * block), dtype=np.uint8)
        self.built = np.zeros(shape, dtype=bool)
        self.reach = cost_feature_reach(cell)
        # the largest lethal radius, in cells and in whole blocks
        self.pad = math.ceil(DEFAULT_INFLATION_RADIUS / cell)
        self.pad_blocks = math.ceil(DEFAULT_INFLATION_RADIUS / (cell * block))

    def window(self, row: int, col: int, n: int) -> np.ndarray:
        """The highest code of each of the n x n blocks from block (row,
        col), as an n x n uint8 array; blocks off the map read unknown."""
        h, k = self.pad_blocks, self.block
        r0, r1 = max(row - h, 0), min(row + n + h, self.built.shape[0])
        c0, c1 = max(col - h, 0), min(col + n + h, self.built.shape[1])
        self._build(r0, c0, ~self.built[r0:r1, c0:c1])
        src = self.codes[max(row, 0) * k:(row + n) * k, max(col, 0) * k:(col + n) * k]
        rows, cols = src.shape[0] // k, src.shape[1] // k
        top, left = max(row, 0) - row, max(col, 0) - col
        codes = np.zeros((n, n), dtype=np.uint8)
        # Each block's highest code: down its k rows, then across its k
        # columns, two reductions along rows in memory order.
        down = src.reshape(rows, k, cols * k).max(axis=1)
        codes[top:top + rows, left:left + cols] = down.reshape(rows, cols, k).max(axis=2)
        return codes

    def _build(self, row: int, col: int, todo: np.ndarray) -> None:
        """Build the blocks marked in `todo` (from block (row, col)) as
        rectangles: the runs of each block row, merged over consecutive
        rows with equal runs."""
        edges = np.diff(todo.astype(np.int8), prepend=0, append=0, axis=1)
        for runs, group in itertools.groupby(tuple(np.flatnonzero(e).tolist()) for e in edges):
            height = len(list(group))
            for a, b in zip(runs[::2], runs[1::2]):
                self._build_blocks(row, row + height, col + a, col + b)
            row += height

    def _build_blocks(self, r0: int, r1: int, c0: int, c1: int) -> None:
        """Sense and cost blocks [r0, r1) x [c0, c1) with their margin,
        halving the longer side while the sensed patch is over
        `BUILD_PATCH_CELLS`, and fold the lethal halo into them and around."""
        k, m, p = self.block, self.reach, self.pad
        shape = ((r1 - r0) * k + 2 * m, (c1 - c0) * k + 2 * m)
        if shape[0] * shape[1] > BUILD_PATCH_CELLS and max(r1 - r0, c1 - c0) > 1:
            if r1 - r0 >= c1 - c0:
                pieces = ((r0, (r0 + r1) // 2, c0, c1), ((r0 + r1) // 2, r1, c0, c1))
            else:
                pieces = ((r0, r1, c0, (c0 + c1) // 2), (r0, r1, (c0 + c1) // 2, c1))
            for piece in pieces:
                self._build_blocks(*piece)
            return
        elev = self.world.sense_points(((c0 * k - m) * self.cell, (r0 * k - m) * self.cell), shape, self.cell)
        self.codes[r0 * k:r1 * k, c0 * k:c1 * k] = cost_cells(elev, margin=m)
        # The new lethal cells reach `pad` cells beyond the blocks, and
        # every lethal cell that reaches the blocks lies within `pad` of
        # them; the others mark only cells already marked.
        lethal_halo(self.codes[max(r0 * k - p, 0):r1 * k + p, max(c0 * k - p, 0):c1 * k + p], self.cell)
        self.built[r0:r1, c0:c1] = True


# --- the executor ------------------------------------------------------------


def _segment_distance(pts: np.ndarray, x: float, y: float) -> float:
    """Distance from (x, y) to the nearest segment of `pts`; inf for one point."""
    ab, ap = np.diff(pts, axis=0), np.array([x, y]) - pts[:-1]
    t = np.clip((ap * ab).sum(axis=1) / np.maximum((ab * ab).sum(axis=1), 1e-300), 0.0, 1.0)
    return float(np.min(np.hypot(*(ap - t[:, None] * ab).T), initial=math.inf))


@dataclass
class MissionResult:
    metrics: MissionMetrics
    trajectory: list
    server: MapServer


class MissionRunner:
    """One mission on a fixed 20 Hz tick.

    `run` is the schedule. Each tick runs the subsystems whose period
    (`ModeConfig` rate, in ticks) is due, in order:
    classification (0.2 Hz), the one local-map step `_update_map` (the
    obstacle map at 1 Hz in safe mode, the costmap at 0.5 Hz in
    conservative mode), the path collision check (1 Hz),
    the progress checks, planning when there is no path,
    control (10 Hz), one physics step with its hazard check, waypoint
    arrival, and the timeout. The mission ends on the first of no_path,
    a hazard, complete or timeout. Planning opens only the disc under the
    rover: a lethal cell stays lethal even where the rover has driven.

    The rover tracks one path, the current mode's, or none (`_plan_tick`).
    A blocked leg has three ways out: one flood to the reachable cell
    nearest the waypoint (`_plan`), the slack skip when that flood ends
    close to it, and the skip after `no_path_limit` failed plans.

    The runner owns its place on the route: `leg` indexes the waypoint it
    is driving to, and moves on when that waypoint is reached or skipped.
    The route's points are only read.
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
        for x, y in waypoints.points:
            if not (0 <= x <= world.terrain.extent_x and 0 <= y <= world.terrain.extent_y):
                raise MissionConfigError(f"waypoint ({x:.1f}, {y:.1f}) outside the map extent")
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
        self.metrics = MissionMetrics()
        self.trajectory: list[str] = []

    # -- helpers --

    @property
    def _final_leg(self) -> bool:
        return self.leg == len(self.route) - 1

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
        patch sensed every 0.25 m over the window plus half a meter each
        side. Conservative mode takes the window of the mission's
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
            span, pitch = size + 1.0, self.config.sense_resolution_safe
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

    def _plan(self, mode: NavMode, waypoint) -> Path | None:
        """Plan a path toward the waypoint with the mode's machinery.

        The search runs over the `map_window` of the global map around the
        rover, at the global cell (safe) or `cost_resolution`
        (conservative), every cell as mapped but the disc under the rover
        (`_clear_start`). The goal is the waypoint clamped into the window,
        and in conservative mode pulled back onto sensed ground
        (`_sensed_goal`). When the direct search finds no route, one flood
        returns the path to the reachable cell nearest the goal instead.
        Returns None when the window holds no data yet, the start is walled
        in, or the path stays in the start disc.
        """
        if mode is NavMode.EFFICIENT:
            return bspline_path((self.state.x, self.state.y), waypoint, self.state.heading)
        res = self.server.global_map.cell_size if mode is NavMode.SAFE else self.config.cost_resolution
        window = self.server.get_local_window((self.state.x, self.state.y), self.config.map_window, res)
        if int(np.count_nonzero(window.values >= 0)) == 0:
            return None
        self._clear_start(window)
        start = (self.state.x, self.state.y)
        goal = self._clamp_goal(window, waypoint)
        if mode is NavMode.SAFE:
            grid, search = cost_to_obstacle(window), astar_obstacle
        else:
            grid, goal, search = window, self._sensed_goal(window, goal), astar_cost
        flood = False
        try:
            path = search(grid, start, goal)
        except InvalidStartError:
            self._no_path_streak += 1
            return None
        except NoPathError:
            # the search checked the start first, so the flood from it runs
            path, flood = best_progress_path(grid, start, goal), True
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
            self._no_path_streak += 1
            return None
        self._no_path_streak = 0
        self._flood_path = flood
        return Path(pts)

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
        return MissionResult(self.metrics, self.trajectory, self.server)

    # -- one step per subsystem --

    def _classify(self) -> None:
        """Classify the terrain ahead; a mode change drops the path, so the
        new mode plans its own."""
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
        the rover actually is, keeping deviations bounded. Partial-leg
        paths (goal clamped to the local window, or best reachable
        progress) end short of the waypoint: replan from the new pose once
        consumed. A waypoint the flood could not reach but that is already
        close counts as served.

        The path is left when both its nearest vertex and its nearest
        segment lie beyond `off_path_limit`. The nearest vertex is never
        farther than the tracker's cursor vertex, so while the cursor
        vertex lies within the limit the whole-path scan is skipped. That
        test takes a relative 1e-12 off the limit, far more than
        `math.hypot` and `np.hypot` can differ by.
        """
        if self.tracker is None:
            return
        cfg = self.config
        x, y = self.state.x, self.state.y
        pts = self.tracker.path.points
        cx, cy = pts[self.tracker.cursor].tolist()
        # the nearest segment is never farther than the nearest vertex
        if (math.hypot(cx - x, cy - y) >= cfg.off_path_limit * (1.0 - 1e-12)
                and float(np.min(np.hypot(pts[:, 0] - x, pts[:, 1] - y))) > cfg.off_path_limit
                and _segment_distance(pts, x, y) > cfg.off_path_limit):
            self.tracker = None
            return
        if not self.tracker.reached(self.state):
            return
        wp = self.route[self.leg]
        d_wp = math.hypot(wp[0] - self.state.x, wp[1] - self.state.y)
        if d_wp > cfg.waypoint_tolerance:
            if self._flood_path and not self._final_leg and d_wp <= cfg.blocked_waypoint_slack:
                self.leg += 1
                self.metrics.waypoints_skipped += 1
            self.tracker = None

    def _plan_tick(self, n: int) -> str | None:
        """Plan when there is no path and the retry tick has come.

        The rover tracks one path or none. A mode switch drops the path, so
        the new mode plans its own; so do a lethal cell under it, leaving it,
        using it up and arriving. A failed plan is retried one collision
        period later; a leg that stays unplannable is skipped, and on the
        final leg the mission ends with "no_path"."""
        if self.tracker is not None or n < self.next_plan_tick:
            return None
        path = self._plan(self.mode, self.route[self.leg])
        if path is not None:
            self.tracker = PathTracker(path)
            return None
        self.next_plan_tick = n + self.periods["collision"]
        if self._no_path_streak < self.config.no_path_limit:
            return None
        if self._final_leg:
            return "no_path"
        # this leg is walled off; route via the next one
        self.leg += 1
        self.metrics.waypoints_skipped += 1
        self._no_path_streak = 0
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
        """Advance past a waypoint within tolerance. Returns "complete"
        after the last one, else None."""
        cfg = self.config
        wp = self.route[self.leg]
        tol = cfg.final_tolerance if self._final_leg else cfg.waypoint_tolerance
        if math.hypot(wp[0] - self.state.x, wp[1] - self.state.y) <= tol:
            self.leg += 1
            self.metrics.waypoints_reached += 1
            self.tracker = None
            if self.leg == len(self.route):
                return "complete"
        return None


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


# --- single-mode vs multi-mode comparison -------------------------------------


@dataclass
class ComparisonReport:
    single: MissionMetrics
    multi: MissionMetrics

    @property
    def valid(self) -> bool:
        """Both runs succeeded and reached the same number of waypoints;
        only then are their times compared."""
        return (self.single.success and self.multi.success
                and self.single.waypoints_reached == self.multi.waypoints_reached)

    @property
    def speedup(self) -> float:
        return self.single.total_time / self.multi.total_time if self.multi.total_time else math.inf

    @property
    def distance_ratio(self) -> float:
        if not self.single.total_distance:
            return math.inf
        return self.multi.total_distance / self.single.total_distance

    def to_dict(self) -> dict:
        def shares(by_mode: dict) -> dict[str, float]:
            total = sum(by_mode.values())
            return {k: round(v / total if total else 0.0, 6) for k, v in sorted(by_mode.items())}

        return {
            "single": self.single.to_dict(),
            "multi": self.multi.to_dict(),
            "speedup": round(self.speedup, 6) if self.valid else None,
            "distance_ratio": round(self.distance_ratio, 6) if self.valid else None,
            "multi_time_shares": shares(self.multi.time_by_mode),
            "multi_distance_shares": shares(self.multi.distance_by_mode),
        }


def compare_single_vs_multi(
    terrain,
    waypoints: WaypointQueue,
    seed: int,
    classifier,
    config: ModeConfig = ModeConfig(),
    start: RoverState | None = None,
    sensor_sigma: float = 0.0,
) -> ComparisonReport:
    """Run the cautious-only baseline and the adaptive system, driven by
    `classifier`, on the same world and waypoints, then report times,
    distances, and mode shares.

    Mission failures propagate into the report (success flags / end
    reasons), not as exceptions.
    """
    single_world = World(terrain, sensor_sigma=sensor_sigma, seed=seed)
    single = run_mission(single_world, waypoints, None, config,
                         forced_mode=NavMode.CONSERVATIVE, start=start)
    multi_world = World(terrain, sensor_sigma=sensor_sigma, seed=seed)
    multi = run_mission(multi_world, waypoints, classifier, config, forced_mode=None, start=start)
    return ComparisonReport(single.metrics, multi.metrics)
