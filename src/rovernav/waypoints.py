"""Pre-mission global waypoint generation from a coarse elevation model.

The coarse model stands in for an orbital elevation source: the true
heightfield mean-pooled to a 2 m grid, so fine obstacles mostly vanish and
only large-scale relief steers the route. The coarse costmap goes through
the local costmap's own pipeline (`mapping.cost_cells`,
`mapping.lethal_halo`, then `mapping.build_navigation_costmap`), with
coarse-scale limits and one inflation radius for every lethal cell. A
cost-minimizing search over it yields a route, which is thinned to
waypoints one local-map window apart.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path as FsPath

import numpy as np

from .errors import InvalidStartError, NoPathError, ValidationError, malformed_input, read_input_text
from .mapping import CostWeights, CostGrid, build_navigation_costmap, cost_cells, lethal_halo
from .map_server import WaypointQueue
from .planning import Path, astar_cost
from .terrain import HeightField

COARSE_RESOLUTION = 2.0
# Lethal inflation of the coarse route costmap, meters.
ROUTE_INFLATION = 3.0
DEFAULT_WAYPOINT_SPACING = 20.0

# At coarse scale the step feature only sees cell-to-cell jumps, so the
# detrending radius widens with the cell and the limits relax. The slope
# limit tightens instead: pooling to 2 m understates local steepness, so
# the route keeps a margin from what the rover will actually measure.
COARSE_WEIGHTS = CostWeights(fit_window_m=8.0, step_radius_m=2.0, rough_max=0.6, step_max=1.2,
                             slope_max_deg=27.0)


def global_cost_from_dem(dem: HeightField, weights: CostWeights = COARSE_WEIGHTS,
                         inflation: float = ROUTE_INFLATION) -> CostGrid:
    """Mean-pool the elevation model to COARSE_RESOLUTION cells, cost them,
    and inflate every lethal cell by `inflation` meters."""
    if dem.rows == 0 or dem.cols == 0:
        raise ValidationError("elevation model is empty")
    block = max(round(COARSE_RESOLUTION / dem.cell_size), 1)
    rows = dem.rows // block
    cols = dem.cols // block
    if rows == 0 or cols == 0:
        raise ValidationError("coarse resolution exceeds the model extent")
    trimmed = dem.elevation[: rows * block, : cols * block]
    coarse = HeightField(trimmed.reshape(rows, block, cols, block).mean(axis=(1, 3)), dem.origin,
                         block * dem.cell_size)
    codes = cost_cells(coarse, weights)
    lethal_halo(codes, coarse.cell_size, (inflation, inflation))
    return build_navigation_costmap(codes, coarse.origin, coarse.cell_size)


def sparsify_waypoints(path: Path, spacing: float = DEFAULT_WAYPOINT_SPACING) -> WaypointQueue:
    """Thin a route to waypoints: keep the first point, then each point at
    cumulative arc length >= spacing since the last kept, plus the final
    point always."""
    if spacing <= 0:
        raise ValidationError("spacing must be positive")
    pts = path.points
    kept = [0]
    since_last = 0.0
    for i in range(1, len(pts)):
        since_last += float(np.hypot(*(pts[i] - pts[i - 1])))
        if since_last >= spacing:
            kept.append(i)
            since_last = 0.0
    if kept[-1] != len(pts) - 1:
        kept.append(len(pts) - 1)
    return WaypointQueue([(float(pts[i][0]), float(pts[i][1])) for i in kept])


def plan_waypoints(dem: HeightField, start, goal,
                   spacing: float = DEFAULT_WAYPOINT_SPACING) -> WaypointQueue:
    """Full pre-mission pipeline: coarse costmap, route search, thinning.

    When no route satisfies the slope margin, the constraint ladder relaxes
    (wider slope limit, then no inflation) before giving up; a route the
    local planners must fight for beats no route at all.
    """
    last_error = None
    for slope_limit, inflation in ((COARSE_WEIGHTS.slope_max_deg, ROUTE_INFLATION),
                                   (28.0, ROUTE_INFLATION), (29.5, 0.0)):
        cost = global_cost_from_dem(dem, replace(COARSE_WEIGHTS, slope_max_deg=slope_limit), inflation)
        try:
            route = astar_cost(cost, start, goal)
            return sparsify_waypoints(route, spacing)
        except (NoPathError, InvalidStartError) as exc:
            last_error = exc
    raise last_error


def save_waypoints(queue: WaypointQueue, path) -> None:
    lines = [f"{x:.6f},{y:.6f}" for x, y in queue.points]
    FsPath(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_waypoints(path) -> WaypointQueue:
    """Read an ordered x,y waypoint file (# starts a comment line)."""
    points = []
    for lineno, line in enumerate(read_input_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        with malformed_input(f"{path}:{lineno}: expected x,y, got {line!r}"):
            x_str, y_str = line.split(",")
            points.append((float(x_str), float(y_str)))
    if not points:
        raise ValidationError(f"{path}: waypoint file holds no points")
    return WaypointQueue(points)
