"""Path generation: clamped B-spline smoothing and one grid search core.

The fast mode draws a cubic B-spline from pose to waypoint with a
heading-tangent control point. The mid and cautious modes plan on a
`CostGrid` through one graph rule, `_graph`: lethal and unknown cells are
blocked, and an edge weighs its step length scaled by the cost of its
endpoints. The mid-tier mode plans on the safe view of its window
(`mapping.cost_to_obstacle`), where every open cell costs 0; the cautious
mode plans on the costmap itself. One 8-connected search core, `_search`,
runs in two modes:

* goal mode: A* toward a goal cell with the octile heuristic
  (`astar_obstacle`, `astar_cost`).
* flood mode: Dijkstra from the start with no goal (h = 0).
  `best_progress_path` floods the same graph and targets the settled cell
  that gets closest to a goal the direct planners could not reach.

All searches are deterministic: ties break on lower f, then lower h, then
row-major cell order. World points become cells through
`grids.world_to_cell`, and cells become path points through
`grids.cell_center`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStartError, NoPathError, ValidationError
from .grids import cell_center, neighbor_slices, world_to_cell
from .mapping import COST_MAX, CostGrid

SQRT2 = math.sqrt(2.0)

PATH_SAMPLE_SPACING = 0.5
COST_EDGE_ALPHA = 4.0
COST_REPLAN_TOLERANCE = 80.0
SPLINE_TANGENT_LEN = 2.0

# Neighbor offsets in row-major order with their step lengths (cells).
_NEIGHBORS = (
    (-1, -1, SQRT2), (-1, 0, 1.0), (-1, 1, SQRT2),
    (0, -1, 1.0), (0, 1, 1.0),
    (1, -1, SQRT2), (1, 0, 1.0), (1, 1, SQRT2),
)


@dataclass
class Path:
    points: np.ndarray  # (N, 2)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if len(self.points) == 0:
            raise ValidationError("a path needs at least one point")
        if not np.isfinite(self.points).all():
            raise ValidationError("path coordinates must be finite")

    def __len__(self) -> int:
        return len(self.points)

    def length(self) -> float:
        if len(self.points) < 2:
            return 0.0
        return float(np.sum(np.hypot(*np.diff(self.points, axis=0).T)))

    def arc_lengths(self) -> np.ndarray:
        """Cumulative arc length at each point (starts at 0)."""
        if len(self.points) < 2:
            return np.zeros(1)
        seg = np.hypot(*np.diff(self.points, axis=0).T)
        return np.concatenate([[0.0], np.cumsum(seg)])


def bspline_path(start, goal, heading: float) -> Path:
    """Smooth path from start to goal, tangent to the current heading.

    Cubic clamped B-spline (here: a Bezier segment) through four control
    points: start, a point SPLINE_TANGENT_LEN ahead along the heading, the
    start-goal midpoint, and the goal. Resampled at roughly
    PATH_SAMPLE_SPACING arc steps; first and last points equal start and
    goal exactly.
    """
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if np.allclose(start, goal):
        return Path(start[None, :])
    ahead = start + SPLINE_TANGENT_LEN * np.array([math.cos(heading), math.sin(heading)])
    ctrl = np.stack([start, ahead, 0.5 * (start + goal), goal])

    u = np.linspace(0.0, 1.0, 512)
    b0 = (1 - u) ** 3
    b1 = 3 * u * (1 - u) ** 2
    b2 = 3 * u**2 * (1 - u)
    b3 = u**3
    dense = (b0[:, None] * ctrl[0] + b1[:, None] * ctrl[1]
             + b2[:, None] * ctrl[2] + b3[:, None] * ctrl[3])
    seg = np.hypot(*np.diff(dense, axis=0).T)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    total = arc[-1]
    n_samples = max(int(total / PATH_SAMPLE_SPACING), 1)
    targets = np.linspace(0.0, total, n_samples + 1)
    xs = np.interp(targets, arc, dense[:, 0])
    ys = np.interp(targets, arc, dense[:, 1])
    pts = np.column_stack([xs, ys])
    pts[0] = start
    pts[-1] = goal
    return Path(pts)


def octile(dr: int, dc: int) -> float:
    """Shortest 8-connected distance between cells, in cell units."""
    dr, dc = abs(dr), abs(dc)
    return max(dr, dc) + (SQRT2 - 1.0) * min(dr, dc)


def astar_obstacle(grid: CostGrid, start, goal) -> Path:
    """Shortest path over the safe view of a window (8-connected).

    `grid` is `cost_to_obstacle` of the window: lethal cells are blocked,
    and everything else, unknown ground beyond sensed range included, is
    free at uniform cost. Octile heuristic; diagonal steps cost sqrt(2).
    """
    return astar_cost(grid, start, goal)


def astar_cost(grid: CostGrid, start, goal) -> Path:
    """Minimum-weight path over the costmap (8-connected).

    Edge weight = step length * (1 + COST_EDGE_ALPHA * mean endpoint cost
    / 100). Lethal and unknown cells are blocked: this planner must not
    commit the rover to unsensed ground. A start that equals the goal
    yields the one-point path at the start, whatever its cell holds.
    """
    if np.allclose(start, goal):
        return Path(start)
    blocked, mult = _graph(grid)
    rows, cols = blocked.shape
    sr, sc, gr, gc = _endpoint_cells(grid, start, goal)
    if not (0 <= sr < rows and 0 <= sc < cols):
        raise InvalidStartError("start lies outside the grid")
    if not (0 <= gr < rows and 0 <= gc < cols):
        raise NoPathError("goal lies outside the grid")
    if blocked[sr, sc]:
        raise InvalidStartError("start cell is blocked")
    if blocked[gr, gc]:
        raise NoPathError("goal cell is blocked")
    _, came, _, reached = _search(blocked, mult, sr, sc, (gr, gc))
    if not reached:
        raise NoPathError("no admissible path to the goal")
    return _reconstruct(grid, came, sr * cols + sc, gr * cols + gc)


def _graph(grid: CostGrid):
    """(blocked mask, per-cell edge multiplier) of a grid.

    Lethal and unknown cells are blocked. The multiplier is None (uniform
    weights) when no open cell has cost: 1 + alpha * 0 / 100 is exactly 1,
    so this only skips the per-edge arithmetic.
    """
    values = grid.values
    blocked = (values >= COST_MAX) | (values < 0)
    if not ((values > 0) & ~blocked).any():
        return blocked, None
    return blocked, 1.0 + COST_EDGE_ALPHA * values.astype(float) / 100.0


def _endpoint_cells(grid, start, goal) -> tuple[int, int, int, int]:
    (sr, gr), (sc, gc) = np.array(world_to_cell(
        [start[0], goal[0]], [start[1], goal[1]], grid.origin, grid.cell_size)).tolist()
    return sr, sc, gr, gc


def _search(blocked, mult, sr, sc, goal=None):
    """The one search core: A* toward `goal`, or a Dijkstra flood without one.

    mult is the per-cell edge multiplier (None = uniform); an edge weighs
    its step length times the mean multiplier of its endpoints. The
    heuristic is octile distance to the goal (0 in a flood), admissible and
    consistent because every multiplier is >= 1. Heap entries are
    (f, h, row-major index), which fixes the tie order. Returns (dist,
    came_from, closed cells in pop order, goal reached); the goal itself is
    not in the closed list.
    """
    rows, cols = blocked.shape
    # nested lists index several times faster than numpy scalars
    blocked = blocked.tolist()
    if mult is not None:
        mult = mult.tolist()
    start_idx = sr * cols + sc
    if goal is None:
        goal_idx = -1
        h0 = 0.0
    else:
        gr, gc = goal
        goal_idx = gr * cols + gc
        h0 = octile(sr - gr, sc - gc)
    dist = {start_idx: 0.0}
    came: dict[int, int] = {}
    heap = [(h0, h0, start_idx)]
    closed: dict[int, None] = {}  # insertion order = pop order
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        f, h, idx = pop(heap)
        if idx in closed:
            continue
        if idx == goal_idx:
            return dist, came, list(closed), True
        closed[idx] = None
        g = dist[idx]
        r, c = divmod(idx, cols)
        if mult is not None:
            m_here = mult[r][c]
        for dr, dc, step_len in _NEIGHBORS:
            nr, nc = r + dr, c + dc
            if nr < 0 or nr >= rows or nc < 0 or nc >= cols or blocked[nr][nc]:
                continue
            if mult is None:
                w = step_len
            else:
                w = step_len * 0.5 * (m_here + mult[nr][nc])
            nidx = nr * cols + nc
            ng = g + w
            if nidx not in dist or ng < dist[nidx] - 1e-12:
                dist[nidx] = ng
                came[nidx] = idx
                nh = 0.0 if goal is None else octile(nr - gr, nc - gc)
                push(heap, (ng + nh, nh, nidx))
    return dist, came, list(closed), False


def _reconstruct(grid, came, start_idx, end_idx) -> Path:
    idx = end_idx
    cells = [idx]
    while idx != start_idx:
        idx = came[idx]
        cells.append(idx)
    cells.reverse()
    rr, cc = np.divmod(np.array(cells), grid.cols)
    xs, ys = cell_center(rr, cc, grid.origin, grid.cell_size)
    return Path(np.column_stack([xs, ys]))


def best_progress_path(grid: CostGrid, start, goal) -> Path:
    """Path to the reachable cell that gets closest to an unreachable goal.

    Floods the grid's weighted graph from the start (the search core
    without a goal), then picks the settled cell with the smallest
    Euclidean distance to the goal (ties: lower path weight, then row-major
    order). When no settled cell improves on the start (the rover is
    pressed against a wall), the target becomes the settled frontier cell
    nearest the goal - a reachable cell bordering unknown space - so fresh
    sensing from there can open the route; the safe view has no unknown
    cells, so there it keeps the nearest settled cell. Falls back to a
    single-point path at the start cell when nothing else is reachable.
    Used when the direct planners report no path, so the rover can still
    make progress around large blocked regions.
    """
    blocked, mult = _graph(grid)
    rows, cols = blocked.shape
    sr, sc, gr, gc = _endpoint_cells(grid, start, goal)
    if not (0 <= sr < rows and 0 <= sc < cols) or blocked[sr, sc]:
        raise InvalidStartError("start cell is blocked or outside the grid")
    dist, came, closed, _ = _search(blocked, mult, sr, sc)

    # key of a settled cell: (distance to goal, path weight, row-major index)
    rr, cc = np.divmod(np.array(closed), cols)
    to_goal = list(map(math.hypot, (rr - gr).tolist(), (cc - gc).tolist()))
    weight = [dist[idx] for idx in closed]
    best = min(zip(to_goal, weight, closed))
    min_progress_cells = 3.0 / grid.cell_size
    if best[0] >= math.hypot(sr - gr, sc - gc) - min_progress_cells:
        # walled in: aim for the reachable frontier nearest the goal
        unknown = grid.values < 0
        near_unknown = np.zeros_like(unknown)
        for dst, src in neighbor_slices(unknown.shape):
            near_unknown[dst] |= unknown[src]
        frontier = near_unknown.ravel()[closed].tolist()
        best = min(itertools.compress(zip(to_goal, weight, closed), frontier), default=best)
    return _reconstruct(grid, came, sr * cols + sc, best[2])


def path_collides(path: Path, grid: CostGrid) -> bool:
    """True when any path point lands on a lethal cell (cost `COST_MAX`).

    Points outside the grid are ignored, and unknown cells never collide:
    a collision requires positive evidence.
    """
    return bool((_values_under(path, grid) >= COST_MAX).any())


def path_cost(path: Path, grid: CostGrid) -> float:
    """Mean cell cost over the path samples that land on known cells."""
    values = _values_under(path, grid)
    known = values[values >= 0]
    # integer sum, so the mean matches a sequential float accumulation exactly
    return int(known.sum()) / known.size if known.size else 0.0


def _values_under(path: Path, grid: CostGrid) -> np.ndarray:
    """Grid values under the path points that land inside the grid."""
    r, c = world_to_cell(path.points[:, 0], path.points[:, 1], grid.origin, grid.cell_size)
    inside = (r >= 0) & (r < grid.rows) & (c >= 0) & (c < grid.cols)
    return grid.values[r[inside], c[inside]]
