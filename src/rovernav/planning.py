"""Path generation: clamped B-spline smoothing and one grid search core.

The fast mode draws a cubic B-spline from pose to waypoint with a
heading-tangent control point. The mid and cautious modes plan on a
`CostGrid` through one graph rule, `_graph`: lethal and unknown cells are
blocked, and an edge weighs its step length scaled by the cost of its
endpoints. The mid-tier mode plans on the safe view of its window
(`mapping.cost_to_obstacle`), where every open cell costs 0; the cautious
mode plans on the costmap itself. One 8-connected search core, `_search`,
runs over the grid padded by one cell and flattened to Python lists:
blocked and border cells hold a distance of -inf, so the relax test alone
keeps the search on open cells. It runs in two modes:

* goal mode: A* toward a goal cell with the octile heuristic
  (`astar_obstacle`, `astar_cost`).
* flood mode: Dijkstra from the start with no goal (h = 0).
  `best_progress_path` targets the reachable cell nearest a goal the
  direct planners could not reach. It finds the candidates from the
  start's connected component, then floods only until it settles the
  first of them.

All searches are deterministic: ties break on lower f, then lower h, then
row-major cell order. World points become cells through
`grids.world_to_cell`, and cells become path points through
`grids.cell_center`.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import InvalidStartError, NoPathError, ValidationError
from .grids import cell_center, world_to_cell
from .mapping import COST_MAX, CostGrid

SQRT2 = math.sqrt(2.0)

PATH_SAMPLE_SPACING = 0.5
COST_EDGE_ALPHA = 4.0
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
    _arc: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if len(self.points) == 0:
            raise ValidationError("a path needs at least one point")
        if not np.isfinite(self.points).all():
            raise ValidationError("path coordinates must be finite")

    def __len__(self) -> int:
        return len(self.points)

    def length(self) -> float:
        return float(self.arc_lengths()[-1])

    def arc_lengths(self) -> np.ndarray:
        """Cumulative arc length at each point (starts at 0). Computed on
        the first call and kept, read-only, for the life of the path."""
        if self._arc is None:
            if len(self.points) < 2:
                arc = np.zeros(1)
            else:
                seg = np.hypot(*np.diff(self.points, axis=0).T)
                arc = np.concatenate([[0.0], np.cumsum(seg)])
            arc.flags.writeable = False
            self._arc = arc
        return self._arc


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
    """Shortest 8-connected distance between cells, in cell units (elementwise)."""
    dr, dc = np.abs(dr), np.abs(dc)
    return np.maximum(dr, dc) + (SQRT2 - 1.0) * np.minimum(dr, dc)


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
    blocked, mult, start_cell, (gr, gc) = _graph(grid, start, goal)
    if not (0 <= gr < grid.rows and 0 <= gc < grid.cols) or blocked[gr, gc]:
        raise NoPathError("goal cell is blocked or outside the grid")
    cells = _search(blocked, mult, start_cell, goal=(gr, gc))
    if cells is None:
        raise NoPathError("no admissible path to the goal")
    return Path(np.column_stack(cell_center(*cells, grid.origin, grid.cell_size)))


def _graph(grid: CostGrid, start, goal):
    """(blocked mask, per-cell edge multiplier, start cell, goal cell) of a
    search from world point `start` toward `goal` on a grid.

    Lethal and unknown cells are blocked. The multiplier is None (uniform
    weights) when no open cell has cost: 1 + alpha * 0 / 100 is exactly 1,
    so this only skips the per-edge arithmetic. Raises InvalidStartError
    for a start off the grid or on a blocked cell; the goal cell is
    returned unchecked.
    """
    values = grid.values
    blocked = (values >= COST_MAX) | (values < 0)
    (sr, gr), (sc, gc) = np.array(world_to_cell(
        [start[0], goal[0]], [start[1], goal[1]], grid.origin, grid.cell_size)).tolist()
    if not (0 <= sr < grid.rows and 0 <= sc < grid.cols) or blocked[sr, sc]:
        raise InvalidStartError("start cell is blocked or outside the grid")
    mult = None
    if ((values > 0) & ~blocked).any():
        mult = 1.0 + COST_EDGE_ALPHA * values.astype(float) / 100.0
    return blocked, mult, (sr, sc), (gr, gc)


def _search(blocked, mult, start, goal=None, targets=()):
    """The one search core: A* toward `goal`, or a Dijkstra flood without one.

    The grid is padded by one cell and flattened: cell (r, c) has index
    (r + 1) * (cols + 2) + c + 1, in row-major order, and its 8 neighbours
    sit at fixed offsets. Blocked and border cells hold dist = -inf, so the
    relax test `ng < dist - 1e-12` alone rejects them; closed cells are
    relaxed like any other. mult is the per-cell edge multiplier (None =
    uniform); an edge weighs its step length times the mean multiplier of
    its endpoints. The octile heuristic is consistent because every
    multiplier is >= 1. Heap entries are (f, h, index) in A* and (g, index)
    in a flood, where h = 0: ties break on f, then h, then row-major order.

    A* stops when it pops the goal, a flood when it pops a cell of
    `targets`. Every edge weighs at least 1, so a flood pops cells in rising
    (weight, index) order and never improves a popped cell: the first
    target popped has the least (weight, index), and its came chain is
    final. Returns the (rows, cols) arrays of the path's cells from the
    start, or None when no stop cell is reachable.
    """
    rows, cols = blocked.shape
    width = cols + 2
    wall = np.ones((rows + 2, width), dtype=bool)
    wall[1:-1, 1:-1] = blocked
    dist = np.where(wall, -math.inf, math.inf).ravel().tolist()
    came = [-1] * len(dist)
    closed = bytearray(len(dist))
    uniform = mult is None
    if not uniform:
        mult = np.pad(mult, 1, constant_values=1.0).ravel().tolist()
    # a weighted edge is step * 0.5 * (m_here + m_next); step * 0.5 is exact
    # and taken once here, so the sum rounds exactly as written out
    steps = [(dr * width + dc, step if uniform else step * 0.5) for dr, dc, step in _NEIGHBORS]
    s = (start[0] + 1) * width + start[1] + 1
    dist[s] = 0.0
    flood = goal is None
    if flood:
        heap = [(0.0, s)]
        stop = {(r + 1) * width + c + 1 for r, c in targets}
    else:
        gr, gc = goal
        # a flat C-double array: a Python float is made only for each push
        hl = array("d", octile(np.arange(-1, rows + 1)[:, None] - gr,
                               np.arange(-1, cols + 1)[None, :] - gc).ravel().tobytes())
        heap = [(hl[s], hl[s], s)]
        stop = {(gr + 1) * width + gc + 1}
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        i = pop(heap)[-1]
        if closed[i]:
            continue
        if i in stop:
            cells = [i]
            while came[cells[-1]] >= 0:
                cells.append(came[cells[-1]])
            rr, cc = np.divmod(np.array(cells[::-1]), width)
            return rr - 1, cc - 1
        closed[i] = 1
        g = dist[i]
        if not uniform:
            m = mult[i]
        for off, w in steps:
            j = i + off
            ng = g + w if uniform else g + w * (m + mult[j])
            if ng < dist[j] - 1e-12:
                dist[j] = ng
                came[j] = i
                if flood:
                    push(heap, (ng, j))
                else:
                    h = hl[j]
                    push(heap, (ng + h, h, j))
    return None


def best_progress_path(grid: CostGrid, start, goal) -> Path:
    """Path to the reachable cell that gets closest to an unreachable goal.

    The target is the reachable cell with the smallest Euclidean distance
    to the goal (ties: lower path weight, then row-major order). When no
    reachable cell is nearer the goal than the start cell, the path is the
    single point at the start cell. Used when the direct planners report
    no path, so the rover can still make progress around large blocked
    regions.

    The candidates, every reachable cell at the least distance to the
    goal, come from the start's 8-connected component of open cells: the
    set a flood settles. The flood stops at the first candidate it settles,
    the one of least path weight, then row-major order.
    """
    blocked, mult, (sr, sc), (gr, gc) = _graph(grid, start, goal)
    labels, _ = ndimage.label(~blocked, structure=np.ones((3, 3)))
    rr, cc = np.nonzero(labels == labels[sr, sc])
    d2 = (rr - gr) ** 2 + (cc - gc) ** 2
    tie = d2 == d2.min()
    cells = _search(blocked, mult, (sr, sc), targets=list(zip(rr[tie].tolist(), cc[tie].tolist())))
    return Path(np.column_stack(cell_center(*cells, grid.origin, grid.cell_size)))


def first_lethal_point(path: Path, grid: CostGrid) -> tuple[float, float] | None:
    """The first path point, in path order, on a lethal cell (cost
    `COST_MAX`), or None.

    Points outside the grid are ignored, and unknown cells are never
    lethal: condemning a path requires positive evidence.
    """
    r, c = world_to_cell(path.points[:, 0], path.points[:, 1], grid.origin, grid.cell_size)
    inside = np.flatnonzero((r >= 0) & (r < grid.rows) & (c >= 0) & (c < grid.cols))
    hits = inside[grid.values[r[inside], c[inside]] >= COST_MAX]
    return tuple(path.points[hits[0]].tolist()) if hits.size else None
