"""Independent reference implementations used to check the package.

These deliberately share no code with the package: plain-dict Dijkstra
over the same 8-connected movement model, the dict/heap grid search the
planners used before their flat-array core (with the planners built on it),
a full-map priority merge, a sample-by-sample max rasterizer, a
brute-force point-to-segment distance, a shift-and-OR disc dilation,
shift-and-compare disc extrema, a per-window least-squares plane fit, a
hazard check with nothing carried between poses. Keep them simple and slow.
"""

import heapq
import math

import numpy as np

from rovernav.grids import cell_center, plane_fit_points, slope_degrees
from rovernav.world import _TILT_DX, _TILT_DY, FOOTPRINT_RADIUS, TILT_LIMIT_DEG, HazardEvent, HazardKind

SQRT2 = math.sqrt(2.0)

STEPS = [
    (-1, -1, SQRT2), (-1, 0, 1.0), (-1, 1, SQRT2),
    (0, -1, 1.0), (0, 1, 1.0),
    (1, -1, SQRT2), (1, 0, 1.0), (1, 1, SQRT2),
]


def dijkstra_grid_length(blocked, start, goal):
    """Shortest 8-connected path length in cell units, or None.

    blocked is a 2-D boolean array; start/goal are (row, col).
    """
    rows = len(blocked)
    cols = len(blocked[0])
    dist = {start: 0.0}
    heap = [(0.0, start)]
    done = set()
    while heap:
        d, cell = heapq.heappop(heap)
        if cell in done:
            continue
        if cell == goal:
            return d
        done.add(cell)
        r, c = cell
        for dr, dc, w in STEPS:
            nr, nc = r + dr, c + dc
            if 0 <= nr < rows and 0 <= nc < cols and not blocked[nr][nc]:
                nd = d + w
                if nd < dist.get((nr, nc), math.inf):
                    dist[(nr, nc)] = nd
                    heapq.heappush(heap, (nd, (nr, nc)))
    return None


def dijkstra_weighted_cost(values, start, goal, lethal=100, alpha=4.0, cell_size=1.0):
    """Minimum total edge weight on a costmap, or None.

    Edge weight = step length * cell_size * (1 + alpha * mean endpoint
    cost / 100); cells with value >= lethal or < 0 are blocked.
    """
    rows = len(values)
    cols = len(values[0])

    def open_cell(r, c):
        v = values[r][c]
        return 0 <= v < lethal

    if not open_cell(*start) or not open_cell(*goal):
        return None
    dist = {start: 0.0}
    heap = [(0.0, start)]
    done = set()
    while heap:
        d, cell = heapq.heappop(heap)
        if cell in done:
            continue
        if cell == goal:
            return d
        done.add(cell)
        r, c = cell
        for dr, dc, w in STEPS:
            nr, nc = r + dr, c + dc
            if 0 <= nr < rows and 0 <= nc < cols and open_cell(nr, nc):
                mult = 1.0 + alpha * 0.5 * (values[r][c] + values[nr][nc]) / 100.0
                nd = d + w * cell_size * mult
                if nd < dist.get((nr, nc), math.inf) - 1e-15:
                    dist[(nr, nc)] = nd
                    heapq.heappush(heap, (nd, (nr, nc)))
    return None


def values_under_points(values, origin, cell_size, points):
    """The grid value under each world point, None for a point outside the
    grid."""
    rows = len(values)
    cols = len(values[0])
    out = []
    for x, y in points:
        c = math.floor((x - origin[0]) / cell_size)
        r = math.floor((y - origin[1]) / cell_size)
        out.append(values[r][c] if 0 <= r < rows and 0 <= c < cols else None)
    return out


def rasterize_max(heights, patch_origin, pitch, rows, cols, origin, cell):
    """Max-height raster of a lattice of samples, as nested lists.

    `heights[i][j]` is the sample at the centre of lattice cell (i, j) of
    pitch `pitch` from `patch_origin`. Each finite sample goes, one at a
    time, to the grid cell holding that centre; NaN samples and samples
    outside the rows x cols grid at `origin` are skipped. A cell no sample
    reached holds NaN.
    """
    out = [[math.nan] * cols for _ in range(rows)]
    for i, line in enumerate(heights):
        for j, z in enumerate(line):
            if not math.isfinite(z):
                continue
            x = patch_origin[0] + (j + 0.5) * pitch
            y = patch_origin[1] + (i + 0.5) * pitch
            r = math.floor((y - origin[1]) / cell)
            c = math.floor((x - origin[0]) / cell)
            if 0 <= r < rows and 0 <= c < cols and not z <= out[r][c]:
                out[r][c] = z
    return out


def dilate_disc(mask, radius_cells):
    """Binary dilation of a 2-D boolean array by a disc of radius_cells.

    ORs in the mask shifted by every integer offset (dr, dc) with
    dr*dr + dc*dc <= radius_cells**2; cells shifted past the border drop.
    """
    rows = len(mask)
    cols = len(mask[0]) if rows else 0
    out = [[False] * cols for _ in range(rows)]
    reach = int(math.floor(radius_cells))
    offsets = [(dr, dc) for dr in range(-reach, reach + 1) for dc in range(-reach, reach + 1)
               if dr * dr + dc * dc <= radius_cells * radius_cells]
    for r in range(rows):
        for c in range(cols):
            if mask[r][c]:
                for dr, dc in offsets:
                    if 0 <= r + dr < rows and 0 <= c + dc < cols:
                        out[r + dr][c + dc] = True
    return out


def _disc_extremum(values, radius_cells, pick):
    rows, cols = values.shape
    reach = int(math.floor(radius_cells))
    out = None
    for dr in range(-reach, reach + 1):
        for dc in range(-reach, reach + 1):
            if dr * dr + dc * dc > radius_cells * radius_cells:
                continue
            r_idx = [min(max(r + dr, 0), rows - 1) for r in range(rows)]
            c_idx = [min(max(c + dc, 0), cols - 1) for c in range(cols)]
            shifted = values[np.ix_(r_idx, c_idx)]
            out = shifted if out is None else pick(out, shifted)
    return out


def disc_max(values, radius_cells):
    """Max over every offset (dr, dc) with dr*dr + dc*dc <= radius_cells**2,
    indices clamped to the grid edge."""
    return _disc_extremum(np.asarray(values), radius_cells, np.maximum)


def disc_min(values, radius_cells):
    """Min counterpart of `disc_max`."""
    return _disc_extremum(np.asarray(values), radius_cells, np.minimum)


def plane_fit_window(z, known, window, cell_size):
    """Least-squares plane over the known cells of each clipped window.

    For every cell (r, c), fits z = a*dx + b*dy + c with np.linalg.lstsq to
    the known cells of the window x window block centered on it (clipped at
    the border), dx and dy in meters from the cell. A window with fewer than
    3 known cells, or whose known cells do not span a plane, gets a zero
    plane and zero rms. Returns nested lists (a, b, c, rms, count).
    """
    rows = len(z)
    cols = len(z[0])
    half = window // 2
    out = [[[0.0] * cols for _ in range(rows)] for _ in range(5)]
    for r in range(rows):
        for c in range(cols):
            cells = [(rr, cc)
                     for rr in range(max(r - half, 0), min(r + half + 1, rows))
                     for cc in range(max(c - half, 0), min(c + half + 1, cols))
                     if known[rr][cc]]
            out[4][r][c] = float(len(cells))
            if len(cells) < 3:
                continue
            design = np.array([[(cc - c) * cell_size, (rr - r) * cell_size, 1.0] for rr, cc in cells])
            zs = np.array([z[rr][cc] for rr, cc in cells])
            coef, _, rank, _ = np.linalg.lstsq(design, zs, rcond=None)
            if rank < 3:
                continue
            res = zs - design @ coef
            out[0][r][c], out[1][r][c], out[2][r][c] = (float(v) for v in coef)
            out[3][r][c] = math.sqrt(float(res @ res) / len(cells))
    return out


def point_segment_distance(p, a, b):
    """Distance from point p to segment a-b."""
    px, py = p
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    if denom == 0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / denom))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


# --- the dict/heap search core the planners used before the flat-array one --
#
# `search` is that core verbatim (as `_search`); the functions after it are
# the planners' old bodies around it, in cell units. Paths are lists of
# (row, col) cells.

_NEIGHBORS = STEPS


def octile(dr, dc):
    dr, dc = abs(dr), abs(dc)
    return max(dr, dc) + (SQRT2 - 1.0) * min(dr, dc)


def search(blocked, mult, sr, sc, goal=None):
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


def search_graph(values, lethal=100, alpha=4.0):
    """(blocked, multiplier or None) of a costmap, as the planners build them."""
    values = np.asarray(values)
    blocked = (values >= lethal) | (values < 0)
    if not ((values > 0) & ~blocked).any():
        return blocked, None
    return blocked, 1.0 + alpha * values.astype(float) / 100.0


def _cells_to(came, cols, start_idx, end_idx):
    idx = end_idx
    cells = [idx]
    while idx != start_idx:
        idx = came[idx]
        cells.append(idx)
    return [divmod(i, cols) for i in reversed(cells)]


def search_astar_cells(values, start, goal):
    """A* cell path from start to goal (both open cells), or None."""
    blocked, mult = search_graph(values)
    cols = blocked.shape[1]
    _, came, _, reached = search(blocked, mult, start[0], start[1], goal)
    if not reached:
        return None
    return _cells_to(came, cols, start[0] * cols + start[1], goal[0] * cols + goal[1])


def search_best_progress_cells(values, start, goal):
    """Cell path to the best-progress target of a flood from an open start."""
    blocked, mult = search_graph(values)
    cols = blocked.shape[1]
    sr, sc = start
    gr, gc = goal
    dist, came, closed, _ = search(blocked, mult, sr, sc)
    rr, cc = np.divmod(np.array(closed), cols)
    to_goal = list(map(math.hypot, (rr - gr).tolist(), (cc - gc).tolist()))
    weight = [dist[idx] for idx in closed]
    best = min(zip(to_goal, weight, closed))
    return _cells_to(came, cols, sr * cols + sc, best[2])


def merge_full_map(values, source, local_values, local_origin, local_cell, priority,
                   origin, cell):
    """Priority merge of a local map into a whole global map, in place.

    Every known local cell max-pools into the global cell holding its
    centre; a pooled cell is written where `priority` is at least the
    cell's recorded source, except that a lethal (100) cell is never
    lowered at equal priority. Returns the number of cells written.
    """
    rows, cols = values.shape
    lr, lc = np.nonzero(local_values >= 0)
    xs = local_origin[0] + (lc + 0.5) * local_cell
    ys = local_origin[1] + (lr + 0.5) * local_cell
    gc = np.floor((xs - origin[0]) / cell).astype(int)
    gr = np.floor((ys - origin[1]) / cell).astype(int)
    acc = np.full((rows, cols), -1, dtype=np.int16)
    for r, c, v in zip(gr.tolist(), gc.tolist(), local_values[lr, lc].tolist()):
        if 0 <= r < rows and 0 <= c < cols:
            acc[r, c] = max(acc[r, c], v)
    downgrade = (values >= 100) & (source == priority) & (acc < 100)
    writable = (acc >= 0) & (source <= priority) & ~downgrade
    values[writable] = acc[writable]
    source[writable] = priority
    return int(np.count_nonzero(writable))


def cell_hull(ground):
    """(x_lo, x_hi, y_lo, y_hi): the box of the ground's cell centres."""
    (x_lo, x_hi), (y_lo, y_hi) = cell_center(np.array([0, ground.rows - 1]), np.array([0, ground.cols - 1]),
                                             ground.origin, ground.cell_size)
    return float(x_lo), float(x_hi), float(y_lo), float(y_hi)


def hazard_at(terrain, pose):
    """The first hazard at `pose` from the three definitions, in the order
    `World.check_hazard` reports them: off-map when the footprint disc
    leaves the hull of the ground's cell centres, rock contact by a scan of
    every rock disc, then tilt by the `plane_fit_points` fit of the ground
    at the 17 footprint samples."""
    g, r, x, y = terrain.ground, FOOTPRINT_RADIUS, pose.x, pose.y
    x_lo, x_hi, y_lo, y_hi = cell_hull(g)
    if x - r < x_lo or x + r > x_hi or y - r < y_lo or y + r > y_hi:
        position = (min(max(x, 0.0), terrain.extent_x), min(max(y, 0.0), terrain.extent_y))
        return HazardEvent(HazardKind.OFF_MAP, position, pose.time)
    if any(math.hypot(rock.x - x, rock.y - y) < rock.radius + r for rock in terrain.rocks):
        return HazardEvent(HazardKind.ROCK_COLLISION, (x, y), pose.time)
    xs, ys = x + _TILT_DX, y + _TILT_DY
    a, b, _ = plane_fit_points(np.column_stack([xs, ys, g.sample(xs, ys)]))
    if slope_degrees(a, b) > TILT_LIMIT_DEG:
        return HazardEvent(HazardKind.TILT_EXCEEDED, (x, y), pose.time)
    return None
