"""Independent reference implementations used to check the package.

These deliberately share no code with the package: plain-dict Dijkstra
over the same 8-connected movement model, a brute-force point-to-segment
distance and a shift-and-OR disc dilation. Keep them simple and slow.
"""

import heapq
import math

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
    """Grid values under the world points that land inside the grid."""
    rows = len(values)
    cols = len(values[0])
    out = []
    for x, y in points:
        c = math.floor((x - origin[0]) / cell_size)
        r = math.floor((y - origin[1]) / cell_size)
        if 0 <= r < rows and 0 <= c < cols:
            out.append(values[r][c])
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
