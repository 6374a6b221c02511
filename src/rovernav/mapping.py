"""Local mapping: elevation rasterization, obstacle extraction, costmaps.

Heights are `HeightField`s sensed by `World.sense_points`: the costmap
senses on its own cell centres, and the obstacle map rasterizes a finer
patch onto its cells (`build_elevation_grid`: max height per cell, so
thin obstacles survive). NaN, the unknown mark of every elevation raster,
holds where a cell is off the map or no known sample reached it. Every
map product derived from them is a `CostGrid` (0..100 traversal cost, -1
unknown): the mid-tier mode's obstacle map is one with only 0 (free) and
`COST_MAX` (obstacle) in its known cells, and the cautious mode's costmap
grades cost by slope, roughness, and step height. Each function that needs the known-cell mask
takes it once, as `np.isfinite(elevation)`. `cost_to_obstacle` turns any
cost layer into the safe view the mid-tier planner searches.
`cost_features` is the one pass that fits the planes and applies the cost
law. `cost_cells` is the one quantization: it keeps a costmap as one uint8
code per cell. Both take a margin: the cells within it of the border feed
the plane fits and step rings of the cells inside, and get no cost of their
own. `lethal_halo` is the one lethal inflation of such codes, in place,
each source's transform cropped to its lethal cells' box grown by its
radius, and `build_navigation_costmap` the one step from codes to costs,
for the rover's local costmap and for the coarse route costmap alike.
All inflation goes through `grids.dilate_disc`. `CostCellRecord` keeps a
mission's codes, each cell built once, and publishes the windows the
conservative mode plans on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grids import (
    cell_center, dilate_disc, disc_max, disc_min, interior, neighbor_slices, plane_fit_grid, slope_degrees,
    world_to_cell,
)
from .terrain import HeightField
from .world import World

COST_MAX = 100
COST_UNKNOWN = -1

# Rock rims at 0.5 m cells produce median-difference signals of only
# ~0.2 m (a smooth flank looks locally planar to a 3x3 median), so the
# threshold sits well below that while staying far above sensor noise.
DEFAULT_OBSTACLE_HEIGHT = 0.12
# Obstacle/lethal inflation: circumscribed rover radius (2.3 m) plus the
# worst-case cell quantization of the sensed rim and the global-map storage
# (2 x 0.35 m at 0.5 m cells) plus tracking error.
DEFAULT_INFLATION_RADIUS = 3.5
# Lethal inflation of the costmap's roughness and step hazards; see
# `lethal_halo`.
BUMP_INFLATION_RADIUS = 1.5

# Weights of the slope, roughness and step terms of the cost law; slope
# dominates.
SLOPE_WEIGHT = 0.5
ROUGH_WEIGHT = 0.3
STEP_WEIGHT = 0.2

# Cost-cell codes, the uint8 form of a costmap: 0 for unknown, 1 + cost for
# costs 0..100, one per source of a lethal cell (each inflates by its own
# radius), and one for a known cell in a lethal cell's inflation. A code's
# cost never falls as the code rises, so a block's highest code costs its
# highest cost.
CELL_UNKNOWN = 0
CELL_SLOPE_LETHAL = COST_MAX + 2
CELL_BUMP_LETHAL = COST_MAX + 3
CELL_HALO = COST_MAX + 4
_CELL_COST = np.array([COST_UNKNOWN, *range(COST_MAX + 1), COST_MAX, COST_MAX, COST_MAX], dtype=np.int16)


@dataclass
class CostGrid:
    """Traversal cost per cell: integers 0..100, or -1 for unknown."""

    values: np.ndarray  # int16
    origin: tuple[float, float]
    cell_size: float

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


def build_elevation_grid(patch: HeightField, shape: tuple[int, int], origin, cell_size: float) -> HeightField:
    """Rasterize the known samples of a sensed patch onto a rows x cols grid
    at `origin`, keeping the max height per cell.

    Each sample lands in the cell that holds its lattice centre. Unknown
    (NaN) samples and samples outside the grid are dropped, and cells that
    receive no sample hold NaN (unknown).
    """
    rows, cols = shape
    xs, ys = cell_center(np.arange(patch.rows), np.arange(patch.cols), patch.origin, patch.cell_size)
    r, c = world_to_cell(xs, ys, origin, cell_size)
    r, c = np.broadcast_arrays(r[:, None], c[None, :])
    ok = np.isfinite(patch.elevation) & (r >= 0) & (r < rows) & (c >= 0) & (c < cols)
    elevation = np.full(shape, -np.inf)
    np.maximum.at(elevation, (r[ok], c[ok]), patch.elevation[ok])
    elevation[np.isneginf(elevation)] = np.nan
    return HeightField(elevation, origin, cell_size)


def extract_obstacles(elev: HeightField) -> CostGrid:
    """Mark cells that stand out from their 3x3 neighborhood as obstacles.

    A cell is an obstacle when |z - median(known 3x3 neighborhood)| exceeds
    `DEFAULT_OBSTACLE_HEIGHT`; the rule is symmetric, so both rocks and pits
    register, and it only sees elevation differences, so a constant offset
    changes nothing. Obstacles are then inflated into surrounding free
    cells by `DEFAULT_INFLATION_RADIUS`. Obstacle cells cost `COST_MAX`,
    free cells 0, and unknown cells stay unknown (-1).
    """
    if elev.rows == 0 or elev.cols == 0:
        raise ValidationError("elevation grid is empty")
    z = elev.elevation
    known = np.isfinite(z)
    stack = np.full((9, elev.rows, elev.cols), np.nan)
    for layer, (dst, src) in zip(stack, neighbor_slices(z.shape)):
        layer[dst] = z[src]
    median = _nanmedian_layers(stack)
    raw = known & np.isfinite(median) & (np.abs(z - median) > DEFAULT_OBSTACLE_HEIGHT)
    raw = dilate_disc(raw, DEFAULT_INFLATION_RADIUS / elev.cell_size)
    values = np.full((elev.rows, elev.cols), COST_UNKNOWN, dtype=np.int16)
    values[known] = 0
    values[known & raw] = COST_MAX
    return CostGrid(values, elev.origin, elev.cell_size)


def _nanmedian_layers(stack: np.ndarray) -> np.ndarray:
    """`np.nanmedian(stack, axis=0)`, sorting `stack` in place.

    The sort puts NaN last, so each cell's k known values lead its column;
    the median is the mean of the two middle ones, (lo + hi) / 2 as numpy
    computes it (for odd k, lo and hi are the same value). The result
    equals numpy's value for value, NaN where a cell has no known value
    (without a warning); only a zero median may keep the sign its inputs
    carry. The stable kind sorts sensed terrain, whose neighbourhood
    columns come partly ordered, 10-20% faster than the default.
    """
    stack.sort(axis=0, kind="stable")
    flat = stack.reshape(len(stack), -1)
    k = len(stack) - np.count_nonzero(np.isnan(flat), axis=0)
    cells = np.arange(flat.shape[1])
    lo = flat[np.maximum(k - 1, 0) // 2, cells]
    hi = flat[k // 2, cells]
    return ((lo + hi) / 2).reshape(stack.shape[1:])


@dataclass(frozen=True)
class CostWeights:
    """Saturation limits and windows of the traversal-cost features.

    Any feature at or past its limit makes the cell lethal (cost 100)
    outright so a cliff can never be traded against smooth surroundings.
    Step height is measured on slope-detrended elevation within
    step_radius, so a smooth incline contributes no step.
    """

    slope_max_deg: float = 30.0
    rough_max: float = 0.15
    step_max: float = 0.3
    fit_window_m: float = 4.6
    step_radius_m: float = 0.5


def _feature_windows(cell: float, weights: CostWeights) -> tuple[int, float]:
    """The plane-fit window side and the step ring radius, in cells."""
    return max(int(round(weights.fit_window_m / cell)) | 1, 3), max(weights.step_radius_m / cell, 1.0)


def cost_feature_reach(cell: float) -> int:
    """Cells from a cell to the farthest height its `cost_cells` features
    read: the step ring, plus the half fit window of the ring's planes."""
    win, ring = _feature_windows(cell, CostWeights())
    return win // 2 + int(ring)


def cost_features(elev: HeightField, weights: CostWeights = CostWeights(), margin: int = 0):
    """Unrounded cost plus the raw (slope_deg, roughness, step) features,
    on the cells at least `margin` from the border.

    Per cell: fit a plane over the footprint-scaled window (slope = plane
    inclination, roughness = RMS residual of the fit), then measure the
    largest detrended elevation jump to any known cell within step_radius,
    from the disc maximum and minimum of the detrended heights
    (`grids.disc_max`, `grids.disc_min`; unknown cells enter as -inf and
    +inf, so they never win).
    cost = 100 * (w_s*min(s/s_max,1) + w_r*min(r/r_max,1) +
    w_h*min(h/h_max,1)), with the module's `*_WEIGHT`s, forced to 100 when
    any feature saturates.
    Every cell's height feeds the plane-fit sums, but planes are fitted
    only on the kept cells and their step ring, and features and costs
    only on the kept cells, so the result is the `grids.interior` of the
    margin-0 result bit for bit.
    """
    if margin < 0 or 2 * margin >= min(elev.rows, elev.cols):
        raise ValidationError(f"a margin of {margin} cells leaves no cell of the {elev.rows} x {elev.cols} "
                              "elevation grid")
    cell = elev.cell_size
    win, ring = _feature_windows(cell, weights)
    # Planes on the kept cells and their step ring. A ring around a kept
    # cell then lies inside the fitted cells, or clamps at the border just
    # as over the whole grid.
    r = min(int(ring), margin)
    a, b, c, rough, _ = plane_fit_grid(elev.elevation, win, cell, margin - r)
    z = elev.elevation[interior(elev.elevation.shape, margin - r)]
    known = np.isfinite(z)
    res = np.where(known, z - c, 0.0)
    kept = interior(z.shape, r)
    res_hi = disc_max(np.where(known, res, -np.inf), ring)[kept]
    res_lo = disc_min(np.where(known, res, np.inf), ring)[kept]
    slope, rough, res = slope_degrees(a[kept], b[kept]), rough[kept], res[kept]
    step = np.maximum(res - res_lo, res_hi - res)
    step = np.where(np.isfinite(step), step, 0.0)
    f = 100.0 * (
        SLOPE_WEIGHT * np.minimum(slope / weights.slope_max_deg, 1.0)
        + ROUGH_WEIGHT * np.minimum(rough / weights.rough_max, 1.0)
        + STEP_WEIGHT * np.minimum(step / weights.step_max, 1.0)
    )
    lethal = (slope >= weights.slope_max_deg) | (rough >= weights.rough_max) | (step >= weights.step_max)
    f[lethal] = 100.0
    return f, slope, rough, step


def cost_cells(elev: HeightField, weights: CostWeights = CostWeights(), margin: int = 0) -> np.ndarray:
    """The costmap before inflation, one uint8 code per cell at least
    `margin` cells from the border (`cost_features`).

    Known cells hold `CELL_SLOPE_LETHAL` or `CELL_BUMP_LETHAL` when a
    feature saturates (slope first), else 1 + their cost rounded to
    0..100; unknown cells hold `CELL_UNKNOWN`. `lethal_halo` inflates the
    lethal ones.
    """
    f, slope, rough, step = cost_features(elev, weights, margin)
    codes = (np.clip(np.rint(f).astype(np.int16), 0, COST_MAX) + 1).astype(np.uint8)
    codes[(rough >= weights.rough_max) | (step >= weights.step_max)] = CELL_BUMP_LETHAL
    codes[slope >= weights.slope_max_deg] = CELL_SLOPE_LETHAL
    codes[~np.isfinite(elev.elevation[interior(elev.elevation.shape, margin)])] = CELL_UNKNOWN
    return codes


def lethal_halo(codes: np.ndarray, cell_size: float,
                radii: tuple[float, float] = (DEFAULT_INFLATION_RADIUS, BUMP_INFLATION_RADIUS)) -> None:
    """Mark `CELL_HALO`, in place, on the known cells of `codes` within
    reach of a lethal cell that are not lethal themselves: one disc
    inflation per source, each by its own radius (meters).

    `radii` are the inflation radii of slope-lethal and of bump-lethal
    cells. By default slope-lethal cells, which mark the hazard itself,
    inflate by the full footprint-plus-margin radius
    (`DEFAULT_INFLATION_RADIUS`). Roughness- and step-lethal cells already
    extend half a fit window beyond the bump that caused them; they only
    need a small quantization-and-tracking margin (`BUMP_INFLATION_RADIUS`),
    or every boulder would seal the corridors around it. A dilation is a
    union of discs, so the halo of a grid is the union of the halos of any
    pieces that cover it, each grown beyond its piece by the radius.
    """
    for code, radius in zip((CELL_SLOPE_LETHAL, CELL_BUMP_LETHAL), radii):
        mask = codes == code
        rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
        if rows.size == 0:
            continue
        # Every cell of the disc around a lethal cell lies in the lethal
        # cells' bounding box grown by the radius, and so does every
        # cell's nearest lethal cell: the transform over the box is exact.
        p = int(radius / cell_size) + 1
        box = np.s_[max(rows[0] - p, 0):rows[-1] + p + 1, max(cols[0] - p, 0):cols[-1] + p + 1]
        view, halo = codes[box], dilate_disc(mask[box], radius / cell_size)
        view[halo & (view != CELL_UNKNOWN) & (view <= COST_MAX + 1)] = CELL_HALO


def build_navigation_costmap(codes: np.ndarray, origin, cell_size: float) -> CostGrid:
    """The planning costmap of `cost_cells` codes, inflated or not, on a
    grid at `origin`: each code's cost. Unknown cells stay unknown."""
    return CostGrid(_CELL_COST[codes], origin, cell_size)


def cost_to_obstacle(grid: CostGrid) -> CostGrid:
    """The safe view of a cost layer: lethal cells `COST_MAX`, all others 0.

    Unknown cells become 0 too, so the mid-tier planner treats unsensed
    ground as free, and with no graded cost left every step weighs its
    length alone.
    """
    values = np.where(grid.values >= COST_MAX, COST_MAX, 0).astype(np.int16)
    return CostGrid(values, grid.origin, grid.cell_size)


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
    the global map's), and stored as `cost_cells` codes; a block that was
    never built reads unknown. Each build folds the lethal halo into the
    known codes around it (`lethal_halo`): its own lethal cells mark the
    built cells within reach, and the lethal cells built before mark its
    new cells. So a known code is `CELL_HALO` exactly when
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
