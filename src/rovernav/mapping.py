"""Local mapping: elevation rasterization, obstacle extraction, costmaps.

Sensed point clouds become elevation grids (max-z per cell, so thin
obstacles survive). From there two products are derived: a binary obstacle
grid for the mid-tier navigation mode, and a 0-100 traversal costmap for
the cautious mode, built from slope, roughness, and step-height features.
`cost_features` is the one pass that fits the planes and applies the cost
law; every costmap quantizes its output. All inflation goes through
`grids.dilate_disc`.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .errors import ValidationError
from .grids import dilate_disc, disk_footprint, neighbor_slices, plane_fit_grid, slope_degrees, world_to_cell
from . import pgmio

FREE = 0
OBSTACLE = 1
UNKNOWN = -1

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


class GridGeometry(NamedTuple):
    rows: int
    cols: int
    origin: tuple[float, float]
    cell_size: float


@dataclass
class ElevationGrid:
    """Per-cell elevation with an explicit known mask."""

    elevation: np.ndarray
    known: np.ndarray
    origin: tuple[float, float]
    cell_size: float

    @property
    def rows(self) -> int:
        return self.elevation.shape[0]

    @property
    def cols(self) -> int:
        return self.elevation.shape[1]

    @property
    def geometry(self) -> GridGeometry:
        return GridGeometry(self.rows, self.cols, self.origin, self.cell_size)


@dataclass
class ObstacleGrid:
    """Ternary occupancy: FREE, OBSTACLE, or UNKNOWN per cell."""

    cells: np.ndarray  # int8
    origin: tuple[float, float]
    cell_size: float

    @property
    def rows(self) -> int:
        return self.cells.shape[0]

    @property
    def cols(self) -> int:
        return self.cells.shape[1]


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

    def copy(self) -> "CostGrid":
        return CostGrid(self.values.copy(), self.origin, self.cell_size)


def build_elevation_grid(points: np.ndarray, geometry: GridGeometry) -> ElevationGrid:
    """Rasterize (x, y, z) points onto a grid, keeping the max z per cell.

    Cells that receive no points stay unknown. Points outside the geometry
    are dropped.
    """
    rows, cols, origin, cell = geometry
    elevation = np.zeros((rows, cols))
    known = np.zeros((rows, cols), dtype=bool)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        return ElevationGrid(elevation, known, origin, cell)
    r, c = world_to_cell(pts[:, 0], pts[:, 1], origin, cell)
    ok = (r >= 0) & (r < rows) & (c >= 0) & (c < cols)
    r, c, z = r[ok], c[ok], pts[ok, 2]
    acc = np.full((rows, cols), -np.inf)
    np.maximum.at(acc, (r, c), z)
    known = np.isfinite(acc)
    elevation[known] = acc[known]
    return ElevationGrid(elevation, known, origin, cell)


def extract_obstacles(
    elev: ElevationGrid,
    h_obstacle: float = DEFAULT_OBSTACLE_HEIGHT,
    inflate_radius: float = DEFAULT_INFLATION_RADIUS,
) -> ObstacleGrid:
    """Mark cells that stand out from their 3x3 neighborhood as obstacles.

    A cell is an obstacle when |z - median(known 3x3 neighborhood)| exceeds
    h_obstacle; the rule is symmetric, so both rocks and pits register, and
    it only sees elevation differences, so a constant offset changes
    nothing. Obstacles are then inflated into surrounding free cells by
    inflate_radius; unknown cells stay unknown.
    """
    if elev.rows == 0 or elev.cols == 0:
        raise ValidationError("elevation grid is empty")
    z = elev.elevation
    known = elev.known
    masked = np.where(known, z, np.nan)
    stack = np.full((9, elev.rows, elev.cols), np.nan)
    for layer, (dst, src) in zip(stack, neighbor_slices(z.shape)):
        layer[dst] = masked[src]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        median = np.nanmedian(stack, axis=0)
    raw = known & np.isfinite(median) & (np.abs(z - median) > h_obstacle)

    if inflate_radius > 0:
        raw = dilate_disc(raw, inflate_radius / elev.cell_size)
    cells = np.full((elev.rows, elev.cols), UNKNOWN, dtype=np.int8)
    cells[known] = FREE
    cells[known & raw] = OBSTACLE
    return ObstacleGrid(cells, elev.origin, elev.cell_size)


@dataclass(frozen=True)
class CostWeights:
    """Weights and saturation limits for the traversal-cost features.

    Slope dominates; any feature at or past its limit makes the cell
    lethal (cost 100) outright so a cliff can never be traded against
    smooth surroundings. Step height is measured on slope-detrended
    elevation within step_radius, so a smooth incline contributes no step.
    """

    w_slope: float = 0.5
    w_rough: float = 0.3
    w_step: float = 0.2
    slope_max_deg: float = 30.0
    rough_max: float = 0.15
    step_max: float = 0.3
    fit_window_m: float = 4.6
    step_radius_m: float = 0.5


def cost_features(elev: ElevationGrid, weights: CostWeights = CostWeights()):
    """Unrounded cost plus the raw (slope_deg, roughness, step) features.

    Per cell: fit a plane over the footprint-scaled window (slope = plane
    inclination, roughness = RMS residual of the fit), then measure the
    largest detrended elevation jump to any known cell within step_radius.
    cost = 100 * (w_s*min(s/s_max,1) + w_r*min(r/r_max,1) +
    w_h*min(h/h_max,1)), forced to 100 when any feature saturates.
    """
    if elev.rows == 0 or elev.cols == 0:
        raise ValidationError("elevation grid is empty")
    cell = elev.cell_size
    win = max(int(round(weights.fit_window_m / cell)) | 1, 3)
    a, b, c, rough, _ = plane_fit_grid(elev.elevation, elev.known, win, cell)
    slope = slope_degrees(a, b)
    res = np.where(elev.known, elev.elevation - c, 0.0)
    ring = disk_footprint(max(weights.step_radius_m / cell, 1.0))
    res_hi = ndimage.maximum_filter(np.where(elev.known, res, -np.inf), footprint=ring, mode="nearest")
    res_lo = ndimage.minimum_filter(np.where(elev.known, res, np.inf), footprint=ring, mode="nearest")
    step = np.maximum(res - res_lo, res_hi - res)
    step = np.where(np.isfinite(step), step, 0.0)
    f = 100.0 * (
        weights.w_slope * np.minimum(slope / weights.slope_max_deg, 1.0)
        + weights.w_rough * np.minimum(rough / weights.rough_max, 1.0)
        + weights.w_step * np.minimum(step / weights.step_max, 1.0)
    )
    lethal = (slope >= weights.slope_max_deg) | (rough >= weights.rough_max) | (step >= weights.step_max)
    f[lethal] = 100.0
    return f, slope, rough, step


def _quantize(f: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Round unrounded costs to int16 0..100, unknown cells to -1."""
    values = np.clip(np.rint(f).astype(np.int16), 0, COST_MAX)
    values[~known] = COST_UNKNOWN
    return values


def compute_costmap(elev: ElevationGrid, weights: CostWeights = CostWeights()) -> CostGrid:
    """Traversal cost: `cost_features` rounded to 0..100, unknown cells -1."""
    f, *_ = cost_features(elev, weights)
    return CostGrid(_quantize(f, elev.known), elev.origin, elev.cell_size)


def build_navigation_costmap(
    elev: ElevationGrid,
    weights: CostWeights = CostWeights(),
    slope_inflation: float = DEFAULT_INFLATION_RADIUS,
    bump_inflation: float = 1.5,
) -> CostGrid:
    """Costmap with per-source lethal inflation for planning use.

    Slope-lethal cells mark the hazard itself, so they inflate by the full
    footprint-plus-margin radius. Roughness- and step-lethal cells already
    extend half a fit window beyond the bump that caused them; they only
    need a small quantization-and-tracking margin, or every boulder would
    seal the corridors around it.
    """
    f, slope, rough, step = cost_features(elev, weights)
    values = _quantize(f, elev.known)
    for mask, radius in (
        (slope >= weights.slope_max_deg, slope_inflation),
        ((rough >= weights.rough_max) | (step >= weights.step_max), bump_inflation),
    ):
        if radius > 0:
            values[dilate_disc(mask & elev.known, radius / elev.cell_size) & elev.known] = COST_MAX
    return CostGrid(values, elev.origin, elev.cell_size)


def inflate_lethal(cost: CostGrid, radius: float) -> CostGrid:
    """Dilate lethal (cost 100) cells by the rover footprint radius.

    Keeps the planner's center-point paths clear of lethal terrain by the
    rover's own size. Unknown cells stay unknown.
    """
    out = cost.values.copy()
    if radius > 0:
        out[dilate_disc(cost.values >= COST_MAX, radius / cost.cell_size) & (cost.values >= 0)] = COST_MAX
    return CostGrid(out, cost.origin, cost.cell_size)


def obstacle_to_cost(grid: ObstacleGrid) -> CostGrid:
    """Binary occupancy as a cost layer: obstacle -> 100, free -> 0."""
    values = np.full(grid.cells.shape, COST_UNKNOWN, dtype=np.int16)
    values[grid.cells == FREE] = 0
    values[grid.cells == OBSTACLE] = COST_MAX
    return CostGrid(values, grid.origin, grid.cell_size)


def cost_to_obstacle(grid: CostGrid, lethal: int = COST_MAX) -> ObstacleGrid:
    """Binarize a cost layer: cost >= lethal -> obstacle, known -> free."""
    cells = np.full(grid.values.shape, UNKNOWN, dtype=np.int8)
    cells[grid.values >= 0] = FREE
    cells[grid.values >= lethal] = OBSTACLE
    return ObstacleGrid(cells, grid.origin, grid.cell_size)


# --- serialization ---------------------------------------------------------

_UNKNOWN_PIXEL = 255


def save_grid(grid: ObstacleGrid | CostGrid, path_stem) -> None:
    """Write a grid as graymap + metadata sidecar.

    Pixel encoding: cost/occupancy value as-is, 255 for unknown (documented
    in the sidecar).
    """
    stem = Path(path_stem)
    if isinstance(grid, ObstacleGrid):
        data = grid.cells.astype(np.int16)
        kind = "obstacle"
    else:
        data = grid.values.astype(np.int16)
        kind = "cost"
    pixels = np.where(data < 0, _UNKNOWN_PIXEL, data).astype(np.uint8)
    pgmio.write_pgm(stem.with_suffix(".pgm"), pixels, maxval=255)
    meta = {
        "kind": kind,
        "origin": list(grid.origin),
        "cell_size": grid.cell_size,
        "unknown_pixel": _UNKNOWN_PIXEL,
    }
    stem.with_suffix(".json").write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")


def load_grid(path_stem) -> ObstacleGrid | CostGrid:
    stem = Path(path_stem)
    meta = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
    pixels, _ = pgmio.read_pgm(stem.with_suffix(".pgm"))
    data = pixels.astype(np.int16)
    data[pixels == meta["unknown_pixel"]] = -1
    origin = tuple(meta["origin"])
    if meta["kind"] == "obstacle":
        return ObstacleGrid(data.astype(np.int8), origin, meta["cell_size"])
    return CostGrid(data, origin, meta["cell_size"])
