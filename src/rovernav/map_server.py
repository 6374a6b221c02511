"""Global costmap ownership, priority merging, collision checks.

One server instance owns the mission-wide costmap, a `CostGrid` (0-100
traversal cost, -1 unknown), plus `source`, a per-cell record of which
navigation mode wrote it. Every local map arrives as the same `CostGrid`
type: the mid-tier mode's obstacle map (0 free, 100 obstacle) and the
cautious mode's graded costmap. They merge in under a strict priority
rule: data from a more cautious mode is never overwritten by a less
cautious one. The server also runs the periodic path collision check,
straight on the global `CostGrid`, that emits replan signals. The
mission's route, `WaypointQueue`, is defined here as its ordered points
alone; the mission runner keeps its own place along it.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from .errors import ValidationError, malformed_input
from .grids import cell_center, world_to_cell
from .mapping import COST_MAX, COST_UNKNOWN, CostGrid
from .modes import MODE_COLORS, NavMode
from .planning import COST_REPLAN_TOLERANCE, Path, path_collides, path_cost
from . import pgmio

GLOBAL_RESOLUTION = 0.5
MAP_META = "global_map.json"  # names a map dump directory, beside global_cost.pgm
NO_SOURCE_COLOR = (40, 40, 40)  # cells no mode wrote, in the source overlay


class ReplanReason(enum.Enum):
    COLLISION = "collision"
    COST_TOLERANCE = "cost_tolerance"


@dataclass
class WaypointQueue:
    points: list[tuple[float, float]]

    def __len__(self) -> int:
        return len(self.points)


class MapServer:
    """The mission-wide map: `extent` (x, y) meters at GLOBAL_RESOLUTION,
    with the priority of the mode that wrote each cell (`source`, uint8,
    0 = none), plus the periodic path check."""

    def __init__(self, extent: tuple[float, float]):
        if extent[0] <= 0 or extent[1] <= 0:
            raise ValidationError("extent must be positive")
        cols = round(extent[0] / GLOBAL_RESOLUTION)
        rows = round(extent[1] / GLOBAL_RESOLUTION)
        self.global_map = CostGrid(np.full((rows, cols), COST_UNKNOWN, dtype=np.int16),
                                   (0.0, 0.0), GLOBAL_RESOLUTION)
        self.source = np.zeros((rows, cols), dtype=np.uint8)

    # -- map updates --------------------------------------------------------

    def update_from_local(self, local: CostGrid, mode: NavMode) -> int:
        """Merge a local map into the global costmap under mode priority.

        Known local cells write into the global map only where the incoming
        mode's priority is >= the priority already recorded for the cell.
        Equal priority overwrites (newer data refines older data of the
        same mode) with one ratchet: a lethal cell is never downgraded at
        equal priority, because a later sensing window with the hazard
        outside its bounds would otherwise erase inflation margins written
        by an earlier, better-placed window. Each global cell takes the
        max of the local cells whose centres it holds, so finer local grids
        max-pool into it and coarser ones write one cell per local cell.
        The fast mode performs no mapping, so its updates are no-ops.
        Returns the number of cells written.
        """
        if mode is NavMode.EFFICIENT:
            return 0
        gm = self.global_map
        rows, cols = gm.values.shape
        # A local row (column) lies in one global row (column), and the
        # global indices of successive local rows (columns) never decrease,
        # so max-pooling is one reduceat over each run of equal indices per
        # axis. Unknown cells (-1) lose every max to a known one.
        xs, ys = cell_center(np.arange(local.rows), np.arange(local.cols), local.origin, local.cell_size)
        gr, gc = world_to_cell(xs, ys, gm.origin, gm.cell_size)
        on_r = (gr >= 0) & (gr < rows)
        on_c = (gc >= 0) & (gc < cols)
        if not (on_r.any() and on_c.any()):
            return 0
        gr, r_starts = np.unique(gr[on_r], return_index=True)
        gc, c_starts = np.unique(gc[on_c], return_index=True)
        acc = np.maximum.reduceat(local.values[np.ix_(on_r, on_c)], r_starts, axis=0)
        acc = np.maximum.reduceat(acc, c_starts, axis=1)
        box = np.ix_(gr, gc)
        values, source = gm.values[box], self.source[box]
        downgrade = (values >= COST_MAX) & (mode.priority == source) & (acc < COST_MAX)
        writable = (acc >= 0) & (mode.priority >= source) & ~downgrade
        values[writable] = acc[writable]
        source[writable] = mode.priority
        gm.values[box], self.source[box] = values, source
        return int(np.count_nonzero(writable))

    # -- windows -------------------------------------------------------------

    def get_local_window(self, pose_xy, size: float, resolution: float) -> CostGrid:
        """Snapshot of the global map over a window around the pose.

        Nearest-neighbor resampling to the requested resolution; the window
        is clamped to the map extent. The returned grid is a copy and never
        changes as the global map keeps updating.
        """
        if size <= 0 or resolution <= 0:
            raise ValidationError("size and resolution must be positive")
        gm = self.global_map
        total_c = round(gm.cols * gm.cell_size / resolution)
        total_r = round(gm.rows * gm.cell_size / resolution)
        n = min(round(size / resolution), total_c, total_r)
        half = size / 2.0
        # Snap the window onto the requested-resolution lattice anchored at
        # the map origin, then clamp it inside the extent at full size.
        r0, c0 = world_to_cell(pose_xy[0] - half, pose_xy[1] - half, gm.origin, resolution)
        c0 = min(max(int(c0), 0), total_c - n)
        r0 = min(max(int(r0), 0), total_r - n)
        xs, ys = cell_center(np.arange(r0, r0 + n), np.arange(c0, c0 + n), gm.origin, resolution)
        src_r, src_c = world_to_cell(xs, ys, gm.origin, gm.cell_size)
        src_c = np.clip(src_c, 0, gm.cols - 1)
        src_r = np.clip(src_r, 0, gm.rows - 1)
        block = gm.values[np.ix_(src_r, src_c)].copy()
        origin = (gm.origin[0] + c0 * resolution, gm.origin[1] + r0 * resolution)
        return CostGrid(block, origin, resolution)

    # -- collision checks ------------------------------------------------------

    def collision_check_tick(self, active_path: Path | None, mode: NavMode) -> ReplanReason | None:
        """1 Hz check of the active path against the global map."""
        if active_path is None:
            return None
        if path_collides(active_path, self.global_map):
            return ReplanReason.COLLISION
        if mode is NavMode.CONSERVATIVE and path_cost(active_path, self.global_map) > COST_REPLAN_TOLERANCE:
            return ReplanReason.COST_TOLERANCE
        return None

    # -- dump -------------------------------------------------------------------

    def dump(self, out_dir) -> None:
        """Write the value graymap, source-mode overlay, and metadata."""
        out = FsPath(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        gm = self.global_map
        pixels = np.where(gm.values < 0, 255, gm.values).astype(np.uint8)
        pgmio.write_pgm(out / "global_cost.pgm", pixels, maxval=255)
        colors = np.full((len(NavMode) + 1, 3), NO_SOURCE_COLOR, dtype=np.uint8)
        for mode in NavMode:
            colors[mode.priority] = MODE_COLORS[mode.value]
        pgmio.write_ppm(out / "global_source.ppm", colors[self.source])
        meta = {
            "origin": list(gm.origin),
            "cell_size": gm.cell_size,
            "unknown_pixel": 255,
            "source_codes": {"none": 0, **{mode.value: mode.priority for mode in NavMode}},
        }
        (out / MAP_META).write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")


def load_global_map(dump_dir) -> CostGrid:
    """The global costmap that `MapServer.dump` wrote to `dump_dir`."""
    meta_path = FsPath(dump_dir) / MAP_META
    with malformed_input(str(meta_path)):
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        unknown, origin, cell_size = meta["unknown_pixel"], tuple(meta["origin"]), float(meta["cell_size"])
    pgm_path = FsPath(dump_dir) / "global_cost.pgm"
    with malformed_input(str(pgm_path)):
        pixels, _ = pgmio.read_pgm(pgm_path)
    values = pixels.astype(np.int16)
    values[pixels == unknown] = COST_UNKNOWN
    return CostGrid(values, origin, cell_size)
