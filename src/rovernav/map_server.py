"""Global costmap ownership, priority merging, collision checks.

One server instance owns the mission-wide costmap, a `CostGrid` (0-100
traversal cost, -1 unknown), plus `source`, a per-cell record of which
navigation mode wrote it. Every local map arrives as the same `CostGrid`
type at the global map's own cell size: the mid-tier mode's obstacle map
(0 free, 100 obstacle) and the cautious mode's graded costmap, max-pooled
into global cells by the mission runner. Each merges in as one slice of the
global lattice under a strict priority rule: data from a more cautious
mode is never overwritten by a less cautious one. The server also runs the
periodic path collision check, straight on the global `CostGrid`, that
condemns a path with a lethal cell under it. The mission's route,
`WaypointQueue`, is defined here as its ordered points alone; the mission
runner keeps its own place along it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from .errors import ValidationError
from .grids import cell_center, world_to_cell
from .mapping import COST_MAX, COST_UNKNOWN, CostGrid
from .modes import MODE_COLORS, NavMode
from .planning import Path, first_lethal_point
from . import pgmio

GLOBAL_RESOLUTION = 0.5
NO_SOURCE_COLOR = (40, 40, 40)  # cells no mode wrote, in the source overlay
UNKNOWN_COLOR = (70, 90, 140)  # unknown cells, in the cost image


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

        The local map must have the global map's cell size; each of its
        cells writes the global cell that holds its centre, and cells off
        the map are dropped. Known local cells write only where the
        incoming mode's priority is >= the priority already recorded for
        the cell. Equal priority overwrites (newer data refines older data
        of the same mode) with one ratchet: a lethal cell is never
        downgraded at equal priority, because a later sensing window with
        the hazard outside its bounds would otherwise erase inflation
        margins written by an earlier, better-placed window. The fast mode
        performs no mapping, so its updates are no-ops. Returns the number
        of cells written.
        """
        gm = self.global_map
        if local.cell_size != gm.cell_size:
            raise ValidationError(f"local map cell size {local.cell_size} is not the global {gm.cell_size}")
        if mode is NavMode.EFFICIENT:
            return 0
        r0, c0 = map(int, world_to_cell(*cell_center(0, 0, local.origin, gm.cell_size), gm.origin, gm.cell_size))
        rows = slice(max(r0, 0), min(r0 + local.rows, gm.rows))
        cols = slice(max(c0, 0), min(c0 + local.cols, gm.cols))
        if rows.start >= rows.stop or cols.start >= cols.stop:
            return 0
        incoming = local.values[rows.start - r0:rows.stop - r0, cols.start - c0:cols.stop - c0]
        values, source = gm.values[rows, cols], self.source[rows, cols]
        downgrade = (values >= COST_MAX) & (mode.priority == source) & (incoming < COST_MAX)
        writable = (incoming >= 0) & (mode.priority >= source) & ~downgrade
        values[writable] = incoming[writable]
        source[writable] = mode.priority
        return int(np.count_nonzero(writable))

    # -- windows -------------------------------------------------------------

    def get_local_window(self, pose_xy, size: float) -> CostGrid:
        """Copy of the global map's cells over a window about `size` meters
        wide around the pose, clamped inside the map at full size. The copy
        never changes as the global map keeps updating.
        """
        if size <= 0:
            raise ValidationError("size must be positive")
        gm = self.global_map
        n = min(round(size / gm.cell_size), gm.cols, gm.rows)
        half = size / 2.0
        r0, c0 = world_to_cell(pose_xy[0] - half, pose_xy[1] - half, gm.origin, gm.cell_size)
        c0 = min(max(int(c0), 0), gm.cols - n)
        r0 = min(max(int(r0), 0), gm.rows - n)
        origin = (gm.origin[0] + c0 * gm.cell_size, gm.origin[1] + r0 * gm.cell_size)
        return CostGrid(gm.values[r0:r0 + n, c0:c0 + n].copy(), origin, gm.cell_size)

    # -- collision checks ------------------------------------------------------

    def collision_check_tick(self, path: Path) -> tuple[float, float] | None:
        """1 Hz check of the tracked path against the global map: the first
        path point on a lethal cell, which condemns the path, or None."""
        return first_lethal_point(path, self.global_map)

    # -- dump -------------------------------------------------------------------

    def dump(self, out_dir) -> None:
        """Write the value graymap, its colour image (gray cost, unknown in
        UNKNOWN_COLOR), the source-mode overlay, and metadata."""
        out = FsPath(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        gm = self.global_map
        unknown = gm.values < 0
        pixels = np.where(unknown, 255, gm.values).astype(np.uint8)
        pgmio.write_pgm(out / "global_cost.pgm", pixels, maxval=255)
        gray = np.clip(gm.values / 100.0 * 255.0, 0, 255).astype(np.uint8)
        rgb = np.repeat(gray[..., None], 3, axis=2)
        rgb[unknown] = UNKNOWN_COLOR
        pgmio.write_ppm(out / "global_cost.ppm", rgb)
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
        (out / "global_map.json").write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")
