"""Plain-pixmap rendering of terrain and trajectories.

Everything draws into (H, W, 3) uint8 arrays written as binary P6 files,
so outputs stay diffable and dependency-free. Row 0 of the arrays is the
minimum-y edge; viewers show the world flipped, which is fine for
diagnostics. The map's cost image is drawn where the map is written, by
`MapServer.dump`.
"""

from __future__ import annotations

import numpy as np

from . import grids
from .modes import MODE_COLORS
from .terrain import HeightField, Terrain
from .world import RoverState


def hillshade(fld: HeightField) -> np.ndarray:
    """Lambertian shading with light from the north-west, uint8."""
    shade = grids.hillshade(fld.elevation, fld.cell_size)
    lo, hi = float(shade.min()), float(shade.max())
    if hi - lo < 1e-12:
        return np.full(fld.elevation.shape, 180, dtype=np.uint8)
    return (40 + 200 * (shade - lo) / (hi - lo)).astype(np.uint8)


def render_terrain(terrain: Terrain) -> np.ndarray:
    """Shaded relief of the full surface, tinted rust like dry regolith."""
    gray = hillshade(terrain.full_field()).astype(float)
    rgb = np.stack([gray * 0.95, gray * 0.62, gray * 0.45], axis=-1)
    return np.clip(rgb, 0, 255).astype(np.uint8)


def draw_trajectory(image: np.ndarray, rows: list[tuple[RoverState, str]], origin,
                    cell_size: float) -> np.ndarray:
    """Overlay `world.read_trajectory` rows onto an image, colored by mode.

    Each point paints the 3x3 block around its cell, clipped to the image.
    """
    out = image.copy()
    for state, mode in rows:
        r, c = grids.world_to_cell(state.x, state.y, origin, cell_size)
        # both bounds clamp at 0: a negative stop would count from the far edge
        out[max(r - 1, 0):max(r + 2, 0), max(c - 1, 0):max(c + 2, 0)] = MODE_COLORS.get(mode, (255, 255, 255))
    return out
