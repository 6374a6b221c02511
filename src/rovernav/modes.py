"""Terrain classes and navigation modes.

Each terrain class activates one navigation mode (`MODE_FOR_CLASS`), and
the modes are totally ordered by `NavMode.priority`: it decides which
mode's map data wins a merge conflict.
"""

from __future__ import annotations

import enum


class TerrainClass(enum.Enum):
    """Terrain complexity category: flat, rocky or challenging."""

    FLAT = "flat"
    ROCKY = "rocky"
    CHALLENGING = "challenging"


class NavMode(enum.Enum):
    """Navigation mode: efficient < safe < conservative (priority order)."""

    EFFICIENT = "efficient"
    SAFE = "safe"
    CONSERVATIVE = "conservative"

    @property
    def priority(self) -> int:
        return _MODE_PRIORITY[self]


_MODE_PRIORITY = {
    NavMode.EFFICIENT: 1,
    NavMode.SAFE: 2,
    NavMode.CONSERVATIVE: 3,
}

# RGB colour of each mode, by mode name, wherever an image shows modes:
# trajectories (`render`) and the map's source overlay (`MapServer.dump`).
MODE_COLORS = {
    NavMode.EFFICIENT.value: (80, 200, 120),
    NavMode.SAFE.value: (245, 180, 60),
    NavMode.CONSERVATIVE.value: (205, 75, 75),
}

MODE_FOR_CLASS = {
    TerrainClass.FLAT: NavMode.EFFICIENT,
    TerrainClass.ROCKY: NavMode.SAFE,
    TerrainClass.CHALLENGING: NavMode.CONSERVATIVE,
}

# Class cutoffs on the (rock, slope) complexity scores, shared by the mock
# classifier and terrain-spec validation. The mock's rock score is
# ROCK_SCORE_GAIN x rock coverage; a slope score is an inclination over
# SLOPE_SCORE_FULL_DEG. Both scores clamp to [0, 1].
ROCK_SCORE_GAIN = 9.0
SLOPE_SCORE_FULL_DEG = 45.0
ROCK_SCORE_CUTOFF = 0.25
SLOPE_SCORE_CUTOFF = 0.5

# Class cutoffs of the geometric baseline on its raw metrics. They split
# the measured flat/rocky/challenging populations at their midpoints: flat
# patches measure ~0 rough cells against >=125 for rocky ones, and rocky
# patches stay below ~8 deg average slope against >=20 deg for challenging
# ones. Slope variance is deliberately unused; it overlaps between the
# rocky and challenging populations.
ROCKY_MIN_ROUGH_CELLS = 60.0
CHALLENGING_MIN_SLOPE_DEG = 14.0


def class_for_scores(rock: float, slope: float) -> TerrainClass:
    """Class of a (rock, slope) score pair: slope decides challenging first."""
    if slope >= SLOPE_SCORE_CUTOFF:
        return TerrainClass.CHALLENGING
    if rock >= ROCK_SCORE_CUTOFF:
        return TerrainClass.ROCKY
    return TerrainClass.FLAT
