import numpy as np
import pytest

from rovernav.modes import TerrainClass
from rovernav.terrain import HeightField, Terrain, TerrainSegment, TerrainSpec


def make_spec(**overrides):
    base = dict(
        octaves=3,
        lacunarity=1.0,
        height_variation=0.2,
        rock_coverage=0.01,
        extent=100.0,
        cell_size=0.5,
        seed=42,
        ground_truth_class=TerrainClass.FLAT,
    )
    base.update(overrides)
    return TerrainSpec(**base)


def flat_terrain(extent=60.0, cell=0.5, elevation=0.0):
    n = round(extent / cell)
    fld = HeightField(np.full((n, n), float(elevation)), (0.0, 0.0), cell)
    spec = make_spec(extent=extent, cell_size=cell, height_variation=0.0, rock_coverage=0.0)
    return Terrain(fld, [], [TerrainSegment(0.0, extent, spec)])


def plane_terrain(slope_deg, extent=60.0, cell=0.5, axis="x"):
    """Analytic inclined plane terrain."""
    n = round(extent / cell)
    coords = (np.arange(n) + 0.5) * cell
    gx, gy = np.meshgrid(coords, coords)
    g = gx if axis == "x" else gy
    z = np.tan(np.radians(slope_deg)) * g
    fld = HeightField(z, (0.0, 0.0), cell)
    spec = make_spec(extent=extent, cell_size=cell, height_variation=float(z.max()),
                     rock_coverage=0.0)
    return Terrain(fld, [], [TerrainSegment(0.0, extent, spec)])


def full_grid(elevation: np.ndarray, cell=0.5, origin=(0.0, 0.0)) -> HeightField:
    return HeightField(np.array(elevation, dtype=float), origin, cell)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
