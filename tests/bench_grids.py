"""Microbenchmarks of the two plane fits and of ground sampling, with
pytest-benchmark.

The file name keeps it out of the default test run; run it with
`python -m pytest tests/bench_grids.py`.
"""

import math

import numpy as np

from rovernav.config import build_scene
from rovernav.grids import bilinear_sample, plane_fit_grid, plane_fit_points
from rovernav.world import FOOTPRINT_RADIUS


def test_plane_fit_grid_246_window_47(benchmark):
    # The costmap grid of a conservative-mode tick: 246 x 246 cells of 0.1 m,
    # a 4.6 m fit window, about 5% of cells unknown.
    rng = np.random.default_rng(0)
    ys, xs = np.mgrid[0:246, 0:246] * 0.1
    z = 0.05 * xs - 0.02 * ys + rng.normal(0.0, 0.02, xs.shape)
    z[rng.random(xs.shape) < 0.05] = np.nan
    a, b, c, rms, count = benchmark(plane_fit_grid, z, 47, 0.1)
    assert np.allclose(a[100:140, 100:140], 0.05, atol=0.01)


def test_plane_fit_points_tilt_pattern(benchmark):
    # The 17 points of the footprint tilt check: the center plus two rings of
    # eight, far from the origin as on a long course.
    angles = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    dx = np.concatenate([[0.0], 0.5 * FOOTPRINT_RADIUS * np.cos(angles), FOOTPRINT_RADIUS * np.cos(angles)])
    dy = np.concatenate([[0.0], 0.5 * FOOTPRINT_RADIUS * np.sin(angles), FOOTPRINT_RADIUS * np.sin(angles)])
    xs, ys = 480.0 + dx, 70.0 + dy
    points = np.column_stack([xs, ys, 0.1 * xs + 0.3 * ys])
    a, b, _ = benchmark(plane_fit_points, points)
    assert math.isclose(a, 0.1) and math.isclose(b, 0.3)


def test_bilinear_sample_strip_lattice_mixed(benchmark):
    # The ground under one sensed costmap strip, 326 x 66 cells of 0.1 m
    # (270 x 10 built cells and the 2.8 m feature margin), on the mixed
    # course's 280 x 1120 ground of 0.5 m cells: wide enough that reading
    # whole ground rows instead of the sampled cells would show.
    ground = build_scene("mixed", 0).world.terrain.ground
    assert ground.elevation.shape == (280, 1120)
    xs = 300.0 + (np.arange(66) + 0.5) * 0.1
    ys = 60.0 + (np.arange(326) + 0.5) * 0.1
    z = benchmark(bilinear_sample, ground.elevation, ground.origin, ground.cell_size, xs[None, :], ys[:, None])
    assert z.shape == (326, 66) and np.isfinite(z).all()
