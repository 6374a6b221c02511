"""Microbenchmark of the path tracker's step, with pytest-benchmark.

The file name keeps it out of the default test run; run it with
`python -m pytest tests/bench_control.py`. The path is a fast-mode B-spline
of a 20 m waypoint leg at 0.5 m spacing, the kind `PathTracker` steps along
at 10 Hz, and the rover sits beside its middle.
"""

import math

from rovernav.control import pure_pursuit
from rovernav.planning import bspline_path
from rovernav.world import RoverState


def test_pure_pursuit(benchmark):
    path = bspline_path((10.0, 10.0), (28.0, 18.0), 0.3)
    mid = len(path) // 2
    x, y = path.points[mid]
    state = RoverState(float(x), float(y) + 0.3, math.atan2(8.0, 18.0), speed=2.0)
    cmd, closest = benchmark(pure_pursuit, state, path, 2.0, mid - 5)
    assert cmd.linear == 2.0 and closest >= mid - 5
