import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from rovernav.config import build_scene
from rovernav.map_server import WaypointQueue
from rovernav.mapping import COST_MAX, CostGrid
from rovernav.mission import MissionRunner, MockClassifierBackend, run_mission
from rovernav.modes import NavMode
from rovernav.world import RoverState, World

from conftest import flat_terrain

# sha256 of json(metrics, sorted keys) + b"\n" + the trajectory rows, for the
# adaptive mock-classifier mission on build_scene(kind, 0). A change that
# moves one of these must explain why.
GOLDEN_DIGESTS = {
    "flat": "89664f7dc96d8248d3662bfa5477f1b85a00faf8a69bc70e4be3bfd34e85e9fb",
    "rocky": "8c9df14903c8d4c025ef410b9fcb3ee12865e3249601e0d658f017b92eef4046",
}

# Forced-conservative mission on build_scene("rocky", 0), first 2 auto
# waypoints, no classifier: the only digest that runs the costmap path.
CONSERVATIVE_DIGEST = "5ad6b2e404bbd4ece4846f0ed3cd4ceeb46bbde5377f0848999c98895eb2e5b2"

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def mission_digest(metrics: dict, trajectory: list) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(metrics, sort_keys=True).encode())
    h.update(b"\n")
    h.update("\n".join(trajectory).encode())
    return h.hexdigest()


def test_golden_digests():
    got = {}
    for kind in GOLDEN_DIGESTS:
        scene = build_scene(kind, 0)
        result = run_mission(scene.world, scene.waypoints, MockClassifierBackend(0), start=scene.start)
        got[kind] = mission_digest(result.metrics.to_dict(), result.trajectory)
    assert got == GOLDEN_DIGESTS


def test_golden_conservative_digest():
    scene = build_scene("rocky", 0)
    queue = WaypointQueue(list(scene.waypoints.points[:2]))
    result = run_mission(scene.world, queue, None, forced_mode=NavMode.CONSERVATIVE, start=scene.start)
    assert mission_digest(result.metrics.to_dict(), result.trajectory) == CONSERVATIVE_DIGEST


def _runner(x=20.0, y=20.0):
    world = World(flat_terrain())
    return MissionRunner(world, WaypointQueue([(40.0, 20.0)]), None, start=RoverState(x, y, 0.0))


def test_clear_breadcrumbs_clears_only_visited_cells():
    runner = _runner()
    grid = CostGrid(np.full((4, 4), COST_MAX, dtype=np.int16), (10.0, 10.0), 0.5)
    # inside: cell (2, 1); up to one cell left of / below the window: outside
    runner._breadcrumbs = [(10.7, 11.2), (9.8, 11.2), (11.2, 9.7), (9.9, 9.9)]
    runner._clear_breadcrumbs(grid)
    cleared = np.argwhere(grid.values < COST_MAX)
    assert cleared.tolist() == [[2, 1]]


def test_clear_start_clears_disc_under_rover():
    runner = _runner(x=10.5, y=10.5)
    grid = CostGrid(np.full((8, 8), COST_MAX, dtype=np.int16), (9.0, 9.0), 0.5)
    runner._clear_start(grid)
    rr, cc = np.nonzero(grid.values == 0)
    xs = 9.0 + (cc + 0.5) * 0.5
    ys = 9.0 + (rr + 0.5) * 0.5
    assert len(rr) > 0
    assert (np.hypot(xs - 10.5, ys - 10.5) <= runner.config.start_clear_radius).all()
    all_r, all_c = np.mgrid[0:8, 0:8]
    inside = np.hypot(9.0 + (all_c + 0.5) * 0.5 - 10.5,
                      9.0 + (all_r + 0.5) * 0.5 - 10.5) <= runner.config.start_clear_radius
    assert np.array_equal(grid.values == 0, inside)


def test_benchmark_targets_resolve(monkeypatch):
    # the benchmark wraps package functions by name; a rename must fail here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    shim = spans.Shim()
    assert len(shim.targets) == len(spans.TARGETS)
    tracer = spans.Tracer()
    shim.install(tracer)
    try:
        assert len(shim.unrestored()) == len(spans.TARGETS)
    finally:
        shim.restore()
    assert shim.unrestored() == []
