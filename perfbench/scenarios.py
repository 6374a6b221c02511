"""Workload table, one timed mission, behaviour digest and run invariants.

Each workload is one closed-loop, single-threaded mission on a scene built by
`rovernav.config.build_scene`. The scene seed is part of the workload: the
work per simulated second differs by up to 2.6x between scene seeds (rocky,
forced conservative: 0.108 s/s on seed 0, 0.280 s/s on seed 1, 2-core host),
which no run short enough for repeated measurement can average out.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass

import rovernav.mission as mission_mod
from rovernav.config import build_scene
from rovernav.map_server import WaypointQueue
from rovernav.mission import MockClassifierBackend, ModeConfig, run_mission
from rovernav.modes import NavMode
from rovernav.world import TICK_DT

# Scene seed of every workload unless overridden on the command line. Seed 0
# is the seed of the measured baseline; it was not picked for outcomes, and
# its known mission failures stay visible.
DEFAULT_SCENE_SEED = 0


@dataclass(frozen=True)
class Workload:
    kind: str                   # build_scene preset
    forced_mode: str | None     # NavMode value, or None for classifier-driven
    waypoint_prefix: int | None  # keep only the first n auto waypoints
    why: str


WORKLOADS = {
    "mixed_adaptive": Workload(
        "mixed", None, None,
        "paper's mixed course (flat, flat, rocky, challenging), mock classifier, adaptive: "
        "per-tick path, obstacle mapping, mode switches and the longest set-up; no costmap",
    ),
    "rocky_conservative": Workload(
        "rocky", NavMode.CONSERVATIVE.value, 2,
        "rocky preset forced conservative, the paper's single-mode baseline: costmap build and "
        "cost A* at 0.1 m dominate; first 2 waypoints keep a mission near 5 s of host time",
    ),
    "challenging_adaptive": Workload(
        "challenging", None, None,
        "challenging preset, mock classifier, adaptive: safe and conservative alternate in the "
        "map-server merge and the planner fallback chain runs often",
    ),
}


@dataclass
class MissionRun:
    """Everything one mission produced that the benchmark looks at."""

    setup_s: float
    wall_s: float
    sim_s: float
    tick_ms: list          # host time between consecutive physics steps
    metrics: dict          # MissionMetrics.to_dict()
    digest: str
    violations: list       # broken run invariants, empty when all hold


def mission_digest(metrics: dict, trajectory: list) -> str:
    """sha256 of the mission's simulated outcome: metrics plus trajectory rows."""
    h = hashlib.sha256()
    h.update(json.dumps(metrics, sort_keys=True).encode())
    h.update(b"\n")
    h.update("\n".join(trajectory).encode())
    return h.hexdigest()


def check_invariants(metrics: dict, trajectory: list, steps: int, forced_mode: str | None,
                     config: ModeConfig = ModeConfig()) -> list:
    """Run invariants that hold for every mission, whatever its outcome."""
    bad = []
    if len(trajectory) != steps:
        bad.append(f"trajectory rows {len(trajectory)} != physics steps {steps}")
    # The loop counts every scheduled subsystem at the top of an iteration;
    # only a no_path ending leaves the loop before that iteration's step.
    iterations = steps + (1 if metrics["end_reason"] == "no_path" else 0)
    rates = {
        "classifier": config.classifier_rate, "obstacle_map": config.obstacle_rate,
        "costmap": config.costmap_rate, "collision": config.collision_rate,
        "control": config.control_rate,
    }
    expected = {name: (iterations - 1) // config.ticks(rate) + 1 for name, rate in rates.items()}
    if metrics["scheduler_counts"] != dict(sorted(expected.items())):
        bad.append(f"scheduler_counts {metrics['scheduler_counts']} != 20 Hz schedule {expected}")
    sim_s = steps * TICK_DT
    by_mode = metrics["time_by_mode"]
    if not math.isclose(sum(by_mode.values()), sim_s, rel_tol=1e-6, abs_tol=1e-6):
        bad.append(f"time_by_mode sums to {sum(by_mode.values())}, simulated time is {sim_s}")
    if forced_mode is not None and not math.isclose(by_mode[forced_mode], sim_s,
                                                    rel_tol=1e-6, abs_tol=1e-6):
        bad.append(f"forced {forced_mode} run spent {by_mode[forced_mode]} of {sim_s} s in it")
    return bad


class _StepProbe:
    """Stands in for `rovernav.mission.step`, stamping the host clock once per tick."""

    def __init__(self, step):
        self.step = step
        self.stamps: list[float] = []

    def __call__(self, *args, **kwargs):
        self.stamps.append(time.perf_counter())
        return self.step(*args, **kwargs)


def run_workload_once(name: str, scene_seed: int, build=build_scene) -> MissionRun:
    """Build the workload's scene and fly its mission once, timing both.

    `build` lets the traced run pass a span-wrapped `build_scene`.
    """
    wl = WORKLOADS[name]
    t0 = time.perf_counter()
    scene = build(wl.kind, scene_seed)
    setup_s = time.perf_counter() - t0

    queue = scene.waypoints
    if wl.waypoint_prefix is not None:
        queue = WaypointQueue(list(queue.points[: wl.waypoint_prefix]))
    forced = NavMode(wl.forced_mode) if wl.forced_mode else None
    classifier = None if forced else MockClassifierBackend(scene_seed)

    step = mission_mod.step
    probe = _StepProbe(step)
    mission_mod.step = probe
    try:
        t1 = time.perf_counter()
        result = run_mission(scene.world, queue, classifier, forced_mode=forced, start=scene.start)
        wall_s = time.perf_counter() - t1
    finally:
        mission_mod.step = step

    metrics = result.metrics.to_dict()
    stamps = probe.stamps
    tick_ms = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
    return MissionRun(
        setup_s=setup_s,
        wall_s=wall_s,
        sim_s=len(stamps) * TICK_DT,
        tick_ms=tick_ms,
        metrics=metrics,
        digest=mission_digest(metrics, result.trajectory),
        violations=check_invariants(metrics, result.trajectory, len(stamps), wl.forced_mode),
    )
