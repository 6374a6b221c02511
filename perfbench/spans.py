"""Tracing shim: span wrappers around the layers' public entry points.

Wrappers are installed where the mission loop looks each name up, from the
benchmark's own files, so nothing under `src/` changes. Every target must
resolve when the shim is built, so a rename fails loudly instead of recording
zero calls. Wrappers re-raise every exception unchanged: the mission's
`NoPathError` fallback depends on it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

import numpy as np

# (module, attribute or Class.attribute, span name)
TARGETS = (
    ("rovernav.config", "build_terrain", "terrain.build_terrain"),
    ("rovernav.config", "build_mixed_terrain", "terrain.build_mixed_terrain"),
    ("rovernav.config", "plan_waypoints", "waypoints.plan_waypoints"),
    ("rovernav.mapping", "plane_fit_grid", "grids.plane_fit_grid"),
    ("rovernav.mission", "build_elevation_grid", "mapping.build_elevation_grid"),
    ("rovernav.mission", "extract_obstacles", "mapping.extract_obstacles"),
    ("rovernav.mission", "build_navigation_costmap", "mapping.build_navigation_costmap"),
    ("rovernav.mission", "cost_to_obstacle", "mapping.cost_to_obstacle"),
    ("rovernav.mission", "astar_obstacle", "planning.astar_obstacle"),
    ("rovernav.mission", "astar_cost", "planning.astar_cost"),
    ("rovernav.mission", "best_progress_path", "planning.best_progress_path"),
    ("rovernav.mission", "bspline_path", "planning.bspline_path"),
    ("rovernav.mission", "step", "world.step"),
    ("rovernav.world", "World.sense_points", "world.sense_points"),
    ("rovernav.world", "World.sense_elevation_patch", "world.sense_elevation_patch"),
    ("rovernav.world", "World.check_hazard", "world.check_hazard"),
    ("rovernav.map_server", "MapServer.update_from_local", "map_server.update_from_local"),
    ("rovernav.map_server", "MapServer.get_local_window", "map_server.get_local_window"),
    ("rovernav.map_server", "MapServer.collision_check_tick", "map_server.collision_check_tick"),
    ("rovernav.control", "PathTracker.step", "control.track_step"),
    ("rovernav.mission", "MockClassifierBackend.assess", "classify.assess"),
    ("rovernav.mission", "ModeSwitcher.update", "mission.mode_update"),
)

# Spans opened by the benchmark itself rather than by a wrapper.
BUILD_SCENE = "config.build_scene"
TICK = "mission.tick"

SPAN_NAMES = (BUILD_SCENE,) + tuple(name for _, _, name in TARGETS) + (TICK,)

# Spans whose wrapped callees are also wrapped; they report self time.
PARENT_SPANS = (
    BUILD_SCENE, "waypoints.plan_waypoints", "world.sense_points",
    "mapping.build_navigation_costmap", TICK,
)

# Where each layer's numbers should show up end to end, written down before
# any optimisation so a later claim can be checked against it.
EXPECTED_EFFECT = {
    "mapping.build_navigation_costmap": "wall_per_sim, tick_tail_ms, deadline_met_frac on "
                                        "rocky_conservative and challenging_adaptive; none on mixed_adaptive",
    "grids.plane_fit_grid": "wall_per_sim, tick_tail_ms, deadline_met_frac on rocky_conservative and "
                            "challenging_adaptive; on mixed_adaptive only setup_s (waypoint planning)",
    "mapping.extract_obstacles": "wall_per_sim, tick_tail_ms on mixed_adaptive; ~none on rocky_conservative",
    "map_server.update_from_local": "wall_per_sim, tick_tail_ms on mixed_adaptive; small on rocky_conservative",
    "planning.best_progress_path": "wall_per_sim, tick_tail_ms on challenging_adaptive; small on mixed_adaptive",
    "planning.astar_obstacle": "wall_per_sim, tick_tail_ms on challenging_adaptive; small on mixed_adaptive",
    "planning.astar_cost": "wall_per_sim, tick_tail_ms on challenging_adaptive; small on mixed_adaptive",
    "planning.direct_ratio": "wall_per_sim, tick_tail_ms on challenging_adaptive; small on mixed_adaptive",
    "world.check_hazard": "tick_p50_ms, wall_per_sim on mixed_adaptive; small share on rocky_conservative",
    "control.track_step": "tick_p50_ms, wall_per_sim on mixed_adaptive; small share on rocky_conservative",
    "mission.tick.self_ms": "tick_p50_ms, wall_per_sim on mixed_adaptive; small share on rocky_conservative",
    "terrain": "setup_s, most on mixed_adaptive (four tiles)",
    "waypoints.plan_waypoints": "setup_s, most on mixed_adaptive",
}


class ShimError(RuntimeError):
    """A traced entry point no longer resolves."""


def _resolve(module_name: str, attr: str):
    """Return (owner, attribute name, original) for a module or class attribute."""
    owner = importlib.import_module(module_name)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if not isinstance(owner, type):
            raise ShimError(f"{module_name}.{attr}: {cls} is not a class")
    # Class attributes are read from the class's own dict so restoring puts
    # back exactly what was there, never an inherited attribute.
    space = vars(owner)
    if name not in space or not callable(space[name]):
        raise ShimError(f"{module_name}.{attr} does not resolve to a callable")
    return owner, name, space[name]


class Tracer:
    """In-memory span recorder with a parent stack."""

    # Spans whose return value the ratios need; others drop it so the trace
    # does not keep every sensed patch and grid alive.
    KEEP_RESULT = ("map_server.collision_check_tick", "mission.mode_update")

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.raised: dict[int, str] = {}
        self.returned: dict[int, object] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        keep = name in self.KEEP_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[idx] = type(exc).__name__
                raise
            finally:
                self.close(idx)
            if keep:
                self.returned[idx] = out
            return out
        return traced


    def dump(self, path: Path) -> Path:
        """Write every span as one JSON line; times in ms from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        with path.open("w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parents[i],
                    "start_ms": round((self.starts[i] - t0) * 1e3, 4),
                    "end_ms": round((self.ends[i] - t0) * 1e3, 4),
                    "raised": self.raised.get(i),
                }) + "\n")
        return path


class Shim:
    """Resolves every target up front; installs span wrappers on demand."""

    def __init__(self, targets=TARGETS):
        self.targets = [(owner, attr, orig, span)
                        for module, path, span in targets
                        for owner, attr, orig in [_resolve(module, path)]]

    def install(self, tracer: Tracer) -> None:
        for owner, attr, orig, span in self.targets:
            setattr(owner, attr, tracer.wrap(span, orig))

    def restore(self) -> None:
        for owner, attr, orig, _ in self.targets:
            setattr(owner, attr, orig)

    def unrestored(self) -> list[str]:
        """Targets that do not hold their original callable right now."""
        return [f"{owner.__name__}.{attr}" for owner, attr, orig, _ in self.targets
                if vars(owner).get(attr) is not orig]


def layer_metrics(tracer: Tracer, tick_stamps: list) -> dict:
    """Per-layer metrics from the spans of one traced mission."""
    dur = [(e - s) * 1e3 for s, e in zip(tracer.starts, tracer.ends)]
    child_ms = [0.0] * len(dur)
    for i, p in enumerate(tracer.parents):
        if p >= 0:
            child_ms[p] += dur[i]

    by_name: dict[str, list[int]] = {name: [] for name in SPAN_NAMES}
    for i, n in enumerate(tracer.names):
        by_name[n].append(i)

    # mission.tick is the host time between consecutive physics steps; its
    # self time is what no top-level layer span inside that interval covers.
    top = sorted((tracer.starts[i], dur[i]) for i, p in enumerate(tracer.parents) if p < 0)
    tick_ms, tick_self = [], []
    j = 0
    for a, b in zip(tick_stamps, tick_stamps[1:]):
        while j < len(top) and top[j][0] < a:
            j += 1
        covered = 0.0
        while j < len(top) and top[j][0] < b:
            covered += top[j][1]
            j += 1
        tick_ms.append((b - a) * 1e3)
        tick_self.append(tick_ms[-1] - covered)

    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for name in SPAN_NAMES:
        d = tick_ms if name == TICK else [dur[i] for i in by_name[name]]
        put(f"{name}.calls", len(d), "count")
        put(f"{name}.total_ms", sum(d), "ms")
        put(f"{name}.p50_ms", np.percentile(d, 50) if d else 0.0, "ms")
        put(f"{name}.p95_ms", np.percentile(d, 95) if d else 0.0, "ms")
        if name in PARENT_SPANS:
            self_ms = sum(tick_self) if name == TICK else sum(dur[i] - child_ms[i] for i in by_name[name])
            put(f"{name}.self_ms", self_ms, "ms")

    failed = {n: sum(1 for i in by_name[n] if tracer.raised.get(i) == "NoPathError")
              for n in ("planning.astar_obstacle", "planning.astar_cost")}
    for n, count in failed.items():
        put(f"{n}.failed", count, "count")
    attempts = len(by_name["planning.astar_obstacle"]) + len(by_name["planning.astar_cost"])
    put("planning.direct_ratio", (attempts - sum(failed.values())) / attempts if attempts else 0.0, "ratio")

    checks = by_name["map_server.collision_check_tick"]
    replans = sum(1 for i in checks if tracer.returned[i] is not None)
    put("map_server.replan_ratio", replans / len(checks) if checks else 0.0, "ratio")

    modes = [tracer.returned[i] for i in by_name["mission.mode_update"]]
    put("classify.mode_switches", sum(1 for a, b in zip(modes, modes[1:]) if a is not b), "count")
    return out
