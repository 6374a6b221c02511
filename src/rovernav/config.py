"""Mission configuration: scenario presets, config files, scene assembly.

A mission config is a JSON object; every key is optional except `terrain`.
`config_reference()` renders the full key table with defaults, which the
CLI exposes so the file format stays self-documenting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path as FsPath

from .classify import VlmConfig
from .errors import MissionConfigError, ValidationError
from .grids import cell_center
from .map_server import WaypointQueue
from .mission import (
    GeometricClassifierBackend,
    MockClassifierBackend,
    ModeConfig,
    VlmClassifierBackend,
)
from .modes import NavMode, TerrainClass
from .terrain import Terrain, TerrainSpec, build_mixed_terrain, build_terrain, load_terrain, spec_from_dict
from .waypoints import load_waypoints, plan_waypoints
from .world import RoverState, World

# Tuned scenario presets. Tile side and cell size are shared so tiles can
# splice into mixed courses.
TILE_EXTENT = 140.0
TILE_CELL = 0.5

_PRESET_PARAMS = {
    "flat": dict(octaves=3, lacunarity=1.0, height_variation=0.2, rock_coverage=0.0,
                 ground_truth_class=TerrainClass.FLAT),
    "rocky": dict(octaves=3, lacunarity=1.0, height_variation=0.5, rock_coverage=0.045,
                  ground_truth_class=TerrainClass.ROCKY),
    "challenging": dict(octaves=2, lacunarity=1.5, height_variation=16.0, rock_coverage=0.035,
                        ground_truth_class=TerrainClass.CHALLENGING),
}

MIXED_SEQUENCE = ("flat", "flat", "rocky", "challenging")
COURSE_MARGIN = 15.0


def preset_spec(kind: str, seed: int, extent: float = TILE_EXTENT,
                cell_size: float = TILE_CELL) -> TerrainSpec:
    if kind not in _PRESET_PARAMS:
        raise MissionConfigError(f"unknown terrain preset {kind!r}")
    return TerrainSpec(extent=extent, cell_size=cell_size, seed=seed, **_PRESET_PARAMS[kind])


def mixed_specs(seed: int) -> list[TerrainSpec]:
    """Tile sequence for the long mixed course (flat, flat, rocky, challenging)."""
    return [
        preset_spec(kind, seed * 31 + i)
        for i, kind in enumerate(MIXED_SEQUENCE)
    ]


@dataclass
class SceneBundle:
    terrain: Terrain
    world: World
    waypoints: WaypointQueue
    start: RoverState
    goal: tuple[float, float]


# Waypoints thin out on the steep scenario: wider legs keep the straight-
# chord followers honest while the costmap planner replans within each leg.
SCENARIO_SPACING = {"challenging": 30.0}


def build_scene(kind: str, seed: int, sensor_sigma: float = 0.0,
                waypoint_spacing: float | None = None) -> SceneBundle:
    """Standard scene for a preset kind ('flat', 'rocky', 'challenging',
    'mixed'): terrain, world, auto waypoints from the coarse model, and a
    west-to-east course."""
    if waypoint_spacing is None:
        waypoint_spacing = SCENARIO_SPACING.get(kind, 20.0)
    if kind == "mixed":
        terrain = build_mixed_terrain(mixed_specs(seed))
    else:
        terrain = build_terrain(preset_spec(kind, seed))
    return _assemble(terrain, seed, sensor_sigma, waypoint_spacing)


SPAWN_CLEARING = 8.0
SPAWN_FLATTEN = 12.0


def _flatten_site(terrain: Terrain, cx: float, cy: float, radius: float) -> None:
    """Blend the ground toward its local mean around an operations site."""
    import numpy as np

    g = terrain.ground
    gx, gy = np.meshgrid(*cell_center(np.arange(g.rows), np.arange(g.cols), g.origin, g.cell_size))
    d = np.hypot(gx - cx, gy - cy)
    inside = d < radius
    if not inside.any():
        return
    level = float(g.elevation[inside].mean())
    t = np.clip(d / radius, 0.0, 1.0)
    blend = t * t * (3.0 - 2.0 * t)
    g.elevation[:] = np.where(inside, level + (g.elevation - level) * blend, g.elevation)


def _assemble(terrain: Terrain, seed: int, sensor_sigma: float, waypoint_spacing: float,
              start_xy=None, goal_xy=None, queue: WaypointQueue | None = None) -> SceneBundle:
    start_xy = start_xy or (COURSE_MARGIN, terrain.extent_y / 2.0)
    goal_xy = goal_xy or (terrain.extent_x - COURSE_MARGIN, terrain.extent_y / 2.0)
    # departure and arrival areas: no rocks, gentle ground
    terrain.rocks.rocks = [
        rock for rock in terrain.rocks.rocks
        if math.hypot(rock.x - start_xy[0], rock.y - start_xy[1]) > SPAWN_CLEARING + rock.radius
        and math.hypot(rock.x - goal_xy[0], rock.y - goal_xy[1]) > SPAWN_CLEARING + rock.radius
    ]
    _flatten_site(terrain, start_xy[0], start_xy[1], SPAWN_FLATTEN)
    _flatten_site(terrain, goal_xy[0], goal_xy[1], SPAWN_FLATTEN)
    world = World(terrain, sensor_sigma=sensor_sigma, seed=seed)
    if queue is None:
        # The coarse route model is the bare ground layer: an orbital
        # elevation product resolves hills, not meter-scale boulders.
        queue = plan_waypoints(terrain.ground, start_xy, goal_xy, spacing=waypoint_spacing)
    heading = math.atan2(goal_xy[1] - start_xy[1], goal_xy[0] - start_xy[0])
    start = RoverState(start_xy[0], start_xy[1], heading)
    return SceneBundle(terrain, world, queue, start, goal_xy)


# --- config files -------------------------------------------------------------

CONFIG_KEYS = [
    ("terrain", "(required)", "Terrain source: {\"preset\": name, \"seed\": n}, "
     "{\"presets\": [names...], \"seed\": n} for a mixed course, "
     "{\"specs\": [spec objects]}, or {\"load\": dir} for an exported terrain."),
    ("seed", 0, "Master seed for sensing noise and the mock classifier."),
    ("start", "auto", "Rover start [x, y]; default 15 m inside the west edge."),
    ("goal", "auto", "Mission goal [x, y]; default 15 m inside the east edge."),
    ("waypoints", "auto", "\"auto\" (coarse-model route), {\"file\": path}, or "
     "{\"points\": [[x, y], ...]}."),
    ("classifier", "mock", "Terrain classifier backend: mock | geometric | vlm."),
    ("mode", "auto", "auto (classifier-driven) or a forced mode: "
     "efficient | safe | conservative."),
    ("vlm_endpoint", None, "Endpoint URL for the vlm classifier (required with it)."),
    ("vlm_timeout_s", 10.0, "Request timeout for the vlm classifier, seconds."),
    ("sensor_sigma", 0.0, "Std-dev of elevation sensing noise, meters."),
    ("speeds", [2.0, 0.8, 0.5], "Path-following speed caps [efficient, safe, "
     "conservative], m/s."),
    ("waypoint_spacing", 20.0, "Arc spacing of auto-generated waypoints, meters."),
    ("reference_speedup", 1.795, "Benchmark speedup target shown in comparison "
     "reports."),
]

_KNOWN_KEYS = {k for k, _, _ in CONFIG_KEYS}

_SPEC_KEYS = {f.name for f in fields(TerrainSpec)}


def config_reference() -> str:
    lines = ["Mission configuration keys (JSON object):", ""]
    for key, default, doc in CONFIG_KEYS:
        lines.append(f"  {key}")
        lines.append(f"      default: {json.dumps(default) if default != '(required)' else '(required)'}")
        lines.append(f"      {doc}")
        lines.append("")
    return "\n".join(lines)


def load_mission_config(path) -> dict:
    p = FsPath(path)
    if not p.exists():
        raise MissionConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MissionConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise MissionConfigError("config must be a JSON object")
    unknown = set(cfg.keys()) - _KNOWN_KEYS
    if unknown:
        raise MissionConfigError(f"unknown config keys: {sorted(unknown)}")
    if "terrain" not in cfg:
        raise MissionConfigError("config requires a 'terrain' section")
    return cfg


def terrain_from_config(cfg: dict) -> Terrain:
    t = cfg["terrain"]
    if not isinstance(t, dict):
        raise MissionConfigError("'terrain' must be an object")
    seed = int(t.get("seed", cfg.get("seed", 0)))
    try:
        if "preset" in t:
            return build_terrain(preset_spec(t["preset"], seed))
        if "presets" in t:
            specs = [preset_spec(kind, seed * 31 + i) for i, kind in enumerate(t["presets"])]
            return build_mixed_terrain(specs)
        if "specs" in t:
            specs = [_spec_from_config(d) for d in t["specs"]]
            if len(specs) == 1:
                return build_terrain(specs[0])
            return build_mixed_terrain(specs)
        if "load" in t:
            return load_terrain(t["load"])
    except (ValidationError, FileNotFoundError, KeyError) as exc:
        raise MissionConfigError(f"bad terrain section: {exc}") from exc
    raise MissionConfigError("terrain needs one of: preset, presets, specs, load")


def _spec_from_config(d: dict) -> TerrainSpec:
    unknown = set(d.keys()) - _SPEC_KEYS
    if unknown:
        raise MissionConfigError(f"unknown terrain spec keys: {sorted(unknown)}")
    try:
        return spec_from_dict(d)
    except KeyError as exc:
        raise MissionConfigError(f"terrain spec missing key: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise MissionConfigError(f"bad terrain spec value: {exc}") from exc


def scene_from_config(cfg: dict) -> SceneBundle:
    terrain = terrain_from_config(cfg)
    seed = int(cfg.get("seed", 0))
    start_xy = tuple(cfg["start"]) if isinstance(cfg.get("start"), list) else None
    goal_xy = tuple(cfg["goal"]) if isinstance(cfg.get("goal"), list) else None
    queue = None
    wp = cfg.get("waypoints", "auto")
    if isinstance(wp, dict):
        if "file" in wp:
            queue = load_waypoints(wp["file"])
        elif "points" in wp:
            queue = WaypointQueue([(float(x), float(y)) for x, y in wp["points"]])
        else:
            raise MissionConfigError("waypoints object needs 'file' or 'points'")
    elif wp != "auto":
        raise MissionConfigError("waypoints must be \"auto\" or an object")
    return _assemble(
        terrain, seed,
        sensor_sigma=float(cfg.get("sensor_sigma", 0.0)),
        waypoint_spacing=float(cfg.get("waypoint_spacing", 20.0)),
        start_xy=start_xy, goal_xy=goal_xy, queue=queue,
    )


def mode_config_from(cfg: dict) -> ModeConfig:
    speeds = cfg.get("speeds", [2.0, 0.8, 0.5])
    if len(speeds) != 3:
        raise MissionConfigError("speeds must list three values")
    return ModeConfig(
        speed_efficient=float(speeds[0]),
        speed_safe=float(speeds[1]),
        speed_conservative=float(speeds[2]),
    )


def classifier_from_config(cfg: dict, seed: int):
    name = cfg.get("classifier", "mock")
    if name == "mock":
        return MockClassifierBackend(seed)
    if name == "geometric":
        return GeometricClassifierBackend()
    if name == "vlm":
        url = cfg.get("vlm_endpoint")
        if not url:
            raise MissionConfigError("vlm classifier requires 'vlm_endpoint'")
        return VlmClassifierBackend(VlmConfig(url, float(cfg.get("vlm_timeout_s", 10.0))))
    raise MissionConfigError(f"unknown classifier {name!r}")


def forced_mode_from(cfg: dict) -> NavMode | None:
    mode = cfg.get("mode", "auto")
    if mode == "auto":
        return None
    try:
        return NavMode(mode)
    except ValueError as exc:
        raise MissionConfigError(f"unknown mode {mode!r}") from exc
