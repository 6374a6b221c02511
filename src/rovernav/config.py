"""Mission configuration: scenario presets, config files, scene assembly.

A mission config is a JSON object; every key is optional except `terrain`.
`config_reference()` renders the full key table with defaults, which the
CLI exposes so the file format stays self-documenting. The functions below
take a config as `load_mission_config` returns it, numbers converted.
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
from .waypoints import DEFAULT_WAYPOINT_SPACING, load_waypoints, plan_waypoints
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
    if not isinstance(kind, str) or kind not in _PRESET_PARAMS:
        raise MissionConfigError(f"unknown terrain preset {kind!r}")
    return TerrainSpec(extent=extent, cell_size=cell_size, seed=seed, **_PRESET_PARAMS[kind])


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
    west-to-east course.

    It builds the same scene as the config path: `scene_from_config` on
    {"terrain": {"preset": kind} (or {"presets": MIXED_SEQUENCE} for
    'mixed'), "seed": seed}.
    """
    terrain = {"presets": list(MIXED_SEQUENCE)} if kind == "mixed" else {"preset": kind}
    cfg = {"terrain": terrain, "seed": seed, "sensor_sigma": sensor_sigma}
    if waypoint_spacing is not None:
        cfg["waypoint_spacing"] = waypoint_spacing
    return scene_from_config(cfg)


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
    ("classifier", "mock", "Terrain classifier backend: mock | geometric | vlm. It also "
     "drives the adaptive run of `compare`."),
    ("mode", "auto", "auto (classifier-driven) or a forced mode: "
     "efficient | safe | conservative."),
    ("vlm_endpoint", None, "Endpoint URL for the vlm classifier (required with it)."),
    ("vlm_timeout_s", 10.0, "Request timeout for the vlm classifier, seconds."),
    ("sensor_sigma", 0.0, "Std-dev of elevation sensing noise, meters; `compare` "
     "applies it to both of its runs."),
    ("speeds", [2.0, 0.8, 0.5], "Path-following speed caps [efficient, safe, "
     "conservative], m/s."),
    ("waypoint_spacing", "auto: 30 m on the challenging preset, 20 m otherwise",
     "Arc spacing of auto-generated waypoints, meters."),
    ("reference_speedup", 1.795, "Benchmark speedup target shown in comparison "
     "reports."),
]

_KNOWN_KEYS = {k for k, _, _ in CONFIG_KEYS}


def _xy(point) -> list[float]:
    x, y = point
    return [float(x), float(y)]


def _xy_or_auto(value):
    """The string "auto", or an [x, y] pair as floats."""
    return value if value == "auto" else _xy(value)


_NUMBER_KEYS = {"seed": int, "sensor_sigma": float, "waypoint_spacing": float, "vlm_timeout_s": float,
                "reference_speedup": float, "speeds": lambda values: [float(v) for v in values],
                "start": _xy_or_auto, "goal": _xy_or_auto}

_SPEC_KEYS = {f.name for f in fields(TerrainSpec)}


def config_reference() -> str:
    lines = ["Mission configuration keys (JSON object):", ""]
    for key, default, doc in CONFIG_KEYS:
        lines.append(f"  {key}")
        lines.append(f"      default: {default if isinstance(default, str) else json.dumps(default)}")
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
        raise MissionConfigError(f"{p}: config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise MissionConfigError("config must be a JSON object")
    unknown = set(cfg.keys()) - _KNOWN_KEYS
    if unknown:
        raise MissionConfigError(f"unknown config keys: {sorted(unknown)}")
    if "terrain" not in cfg:
        raise MissionConfigError("config requires a 'terrain' section")
    terrain = cfg["terrain"] if isinstance(cfg["terrain"], dict) else {}
    waypoints = cfg["waypoints"] if isinstance(cfg.get("waypoints"), dict) else {}
    for holder, key, kind in [*((cfg, k, f) for k, f in _NUMBER_KEYS.items()), (terrain, "seed", int),
                              (waypoints, "points", lambda points: [_xy(p) for p in points])]:
        if key in holder:
            try:
                holder[key] = kind(holder[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise MissionConfigError(f"bad value for {key!r}: {exc}") from exc
    return cfg


def terrain_from_config(cfg: dict) -> Terrain:
    t = cfg["terrain"]
    if not isinstance(t, dict):
        raise MissionConfigError("'terrain' must be an object")
    seed = t.get("seed", cfg.get("seed", 0))
    for key in ("presets", "specs"):
        if key in t and not isinstance(t[key], list):
            raise MissionConfigError(f"terrain {key!r} must be a list, not {t[key]!r}")
    try:
        if "preset" in t:
            return build_terrain(preset_spec(t["preset"], seed))
        if "presets" in t:
            return build_mixed_terrain([preset_spec(kind, seed * 31 + i)
                                        for i, kind in enumerate(t["presets"])])
        if "specs" in t:
            return build_mixed_terrain([_spec_from_config(d) for d in t["specs"]])
        if "load" in t:
            return load_terrain(t["load"])
    except (ValidationError, FileNotFoundError) as exc:
        raise MissionConfigError(f"bad terrain section: {exc}") from exc
    raise MissionConfigError("terrain needs one of: preset, presets, specs, load")


def _spec_from_config(d: dict) -> TerrainSpec:
    if not isinstance(d, dict):
        raise MissionConfigError(f"terrain spec must be an object, not {d!r}")
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
    """The scene a mission config describes: terrain with cleared and
    flattened departure and arrival sites, world, waypoints and start pose."""
    terrain = terrain_from_config(cfg)
    seed = cfg.get("seed", 0)
    start_xy = tuple(cfg["start"]) if isinstance(cfg.get("start"), list) else (
        COURSE_MARGIN, terrain.extent_y / 2.0)
    goal_xy = tuple(cfg["goal"]) if isinstance(cfg.get("goal"), list) else (
        terrain.extent_x - COURSE_MARGIN, terrain.extent_y / 2.0)
    queue = None
    wp = cfg.get("waypoints", "auto")
    if isinstance(wp, dict):
        if "file" in wp:
            queue = load_waypoints(wp["file"])
        elif "points" in wp:
            queue = WaypointQueue([(x, y) for x, y in wp["points"]])
        else:
            raise MissionConfigError("waypoints object needs 'file' or 'points'")
    elif wp != "auto":
        raise MissionConfigError("waypoints must be \"auto\" or an object")
    # departure and arrival areas: no rocks, gentle ground
    terrain.rocks.rocks = [
        rock for rock in terrain.rocks.rocks
        if math.hypot(rock.x - start_xy[0], rock.y - start_xy[1]) > SPAWN_CLEARING + rock.radius
        and math.hypot(rock.x - goal_xy[0], rock.y - goal_xy[1]) > SPAWN_CLEARING + rock.radius
    ]
    _flatten_site(terrain, start_xy[0], start_xy[1], SPAWN_FLATTEN)
    _flatten_site(terrain, goal_xy[0], goal_xy[1], SPAWN_FLATTEN)
    world = World(terrain, sensor_sigma=cfg.get("sensor_sigma", 0.0), seed=seed)
    if queue is None:
        # The coarse route model is the bare ground layer: an orbital
        # elevation product resolves hills, not meter-scale boulders.
        spacing = cfg.get("waypoint_spacing",
                          SCENARIO_SPACING.get(cfg["terrain"].get("preset"), DEFAULT_WAYPOINT_SPACING))
        queue = plan_waypoints(terrain.ground, start_xy, goal_xy, spacing=spacing)
    heading = math.atan2(goal_xy[1] - start_xy[1], goal_xy[0] - start_xy[0])
    return SceneBundle(terrain, world, queue, RoverState(start_xy[0], start_xy[1], heading), goal_xy)


def mode_config_from(cfg: dict) -> ModeConfig:
    speeds = cfg.get("speeds", [2.0, 0.8, 0.5])
    if len(speeds) != 3:
        raise MissionConfigError("speeds must list three values")
    return ModeConfig(speed_efficient=speeds[0], speed_safe=speeds[1], speed_conservative=speeds[2])


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
        return VlmClassifierBackend(VlmConfig(url, cfg.get("vlm_timeout_s", 10.0)))
    raise MissionConfigError(f"unknown classifier {name!r}")


def forced_mode_from(cfg: dict) -> NavMode | None:
    mode = cfg.get("mode", "auto")
    if mode == "auto":
        return None
    try:
        return NavMode(mode)
    except ValueError as exc:
        raise MissionConfigError(f"unknown mode {mode!r}") from exc
