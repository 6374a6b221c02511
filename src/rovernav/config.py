"""Mission configuration: scenario presets, config files, scene assembly.

A mission config is a JSON object; every key is optional except `terrain`.
`CONFIG_KEYS` is the one schema and the only source of defaults: rows of
(key, default, converter, doc). `fill_config` checks and fills every
config with it, and `config_reference()` renders it for the CLI. The
functions below take a config as `fill_config` returns it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .classify import GeometricClassifierBackend, MockClassifierBackend, VlmClassifierBackend, VlmConfig
from .errors import MissionConfigError, ValidationError, VlmError, malformed_input, read_input_text
from .grids import cell_center
from .map_server import WaypointQueue
from .mission import ModeConfig
from .modes import NavMode, TerrainClass
from .terrain import (Terrain, TerrainSpec, build_mixed_terrain, build_terrain, load_terrain,
                      smoothstep, spec_from_dict)
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


def preset_spec(kind: str, seed: int) -> TerrainSpec:
    if not isinstance(kind, str) or kind not in _PRESET_PARAMS:
        raise MissionConfigError(f"unknown terrain preset {kind!r}")
    return TerrainSpec(extent=TILE_EXTENT, cell_size=TILE_CELL, seed=seed, **_PRESET_PARAMS[kind])


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


def build_scene(kind: str, seed: int) -> SceneBundle:
    """Standard scene for a preset kind ('flat', 'rocky', 'challenging',
    'mixed'): terrain, world, auto waypoints from the coarse model, and a
    west-to-east course.

    It builds the same scene as the config path: `scene_from_config` on
    {"terrain": {"preset": kind} (or {"presets": MIXED_SEQUENCE} for
    'mixed'), "seed": seed}, every other key at its default.
    """
    terrain = {"presets": list(MIXED_SEQUENCE)} if kind == "mixed" else {"preset": kind}
    return scene_from_config(fill_config({"terrain": terrain, "seed": seed}))


SPAWN_CLEARING = 8.0
SPAWN_FLATTEN = 12.0


def _flatten_site(terrain: Terrain, cx: float, cy: float, radius: float) -> None:
    """Blend the ground toward its local mean around an operations site."""
    g = terrain.ground
    gx, gy = np.meshgrid(*cell_center(np.arange(g.rows), np.arange(g.cols), g.origin, g.cell_size))
    d = np.hypot(gx - cx, gy - cy)
    inside = d < radius
    if not inside.any():
        return
    level = float(g.elevation[inside].mean())
    blend = smoothstep(d / radius)
    g.elevation[:] = np.where(inside, level + (g.elevation - level) * blend, g.elevation)


# --- config files -------------------------------------------------------------


def _xy(point) -> list[float]:
    x, y = point
    return [float(x), float(y)]


def _xy_or_auto(value):
    """The string "auto", or an [x, y] pair as floats."""
    return value if value == "auto" else _xy(value)


def _positive(value, zero_ok: bool = False) -> float:
    """A finite float > 0 (>= 0 if `zero_ok`)."""
    x = float(value)
    if not (math.isfinite(x) and (x > 0 or zero_ok and x == 0)):
        raise ValueError(f"{value!r} is not a finite number {'>=' if zero_ok else '>'} 0")
    return x


def _one_of(*names):
    def convert(value):
        if value not in names:
            raise ValueError(f"{value!r} is not one of: {', '.join(names)}")
        return value
    return convert


def _terrain(value) -> dict:
    sources = {"preset", "presets", "specs", "load"}
    keys = set(value) if isinstance(value, dict) else set()
    if len(keys & sources) != 1 or keys - sources - {"seed"}:
        raise ValueError(f"must be an object with one of preset, presets, specs, load, and optionally seed; "
                         f"not {value!r}")
    for key in ("presets", "specs"):
        if key in value and not isinstance(value[key], list):
            raise ValueError(f"{key!r} must be a list, not {value[key]!r}")
    return {**value, "seed": int(value["seed"])} if "seed" in value else value


def _waypoints(value):
    if value == "auto" or (isinstance(value, dict) and "file" in value):
        return value
    if isinstance(value, dict) and "points" in value:
        return {**value, "points": [_xy(p) for p in value["points"]]}
    raise ValueError("must be \"auto\", {\"file\": path} or {\"points\": [...]}")


def _speeds(values) -> list[float]:
    speeds = [_positive(v) for v in values]
    if len(speeds) != 3:
        raise ValueError("must list three values")
    ModeConfig(*speeds)  # checks that they decrease with severity
    return speeds


CONFIG_KEYS = [
    ("terrain", "(required)", _terrain, "Terrain source: {\"preset\": name, \"seed\": n}, "
     "{\"presets\": [names...], \"seed\": n} for a mixed course, "
     "{\"specs\": [spec objects]}, or {\"load\": dir} for an exported terrain."),
    ("seed", 0, int, "Master seed for sensing noise and the mock classifier."),
    ("start", "auto", _xy_or_auto, "Rover start [x, y]; default 15 m inside the west edge."),
    ("goal", "auto", _xy_or_auto, "Mission goal [x, y]; default 15 m inside the east edge."),
    ("waypoints", "auto", _waypoints, "\"auto\" (coarse-model route), {\"file\": path}, or "
     "{\"points\": [[x, y], ...]}."),
    ("classifier", "mock", _one_of("mock", "geometric", "vlm"), "Terrain classifier backend: "
     "mock | geometric | vlm. It also drives the adaptive run of `compare`."),
    ("mode", "auto", _one_of("auto", *(m.value for m in NavMode)), "auto (classifier-driven) or a "
     "forced mode: efficient | safe | conservative."),
    ("vlm_endpoint", None, lambda url: url if url is None else str(url),
     "Endpoint of the vlm classifier, an http or https URL (required with it)."),
    ("vlm_timeout_s", VlmConfig.timeout_s, _positive, "Request timeout for the vlm classifier, seconds."),
    ("sensor_sigma", 0.0, lambda sigma: _positive(sigma, zero_ok=True), "Std-dev of elevation sensing "
     "noise, meters; `compare` applies it to both of its runs."),
    ("speeds", tuple(f.default for f in fields(ModeConfig)), _speeds, "Path-following speed caps "
     "[efficient, safe, conservative], m/s."),
    ("waypoint_spacing", "auto", lambda value: value if value == "auto" else _positive(value),
     "Arc spacing of auto-generated waypoints, meters; auto: "
     + "".join(f"{m:g} m on the {kind} preset, " for kind, m in SCENARIO_SPACING.items())
     + f"{DEFAULT_WAYPOINT_SPACING:g} m otherwise."),
]

def config_reference() -> str:
    lines = ["Mission configuration keys (JSON object):", ""]
    for key, default, _, doc in CONFIG_KEYS:
        lines.append(f"  {key}")
        lines.append(f"      default: {default if isinstance(default, str) else json.dumps(default)}")
        lines.append(f"      {doc}")
        lines.append("")
    return "\n".join(lines)


def fill_config(cfg: dict) -> dict:
    """`cfg` checked against `CONFIG_KEYS`, as a new dict: unknown keys and
    a missing `terrain` are rejected, every given value is converted and
    range-checked, and every absent key takes its default."""
    unknown = set(cfg) - {key for key, *_ in CONFIG_KEYS}
    if unknown:
        raise MissionConfigError(f"unknown config keys: {sorted(unknown)}")
    if "terrain" not in cfg:
        raise MissionConfigError("config requires a 'terrain' section")
    filled = {}
    for key, default, convert, _ in CONFIG_KEYS:
        try:
            filled[key] = convert(cfg[key]) if key in cfg else default
        except (TypeError, ValueError, OverflowError) as exc:
            raise MissionConfigError(f"bad value for {key!r}: {exc}") from exc
    return filled


def load_mission_config(path) -> dict:
    try:
        cfg = json.loads(read_input_text(path))
    except json.JSONDecodeError as exc:
        raise MissionConfigError(f"{path}: config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise MissionConfigError("config must be a JSON object")
    return fill_config(cfg)


def terrain_from_config(cfg: dict) -> Terrain:
    t = cfg["terrain"]
    seed = t.get("seed", cfg["seed"])
    try:
        if "preset" in t:
            return build_terrain(preset_spec(t["preset"], seed))
        if "presets" in t:
            return build_mixed_terrain([preset_spec(kind, seed * 31 + i)
                                        for i, kind in enumerate(t["presets"])])
        if "specs" in t:
            with malformed_input("specs"):
                return build_mixed_terrain([spec_from_dict(d) for d in t["specs"]])
        return load_terrain(t["load"])
    except ValidationError as exc:
        raise MissionConfigError(f"bad terrain section: {exc}") from exc


def scene_from_config(cfg: dict) -> SceneBundle:
    """The scene a mission config describes: terrain with cleared and
    flattened departure and arrival sites, world, waypoints and start pose."""
    terrain = terrain_from_config(cfg)
    start_xy = (COURSE_MARGIN, terrain.extent_y / 2.0) if cfg["start"] == "auto" else tuple(cfg["start"])
    goal_xy = ((terrain.extent_x - COURSE_MARGIN, terrain.extent_y / 2.0) if cfg["goal"] == "auto"
               else tuple(cfg["goal"]))
    wp = cfg["waypoints"]
    queue = None
    if wp != "auto":
        queue = load_waypoints(wp["file"]) if "file" in wp else WaypointQueue(list(map(tuple, wp["points"])))
    # departure and arrival areas: no rocks, gentle ground
    terrain.rocks = [
        rock for rock in terrain.rocks
        if math.hypot(rock.x - start_xy[0], rock.y - start_xy[1]) > SPAWN_CLEARING + rock.radius
        and math.hypot(rock.x - goal_xy[0], rock.y - goal_xy[1]) > SPAWN_CLEARING + rock.radius
    ]
    _flatten_site(terrain, start_xy[0], start_xy[1], SPAWN_FLATTEN)
    _flatten_site(terrain, goal_xy[0], goal_xy[1], SPAWN_FLATTEN)
    world = World(terrain, sensor_sigma=cfg["sensor_sigma"], seed=cfg["seed"])
    if queue is None:
        # The coarse route model is the bare ground layer: an orbital
        # elevation product resolves hills, not meter-scale boulders.
        spacing = cfg["waypoint_spacing"]
        if spacing == "auto":
            spacing = SCENARIO_SPACING.get(cfg["terrain"].get("preset"), DEFAULT_WAYPOINT_SPACING)
        queue = plan_waypoints(terrain.ground, start_xy, goal_xy, spacing=spacing)
    heading = math.atan2(goal_xy[1] - start_xy[1], goal_xy[0] - start_xy[0])
    return SceneBundle(terrain, world, queue, RoverState(start_xy[0], start_xy[1], heading), goal_xy)


def mode_config_from(cfg: dict) -> ModeConfig:
    return ModeConfig(*cfg["speeds"])


def classifier_from_config(cfg: dict):
    """The configured classifier backend. A vlm classifier without an endpoint
    raises `VlmError`, and one with a malformed endpoint `ValidationError`."""
    name = cfg["classifier"]
    if name == "mock":
        return MockClassifierBackend(cfg["seed"])
    if name == "geometric":
        return GeometricClassifierBackend()
    if not cfg["vlm_endpoint"]:
        raise VlmError("vlm classifier selected but no vlm_endpoint configured")
    return VlmClassifierBackend(VlmConfig(cfg["vlm_endpoint"], cfg["vlm_timeout_s"]))


def forced_mode_from(cfg: dict) -> NavMode | None:
    return None if cfg["mode"] == "auto" else NavMode(cfg["mode"])
