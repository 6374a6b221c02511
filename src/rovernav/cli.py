"""Command-line interface.

Subcommands: gen-terrain, run, compare, render, config-ref. `run` writes
the map dump, cost image included; `render` draws a terrain, with a
trajectory on top. Exit codes:
0 success, 2 usage or configuration problem, 3 mission failure (outputs
still written), 4 classifier backend unavailable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path as FsPath

from . import config as cfgmod
from . import pgmio, render
from .compare import compare_single_vs_multi
from .errors import MissionConfigError, RoverNavError, ValidationError, VlmError
from .mission import run_mission
from .terrain import TERRAIN_META, load_terrain, save_terrain
from .waypoints import save_waypoints
from .world import TRAJECTORY_HEADER, read_trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSION_FAILED = 3
EXIT_BACKEND = 4

# The paper's multi-mode speedup over the conservative-only baseline (a
# 79.5 % gain), printed beside each measured one and kept in every row.
# The abstract gives neither the mode speed caps nor the terrain mix behind
# it, so the repo's valid pairs agree with it in direction only.
REFERENCE_SPEEDUP = 1.795


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VlmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except RoverNavError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rovernav",
                                     description="Multi-mode rover navigation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-terrain", help="generate terrain files from a config")
    p.add_argument("config")
    p.add_argument("-o", "--out", default="terrain_out")
    p.set_defaults(func=cmd_gen_terrain)

    p = sub.add_parser("run", help="run one mission")
    p.add_argument("config")
    p.add_argument("-o", "--out", default="mission_out")
    p.add_argument("--mode", choices=["auto", "efficient", "safe", "conservative"])
    p.add_argument("--classifier", choices=["mock", "geometric", "vlm"])
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="cautious-only baseline vs adaptive system")
    p.add_argument("config")
    p.add_argument("-o", "--out", default="compare_out")
    p.add_argument("--seeds", default="0", help="comma-separated seed list")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("render", help="render a terrain, with a trajectory on top")
    p.add_argument("artifacts", nargs="+",
                   help="terrain dir, and optionally a trajectory csv")
    p.add_argument("-o", "--out", default="render_out")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("config-ref", help="print the mission config key reference")
    p.set_defaults(func=lambda args: (print(cfgmod.config_reference()), EXIT_OK)[1])
    return parser


def cmd_gen_terrain(args) -> int:
    cfg = cfgmod.load_mission_config(args.config)
    terrain = cfgmod.terrain_from_config(cfg)
    save_terrain(terrain, args.out)
    print(f"terrain: {terrain.extent_x:.0f} m x {terrain.extent_y:.0f} m, "
          f"{len(terrain.segments)} segment(s), {len(terrain.rocks)} rocks "
          f"(coverage {terrain.rock_coverage:.4f})")
    for seg in terrain.segments:
        print(f"  [{seg.x0:6.1f}, {seg.x1:6.1f}) {seg.spec.ground_truth_class.value:12s} "
              f"octaves={seg.spec.octaves} lacunarity={seg.spec.lacunarity} "
              f"height_variation={seg.spec.height_variation} "
              f"rock_coverage={seg.spec.rock_coverage} seed={seg.spec.seed}")
    print(f"wrote {args.out}/")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = cfgmod.load_mission_config(args.config)
    for key in ("mode", "classifier", "seed"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    forced = cfgmod.forced_mode_from(cfg)
    classifier = None if forced else cfgmod.classifier_from_config(cfg)
    scene = cfgmod.scene_from_config(cfg)
    mode_config = cfgmod.mode_config_from(cfg)

    result = run_mission(scene.world, scene.waypoints, classifier, mode_config,
                         forced_mode=forced, start=scene.start)

    out = FsPath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics = result.metrics.to_dict()
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    (out / "trajectory.csv").write_text(
        TRAJECTORY_HEADER + "\n" + "\n".join(result.trajectory) + "\n", encoding="utf-8")
    result.server.dump(out / "map")
    save_waypoints(scene.waypoints, out / "waypoints.csv")

    status = "success" if metrics["success"] else f"FAILED ({metrics['end_reason']})"
    print(f"mission {status}: {metrics['total_time']:.1f} s over "
          f"{metrics['total_distance']:.1f} m, {metrics['waypoints_reached']} waypoints")
    print(f"wrote {out}/")
    return EXIT_OK if metrics["success"] else EXIT_MISSION_FAILED


def cmd_compare(args) -> int:
    cfg = cfgmod.load_mission_config(args.config)
    try:
        seeds = [int(s) for s in str(args.seeds).split(",") if s.strip() != ""]
    except ValueError as exc:
        raise MissionConfigError("--seeds must be a comma-separated integer list") from exc
    if not seeds:
        raise MissionConfigError("no seeds given")
    seed_cfgs = [{**cfg, "seed": seed} for seed in seeds]
    classifiers = [cfgmod.classifier_from_config(cfg_seed) for cfg_seed in seed_cfgs]

    out = FsPath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    header = (f"{'seed':>4}  {'single(s)':>10}  {'multi(s)':>10}  {'eff(s)':>8}  {'safe(s)':>8}  "
              f"{'cons(s)':>8}  {'speedup':>8}  {'target':>7}")
    print(header)
    print("-" * len(header))
    for seed, cfg_seed, classifier in zip(seeds, seed_cfgs, classifiers):
        scene = cfgmod.scene_from_config(cfg_seed)
        report = compare_single_vs_multi(scene.terrain, scene.waypoints, seed, classifier,
                                         cfgmod.mode_config_from(cfg_seed), start=scene.start,
                                         sensor_sigma=cfg_seed["sensor_sigma"])
        row = report.to_dict()
        row["seed"] = seed
        row["reference_speedup"] = REFERENCE_SPEEDUP
        rows.append(row)
        multi = report.multi
        speedup, flag = (f"{report.speedup:8.3f}", "") if report.valid else ("invalid", "  [failure recorded]")
        print(f"{seed:>4}  {report.single.total_time:>10.1f}  {multi.total_time:>10.1f}  "
              f"{multi.time_by_mode['efficient']:>8.1f}  {multi.time_by_mode['safe']:>8.1f}  "
              f"{multi.time_by_mode['conservative']:>8.1f}  {speedup:>8}  "
              f"{REFERENCE_SPEEDUP:>7.3f}{flag}")
    (out / "comparison.json").write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    print(f"wrote {out}/comparison.json")
    return EXIT_OK


def cmd_render(args) -> int:
    out = FsPath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    terrain = None
    trajectory = None
    for art in args.artifacts:
        p = FsPath(art)
        if p.is_dir() and (p / TERRAIN_META).exists():
            terrain = load_terrain(p)
        elif p.suffix == ".csv":
            trajectory = read_trajectory(p)
        else:
            raise ValidationError(f"cannot identify artifact kind: {p}")

    if terrain is None:
        raise ValidationError("a trajectory render needs a terrain directory too")
    image = render.render_terrain(terrain)
    if trajectory is not None:
        image = render.draw_trajectory(image, trajectory, terrain.ground.origin,
                                       terrain.ground.cell_size)
    pgmio.write_ppm(out / "terrain.ppm", image)
    print(f"wrote terrain.ppm to {out}/")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
