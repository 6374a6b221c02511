"""The scenario matrix: fixed missions over presets, seeds and classifiers.

Run it from a checkout:

    python tests/run_matrix.py              # fly every scene, write MATRIX_<sha>.json
    python tests/run_matrix.py --diff A B   # the scenes whose outcome moved from A to B,
                                            # and the headline pairs before and after

It flies the 45 scenes of `SCENES`, one worker process per preset, two at a
time, and writes `MATRIX_<sha>.json` at the repository root: `<sha>` is the
checkout's git HEAD, and `dirty` records uncommitted changes under `src/`.
Each scene records its end reason, reached and skipped waypoints, hazards,
simulated time, mission digest (`perfbench/scenarios.mission_digest`), the
run invariants it breaks (`perfbench/scenarios.check_invariants`), the
number of plans and of flood (`best_progress_path`) fallbacks among them,
both read from the mission's tally of plan kinds (`MissionResult.plans`),
and its host time. Everything but the host time is exactly reproducible.
pytest does not collect this file.

The newest committed file is the one record of pinned whole-scene
missions: `tests/test_matrix.py` re-runs the `TIER1` scenes against it.
To re-pin after a change that moves an outcome on purpose, run
`python tests/run_matrix.py`, then `--diff` the newest committed file
against the new one, and commit the new file with each moved scene
explained in CHANGES.md.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import functools
import json
import multiprocessing
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import rovernav.mission as mission  # noqa: E402
from rovernav.classify import GeometricClassifierBackend, MockClassifierBackend  # noqa: E402
from rovernav.compare import ComparisonReport  # noqa: E402
from rovernav.config import build_scene  # noqa: E402
from rovernav.map_server import WaypointQueue  # noqa: E402
from rovernav.modes import NavMode  # noqa: E402
from scenarios import check_invariants, mission_digest  # noqa: E402

SEEDS = range(5)
# (preset, classifier, first n auto waypoints or None for all). The
# "conservative" classifier is none at all: the mission is forced
# conservative, the paper's single-mode baseline.
GROUPS = (
    ("flat", "mock", None),
    ("rocky", "mock", None),
    ("rocky", "geometric", None),
    ("rocky", "conservative", 2),
    ("challenging", "mock", None),
    ("challenging", "geometric", None),
    ("mixed", "mock", None),
    ("mixed", "geometric", None),
    ("mixed", "conservative", None),
)


def scene_name(preset: str, classifier: str, prefix: int | None, seed: int) -> str:
    head = classifier if prefix is None else f"{classifier}-first{prefix}"
    return f"{preset}/{head}/seed{seed}"


SCENES = {scene_name(*group, seed): (*group, seed) for group in GROUPS for seed in SEEDS}

# The scenes tier-1 re-runs, about 21 s on 2 cores: every mock and every
# rocky scene, and the cheapest geometric scene of the two costlier courses.
# The set changes only in a change that says so in CHANGES.md.
TIER1 = (
    *(name for name, spec in SCENES.items() if spec[1] == "mock" or spec[0] == "rocky"),
    "challenging/geometric/seed1",
    "mixed/geometric/seed2",
)


def run_scene(preset: str, classifier: str, prefix: int | None, seed: int) -> dict:
    """Fly one scene of the matrix and return its record."""
    scene = build_scene(preset, seed)
    queue = scene.waypoints
    if prefix is not None:
        queue = WaypointQueue(list(queue.points[:prefix]))
    backend = {"mock": MockClassifierBackend(seed),
               "geometric": GeometricClassifierBackend()}.get(classifier)
    forced = NavMode.CONSERVATIVE if backend is None else None
    t0 = time.perf_counter()
    result = mission.run_mission(scene.world, queue, backend, forced_mode=forced, start=scene.start)
    host_s = time.perf_counter() - t0
    metrics = result.metrics.to_dict()
    return {
        "end_reason": metrics["end_reason"],
        "waypoints": len(queue),
        "reached": metrics["waypoints_reached"],
        "skipped": metrics["waypoints_skipped"],
        "hazards": metrics["hazards"],
        "sim_s": metrics["total_time"],
        "digest": mission_digest(metrics, result.trajectory),
        "violations": check_invariants(metrics, result.trajectory, len(result.trajectory),
                                       forced and forced.value),
        "plans": sum(result.plans.values()),
        "best_progress_path": result.plans["flood"],
        "host_s": round(host_s, 2),
    }


@functools.cache
def scene_record(name: str) -> dict:
    """`run_scene` of the named scene, flown once per process, so that the
    tests that check the same scene share one run."""
    return run_scene(*SCENES[name])


def run_preset(preset: str) -> dict:
    return {name: run_scene(*spec) for name, spec in SCENES.items() if spec[0] == preset}


def _git(*args) -> str:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return ""


def summary(scenes: dict) -> dict:
    records = scenes.values()
    return {
        "reached": sum(r["reached"] for r in records),
        "skipped": sum(r["skipped"] for r in records),
        "hazards": sum(len(r["hazards"]) for r in records),
        "end_reasons": dict(sorted(Counter(r["end_reason"] for r in records).items())),
        "plans": sum(r["plans"] for r in records),
        "best_progress_path": sum(r["best_progress_path"] for r in records),
    }


def write_matrix() -> Path:
    # GROUPS runs from the cheapest preset to the costliest; start the costliest first
    presets = list(dict.fromkeys(group[0] for group in reversed(GROUPS)))
    scenes = {}
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(2, mp_context=spawn, max_tasks_per_child=1) as pool:
        for part in pool.map(run_preset, presets):
            scenes.update(part)
    sha = _git("rev-parse", "HEAD").strip() or "unknown"
    matrix = {
        "sha": sha,
        "dirty": bool(_git("status", "--porcelain", "--", "src")),
        "written": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "summary": summary(scenes),
        "scenes": {name: scenes[name] for name in SCENES},
    }
    out = ROOT / f"MATRIX_{sha}.json"
    out.write_text(json.dumps(matrix, indent=1) + "\n")
    return out


def newest_matrix(root: Path = ROOT) -> dict:
    """The matrix file with the latest `written` stamp."""
    files = [json.loads(p.read_text()) for p in root.glob("MATRIX_*.json")]
    return max(files, key=lambda m: m["written"])


def _metrics(record: dict) -> mission.MissionMetrics:
    # a record keeps the total simulated time, not its split by mode
    return mission.MissionMetrics(success=record["end_reason"] == "complete", end_reason=record["end_reason"],
                                  time_by_mode={"total": record["sim_s"]}, waypoints_reached=record["reached"])


def mixed_pairs(matrix: dict) -> dict:
    """The headline comparison of each adaptive mixed scene in the matrix
    against the forced-conservative scene of its seed, by adaptive scene."""
    pairs = {}
    for name, record in matrix["scenes"].items():
        preset, classifier, prefix, seed = SCENES[name]
        if preset == "mixed" and classifier != "conservative":
            single = matrix["scenes"][scene_name(preset, "conservative", prefix, seed)]
            pairs[name] = ComparisonReport(_metrics(single), _metrics(record))
    return pairs


def diff(before: dict, after: dict) -> str:
    """A markdown table of the scenes whose digest moved, the totals, and
    each course's summed host time, which no gate reads: host time is not
    reproducible. Then each adaptive mixed scene's comparison with the
    forced-conservative scene of its seed, its speedup when valid, and the
    count of valid pairs."""
    lines = ["| scene | before | after |", "|---|---|---|"]

    def outcome(r):
        hazards = f", {len(r['hazards'])} hazard" if r["hazards"] else ""
        return (f"{r['end_reason']} {r['sim_s']:g} s, {r['reached']}/{r['waypoints']} reached, "
                f"{r['skipped']} skipped{hazards}, {r['plans']} plans, {r['best_progress_path']} floods")

    moved = 0
    for name, b in before["scenes"].items():
        a = after["scenes"][name]
        if a["digest"] != b["digest"]:
            moved += 1
            lines.append(f"| {name} | {outcome(b)} | {outcome(a)} |")
    lines.append("")
    lines.append(f"{moved} of {len(before['scenes'])} scenes moved.")
    for key in ("reached", "skipped", "hazards", "end_reasons", "plans", "best_progress_path"):
        lines.append(f"- {key}: {before['summary'][key]} -> {after['summary'][key]}")
    for course in dict.fromkeys(SCENES[name][0] for name in before["scenes"]):
        b, a = (sum(r["host_s"] for name, r in m["scenes"].items() if SCENES[name][0] == course)
                for m in (before, after))
        lines.append(f"- host_s, {course} (not gated): {b:.2f} -> {a:.2f}")

    def speedup(report):
        return f"{report.speedup:.3f}" if report.valid else "invalid"

    lines += ["", "| mixed pair, against forced conservative | before | after |", "|---|---|---|"]
    pairs = [mixed_pairs(m) for m in (before, after)]
    for name, report in pairs[0].items():
        lines.append(f"| {name} | {speedup(report)} | {speedup(pairs[1][name])} |")
    valid = [sum(report.valid for report in p.values()) for p in pairs]
    lines += ["", f"valid mixed pairs: {valid[0]} -> {valid[1]}"]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"), type=Path,
                        help="print the scenes whose outcome moved between two matrix files")
    args = parser.parse_args(argv)
    if args.diff:
        before, after = (json.loads(p.read_text()) for p in args.diff)
        print(diff(before, after))
        return 0
    print(write_matrix())
    return 0


if __name__ == "__main__":
    sys.exit(main())
