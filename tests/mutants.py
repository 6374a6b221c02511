"""Mutation checks: each mutant of `src/` must fail the tests named beside it.

Run it from a checkout:

    python tests/mutants.py

A mutant is one exact text replacement in one file under `src/`, with the
test files that must fail on it. For each mutant the script copies the
checkout's `src/`, `tests/`, `perfbench/`, `pyproject.toml` and matrix
files into a temporary directory, applies the replacement there and runs
pytest on those test files, stopping at the first failure. The mutant is
killed when pytest fails. The script exits non-zero when a mutant survives,
or when its text does not appear exactly once in its file, so that an edit
to the code cannot retire a mutant unseen. The checkout is never written.
pytest does not collect this file.

A mutant that survives is a gap in the tests: add the test that kills it,
never drop the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/rovernav/
    old: str
    new: str
    tests: tuple[str, ...]  # test files, relative to the checkout


MUTANTS = (
    # The cursor test skips the whole-path scan only while the cursor vertex
    # lies within the limit less a relative 1e-12; a wider allowance keeps
    # a path the rover has left.
    Mutant("off-path allowance 1e-9 beyond the limit", "mission.py",
           "cfg.off_path_limit * (1.0 - 1e-12)", "cfg.off_path_limit * (1.0 + 1e-9)",
           ("tests/test_mission.py",)),
    # The carried clearance of `World.check_hazard`: the rocks within it,
    # the tilt slack's local growth bound and its cap, the hull term and the
    # rounding margin. The growth mutant fails
    # `test_growth_on_a_plane_is_the_stated_bound`; the reach mutant fails
    # `test_preset_walk_matches_full_fit[challenging]` and the cap mutant
    # `test_pose_beyond_the_bound_of_a_cliff_carries_the_cap[22.9]`, and
    # both fail `test_cliff_walk_tilts_where_the_fit_does` by its hazard
    # answers alone.
    Mutant("hazard check reads rocks at the footprint only", "world.py",
           "self._rocks_near(x, y, r + max(min(hull, slack), 0.0))", "self._rocks_near(x, y, r)",
           ("tests/test_world.py",)),
    Mutant("tilt growth L halved", "world.py",
           "return _TILT_WEIGHT_SUM * math.hypot(gx, gy) / g.cell_size",
           "return 0.5 * _TILT_WEIGHT_SUM * math.hypot(gx, gy) / g.cell_size",
           ("tests/test_world.py",)),
    Mutant("tilt growth read within the footprint radius only", "world.py",
           "reach, half = FOOTPRINT_RADIUS + _TILT_SLACK_CAP, 0.5 * g.cell_size",
           "reach, half = FOOTPRINT_RADIUS, 0.5 * g.cell_size",
           ("tests/test_world.py",)),
    Mutant("tilt slack without the cap", "world.py",
           "slack = min((_TILT_GRADIENT_LIMIT - math.hypot(a, b)) / growth if growth else math.inf, _TILT_SLACK_CAP)",
           "slack = (_TILT_GRADIENT_LIMIT - math.hypot(a, b)) / growth if growth else math.inf",
           ("tests/test_world.py",)),
    Mutant("carried clearance without the hull term", "world.py",
           "self._clearance = (x, y, min(hull, slack, gap) - 1e-9)",
           "self._clearance = (x, y, min(slack, gap) - 1e-9)",
           ("tests/test_world.py",)),
    Mutant("carried clearance without the rounding margin", "world.py",
           "self._clearance = (x, y, min(hull, slack, gap) - 1e-9)",
           "self._clearance = (x, y, min(hull, slack, gap))",
           ("tests/test_world.py",)),
    # The plans' books in `MissionRunner._plan_tick`.
    Mutant("a spline plan resets the no-path streak", "mission.py",
           "            if kind != \"spline\":\n"
           "                self._no_path_streak = 0\n"
           "                self._flood_path = kind == \"flood\"\n",
           "            self._no_path_streak = 0\n"
           "            if kind != \"spline\":\n"
           "                self._flood_path = kind == \"flood\"\n",
           ("tests/test_mission.py",)),
    Mutant("a direct path sets the flood flag", "mission.py",
           "self._flood_path = kind == \"flood\"", "self._flood_path = kind in (\"flood\", \"direct\")",
           ("tests/test_mission.py",)),
    # The cautious modes' planning window: the global map's own cells,
    # clamped inside the map at full size, searched as a costmap in
    # conservative mode.
    Mutant("the window's far-edge clamp one cell off", "map_server.py",
           "gm.cols - n", "gm.cols - n + 1",
           ("tests/test_map_server.py",)),
    Mutant("the conservative plan searches the obstacle view", "mission.py",
           "grid, goal, search = window, self._sensed_goal(window, goal), astar_cost",
           "grid, goal, search = cost_to_obstacle(window), self._sensed_goal(window, goal), astar_cost",
           ("tests/test_mission.py",)),
    # The costmap's record senses each block with the world's noise. At
    # GLOBAL_RESOLUTION the noise moves no plan of the pinned noisy mission,
    # so only its map pin sees this.
    Mutant("the cost record senses without noise", "mapping.py",
           "elev = self.world.sense_points(", "elev = type(self.world)(self.world.terrain).sense_points(",
           ("tests/test_mission.py",)),
    # The mode rule in `ModeSwitcher.update`: a missed verdict selects
    # conservative mode, and the runner counts each classifier failure as a
    # missed verdict. The first fails
    # `test_mode_switcher_follows_each_verdict_alone`, the second
    # `test_failed_verdict_drives_conservatively_until_the_next_verdict[InsufficientDataError]`.
    Mutant("a missed verdict selects efficient mode", "classify.py",
           "return NavMode.CONSERVATIVE", "return NavMode.EFFICIENT",
           ("tests/test_mission.py",)),
    Mutant("a classifier without data is no missed verdict", "mission.py",
           "(VlmError, EmptyPatchError, InsufficientDataError)", "(VlmError, EmptyPatchError)",
           ("tests/test_mission.py",)),
)

COPIED = ("src", "tests", "perfbench", "pyproject.toml")


def _copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".benchmarks")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)
    for matrix in ROOT.glob("MATRIX_*.json"):
        shutil.copy2(matrix, dest / matrix.name)


def run_mutant(mutant: Mutant) -> str:
    """"killed by <the first test that failed>", "survived", or why the
    mutant could not be applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        _copy_checkout(copy)
        target = copy / "src" / "rovernav" / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"its text appears {text.count(mutant.old)} times in src/rovernav/{mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True)
        # exit code 1: tests ran and at least one failed
        if proc.returncode == 1:
            failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
            return f"killed by {failed[0] if failed else '?'}"
        if proc.returncode == 0:
            return "survived"
        return f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"


def main() -> int:
    failed = 0
    t0 = time.perf_counter()
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome = run_mutant(mutant)
        failed += not outcome.startswith("killed")
        print(f"{time.perf_counter() - start:5.1f} s  {mutant.path}: {mutant.name}: {outcome}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed in {time.perf_counter() - t0:.1f} s.")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
