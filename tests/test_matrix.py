"""The committed scenario matrix stays current and keeps the baseline safe.

The newest committed `MATRIX_*.json` (latest `written` stamp) is the one
record of pinned whole-scene missions. Tier-1 re-runs the scenes named in
`run_matrix.TIER1` against it: each keeps its digest, which covers its end
reason, waypoints and hazards, keeps its counts of plans and floods, and
breaks no run invariant. `TIER1` changes only in a change that says so in
CHANGES.md; `tests/run_matrix.py` gives the re-pin steps, and CI flies all
45 scenes against the file. Two gates read the file alone: no baseline or
geometric hazard, and a bound on plans per reached waypoint.
"""

import copy

import pytest

import run_matrix

MATRIX = run_matrix.newest_matrix()


def test_newest_matrix_was_written_from_committed_source():
    assert MATRIX["dirty"] is False, MATRIX["sha"]


def test_newest_matrix_records_no_baseline_or_geometric_hazard():
    # The single-mode baseline (forced conservative) and the geometric
    # classifier may fail to arrive, never to stay safe.
    hazards = {name: record["hazards"] for name, record in MATRIX["scenes"].items()
               if run_matrix.SCENES[name][1] in ("conservative", "geometric") and record["hazards"]}
    assert hazards == {}


# A leg whose paths are dropped again and again replans without end: mock
# challenging seed 0 once made 1501 plans for 2 reached waypoints before
# timing out. When the bound was set the worst ratio was 34.5 (that same
# scene, 69 plans for 2 reached): the bound sits just above, far below the
# thrash.
MAX_PLANS_PER_REACHED = 40


def test_newest_matrix_plans_per_reached_waypoint_stay_bounded():
    over = {name: (record["plans"], record["reached"]) for name, record in MATRIX["scenes"].items()
            if record["plans"] > MAX_PLANS_PER_REACHED * max(record["reached"], 1)}
    assert over == {}


def test_tier1_names_matrix_scenes():
    assert set(run_matrix.TIER1) <= run_matrix.SCENES.keys() & MATRIX["scenes"].keys()
    # each course's seed-0 mock mission and the benchmark's conservative one
    assert {"flat/mock/seed0", "rocky/mock/seed0", "mixed/mock/seed0", "challenging/mock/seed0",
            "rocky/conservative-first2/seed0"} <= set(run_matrix.TIER1)


@pytest.mark.parametrize("name", run_matrix.TIER1)
def test_matrix_scene_matches_its_committed_digest(name):
    record = run_matrix.scene_record(name)
    assert record["violations"] == [], record
    assert record["digest"] == MATRIX["scenes"][name]["digest"], (record, MATRIX["scenes"][name])
    # the plan counts are in no digest; a bookkeeping change that keeps the
    # digest but moves a count fails here
    committed = MATRIX["scenes"][name]
    assert (record["plans"], record["best_progress_path"]) == (committed["plans"], committed["best_progress_path"])


def test_diff_shows_host_time_per_course_beside_the_gated_line():
    after = copy.deepcopy(MATRIX)
    after["scenes"]["mixed/mock/seed0"]["host_s"] += 1.0
    lines = run_matrix.diff(MATRIX, after).splitlines()
    assert "0 of 45 scenes moved." in lines
    mixed = sum(r["host_s"] for name, r in MATRIX["scenes"].items() if name.startswith("mixed/"))
    assert f"- host_s, mixed (not gated): {mixed:.2f} -> {mixed + 1.0:.2f}" in lines
    assert [line.split(",")[1].split()[0] for line in lines if line.startswith("- host_s,")] == [
        "flat", "rocky", "challenging", "mixed"]


def _record(end_reason, sim_s, reached):
    return {"end_reason": end_reason, "waypoints": 22, "reached": reached, "skipped": 22 - reached,
            "hazards": [], "sim_s": sim_s, "digest": f"{end_reason} {sim_s} {reached}", "violations": [],
            "plans": 30, "best_progress_path": 2, "host_s": 1.0}


def _matrix(scenes):
    return {"summary": run_matrix.summary(scenes), "scenes": scenes}


def test_diff_reports_each_mixed_pair_and_the_count_of_valid_ones():
    # seed 0: the geometric pair becomes valid; the mock pair stays valid
    # but its adaptive time moves. Seed 1: the baseline's end makes both
    # pairs invalid before, and a lost waypoint keeps the mock pair invalid.
    before = _matrix({
        "mixed/mock/seed0": _record("complete", 500.0, 20),
        "mixed/geometric/seed0": _record("no_path", 300.0, 18),
        "mixed/conservative/seed0": _record("complete", 1000.0, 20),
        "mixed/mock/seed1": _record("complete", 400.0, 21),
        "mixed/geometric/seed1": _record("complete", 450.0, 21),
        "mixed/conservative/seed1": _record("no_path", 900.0, 21),
    })
    after = copy.deepcopy(before)
    after["scenes"].update({
        "mixed/mock/seed0": _record("complete", 400.0, 20),
        "mixed/geometric/seed0": _record("complete", 625.0, 20),
        "mixed/mock/seed1": _record("complete", 380.0, 20),
        "mixed/conservative/seed1": _record("complete", 990.0, 21),
    })
    after["summary"] = run_matrix.summary(after["scenes"])
    lines = run_matrix.diff(before, after).splitlines()
    assert "4 of 6 scenes moved." in lines
    pairs = lines[lines.index("| mixed pair, against forced conservative | before | after |"):]
    assert pairs[2:] == [
        "| mixed/mock/seed0 | 2.000 | 2.500 |",
        "| mixed/geometric/seed0 | invalid | 1.600 |",
        "| mixed/mock/seed1 | invalid | invalid |",
        "| mixed/geometric/seed1 | invalid | 2.200 |",
        "",
        "valid mixed pairs: 1 -> 3",
    ]
