"""The committed scenario matrix stays current and keeps the baseline safe.

`tests/run_matrix.py` writes the matrix; the newest committed file is the
one with the latest `written` stamp. Every scene that took under
`CHEAP_HOST_S` of host time when that file was written re-runs here, so
the set grows and shrinks with the file.
"""

import pytest

import run_matrix

CHEAP_HOST_S = 2.0
MATRIX = run_matrix.newest_matrix()
CHEAP = [name for name, record in MATRIX["scenes"].items() if record["host_s"] < CHEAP_HOST_S]


def test_newest_matrix_was_written_from_committed_source():
    assert MATRIX["dirty"] is False, MATRIX["sha"]


@pytest.mark.parametrize("name", CHEAP)
def test_matrix_scene_matches_its_committed_digest(name):
    forced = {n: r["hazards"] for n, r in MATRIX["scenes"].items() if run_matrix.SCENES[n][1] == "conservative"}
    assert {n: h for n, h in forced.items() if h} == {}, "a forced-conservative scene recorded a hazard"
    record = run_matrix.run_scene(*run_matrix.SCENES[name])
    assert record["digest"] == MATRIX["scenes"][name]["digest"], (record, MATRIX["scenes"][name])
