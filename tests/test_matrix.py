"""The committed scenario matrix stays current and keeps the baseline safe.

`tests/run_matrix.py` writes the matrix; the newest committed file is the
one with the latest `written` stamp. The scenes re-run here each take about
half a second of host time or less.
"""

import pytest

import run_matrix

MATRIX = run_matrix.newest_matrix()
CHEAP = [name for name, (preset, classifier, prefix, _seed) in run_matrix.SCENES.items()
         if (preset, classifier, prefix) in {("flat", "mock", None), ("rocky", "conservative", 2)}]


@pytest.mark.parametrize("name", CHEAP)
def test_matrix_scene_matches_its_committed_digest(name):
    forced = {n: r["hazards"] for n, r in MATRIX["scenes"].items() if run_matrix.SCENES[n][1] == "conservative"}
    assert {n: h for n, h in forced.items() if h} == {}, "a forced-conservative scene recorded a hazard"
    record = run_matrix.run_scene(*run_matrix.SCENES[name])
    assert record["digest"] == MATRIX["scenes"][name]["digest"], (record, MATRIX["scenes"][name])
