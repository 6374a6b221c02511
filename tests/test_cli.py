import json

import pytest

from rovernav import cli

SPEC = {
    "octaves": 2,
    "lacunarity": 1.0,
    "height_variation": 0.2,
    "rock_coverage": 0.0,
    "extent": 20.0,
    "cell_size": 0.5,
    "seed": 3,
    "ground_truth_class": "flat",
}


def _gen_terrain(tmp_path, **overrides):
    cfg = tmp_path / "mission.json"
    cfg.write_text(json.dumps({"terrain": {"specs": [dict(SPEC, **overrides)]}}), encoding="utf-8")
    return cli.main(["gen-terrain", str(cfg), "-o", str(tmp_path / "terrain")])


def test_gen_terrain_from_spec(tmp_path):
    assert _gen_terrain(tmp_path) == cli.EXIT_OK


@pytest.mark.parametrize("key, value", [("ground_truth_class", "bogus"), ("octaves", "many")])
def test_bad_spec_value_is_config_error(tmp_path, capsys, key, value):
    assert _gen_terrain(tmp_path, **{key: value}) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
