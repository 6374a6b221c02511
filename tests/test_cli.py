import json

import pytest

from rovernav import cli, compare
from rovernav import config as cfgmod
from rovernav.compare import ComparisonReport
from rovernav.config import MIXED_SEQUENCE, build_scene
from rovernav.errors import MissionConfigError
from rovernav.classify import GeometricClassifierBackend
from rovernav.mission import MissionMetrics, MissionResult, ModeConfig
from rovernav.modes import NavMode
from rovernav.world import TRAJECTORY_HEADER

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


def _write_config(tmp_path, cfg):
    path = tmp_path / "mission.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


FLAT = {"preset": "flat"}


@pytest.mark.parametrize("command, cfg", [
    ("run", {"terrain": FLAT, "sensor_sigma": "lots"}),
    ("run", {"terrain": FLAT, "speeds": ["fast", 1, 0.5]}),
    ("run", {"terrain": {"preset": "flat", "seed": "x"}}),
    ("run", {"terrain": FLAT, "seed": "x"}),
    ("run", {"terrain": FLAT, "waypoint_spacing": "far"}),
    ("run", {"terrain": FLAT, "classifier": "vlm", "vlm_endpoint": "http://localhost:9/",
             "vlm_timeout_s": "soon"}),
    ("compare", {"terrain": FLAT, "reference_speedup": "big"}),
    ("run", {"terrain": FLAT, "start": ["a", 20]}),
    ("run", {"terrain": FLAT, "start": "15, 70"}),
    ("run", {"terrain": FLAT, "goal": [120, 70, 1]}),
    ("run", {"terrain": FLAT, "waypoints": {"points": [["a", 1]]}}),
    ("run", {"terrain": FLAT, "waypoints": {"points": [[20, 70], 5]}}),
    ("run", {"terrain": FLAT, "sensor_sigma": -0.02}),
    ("compare", {"terrain": FLAT, "sensor_sigma": float("nan")}),
    ("run", {"terrain": FLAT, "classifier": "vlm", "vlm_endpoint": "http://localhost:9/",
             "vlm_timeout_s": 0}),
    ("run", {"terrain": FLAT, "classifier": "vlm", "vlm_endpoint": "http://localhost:9/",
             "vlm_timeout_s": float("nan")}),
    ("run", {"terrain": FLAT, "classifier": "vlm", "vlm_endpoint": "not a url"}),
    ("run", {"terrain": FLAT, "classifier": "vlm", "vlm_endpoint": "http://localhost:abc/"}),
], ids=["sensor_sigma", "speeds", "terrain.seed", "seed", "waypoint_spacing", "vlm_timeout_s",
        "reference_speedup", "start", "start.string", "goal", "waypoints.points", "waypoints.points.pair",
        "sensor_sigma.negative", "sensor_sigma.nan", "vlm_timeout_s.zero", "vlm_timeout_s.nan",
        "vlm_endpoint", "vlm_endpoint.port"])
def test_non_numeric_config_value_is_config_error(tmp_path, capsys, command, cfg):
    path = _write_config(tmp_path, cfg)
    assert cli.main([command, path, "-o", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


def _not_utf8(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe{\n")
    return str(path)


@pytest.mark.parametrize("make", [
    lambda tmp_path: ("run", str(tmp_path), str(tmp_path)),
    lambda tmp_path: ("run", _write_config(tmp_path, {"terrain": FLAT, "waypoints": {"file": str(tmp_path)}}),
                      str(tmp_path)),
    lambda tmp_path: ("run", _not_utf8(tmp_path, "mission.json"), "mission.json: not UTF-8 text"),
    lambda tmp_path: ("render", _not_utf8(tmp_path, "trajectory.csv"), "trajectory.csv: not UTF-8 text"),
], ids=["config.directory", "waypoints.directory", "config.not_utf8", "render.trajectory.not_utf8"])
def test_unreadable_input_file_is_config_error(tmp_path, capsys, make):
    command, target, named = make(tmp_path)
    assert cli.main([command, target, "-o", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err


@pytest.mark.parametrize("argv, code", [
    (["run"], cli.EXIT_BACKEND),
    (["compare"], cli.EXIT_BACKEND),
    (["run", "--mode", "conservative"], cli.EXIT_OK),
], ids=["run", "compare", "run.forced"])
def test_vlm_without_endpoint_is_backend_error(tmp_path, capsys, argv, code):
    # A forced run builds no classifier, so it needs no endpoint.
    path = _write_config(tmp_path, {"terrain": FLAT, "classifier": "vlm",
                                    "waypoints": {"points": [[20, 70]]}})
    assert cli.main([argv[0], path, *argv[1:], "-o", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") if code == cli.EXIT_BACKEND else err == ""


def test_config_ref_documents_the_defaults_a_config_gets(capsys):
    assert cli.main(["config-ref"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    documented = {key.strip(): line.removeprefix("      default: ")
                  for key, line in zip(lines, lines[1:]) if line.startswith("      default: ")}
    assert list(documented) == [key for key, *_ in cfgmod.CONFIG_KEYS]
    filled = cfgmod.fill_config({"terrain": FLAT})
    assert set(filled) == set(documented)
    for key, value in filled.items():
        if key != "terrain":
            assert documented[key] == (value if isinstance(value, str) else json.dumps(value)), key
    assert cfgmod.mode_config_from(filled) == ModeConfig()
    assert cfgmod.forced_mode_from(filled) is None
    assert cfgmod.classifier_from_config(filled).seed == 0
    with pytest.raises(MissionConfigError, match="requires a 'terrain' section"):
        cfgmod.fill_config({"seed": 1})


def test_fill_config_accepts_every_printed_default():
    # A config that spells out each default as `config-ref` prints it: JSON,
    # or a bare word such as auto.
    lines = cfgmod.config_reference().splitlines()
    printed = {key.strip(): line.removeprefix("      default: ")
               for key, line in zip(lines, lines[1:]) if line.startswith("      default: ")}
    cfg = {"terrain": FLAT}
    for key, text in printed.items():
        if key != "terrain":
            try:
                cfg[key] = json.loads(text)
            except json.JSONDecodeError:
                cfg[key] = text
    assert set(cfg) == {key for key, *_ in cfgmod.CONFIG_KEYS}
    filled = cfgmod.fill_config(cfg)
    assert json.dumps(filled, sort_keys=True) == json.dumps(cfgmod.fill_config({"terrain": FLAT}), sort_keys=True)


def test_compare_prints_no_speedup_from_a_failed_run(tmp_path, capsys, monkeypatch):
    single = MissionMetrics(success=True, end_reason="complete")
    single.time_by_mode["conservative"] = 120.0
    multi = MissionMetrics(success=False, end_reason="rock_collision")
    multi.time_by_mode["safe"] = 40.0
    monkeypatch.setattr(cfgmod, "scene_from_config", lambda cfg: cfgmod.SceneBundle(None, None, None, None, None))
    monkeypatch.setattr(cli, "compare_single_vs_multi", lambda *args, **kw: ComparisonReport(single, multi))
    out = tmp_path / "out"
    assert cli.main(["compare", _write_config(tmp_path, {"terrain": FLAT}), "-o", str(out)]) == cli.EXIT_OK
    row = capsys.readouterr().out.splitlines()[2].split()
    assert row[6] == "invalid"
    (report,) = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    assert report["speedup"] is None and report["distance_ratio"] is None
    assert "time_ratio" not in report


def test_compare_runs_the_configured_classifier_and_sensor_noise(tmp_path, monkeypatch):
    calls = []

    def fake_run_mission(world, waypoints, classifier, config, forced_mode=None, start=None):
        calls.append((world, classifier, forced_mode))
        metrics = MissionMetrics(success=True, end_reason="complete")
        metrics.time_by_mode["conservative"] = 10.0
        return MissionResult(metrics, [], None)

    monkeypatch.setattr(compare, "run_mission", fake_run_mission)
    cfg = {"terrain": {"specs": [SPEC]}, "waypoints": {"points": [[15, 10], [5, 10]]},
           "classifier": "geometric", "sensor_sigma": 0.02}
    assert cli.main(["compare", _write_config(tmp_path, cfg), "-o", str(tmp_path / "out")]) == cli.EXIT_OK
    (single_world, single_classifier, single_mode), (multi_world, multi_classifier, multi_mode) = calls
    assert (single_classifier, single_mode) == (None, NavMode.CONSERVATIVE)
    assert isinstance(multi_classifier, GeometricClassifierBackend) and multi_mode is None
    assert single_world.sensor_sigma == multi_world.sensor_sigma == 0.02


def test_compare_runs_what_run_runs(tmp_path):
    cfg = _write_config(tmp_path, {"terrain": {"preset": "rocky", "seed": 0}, "classifier": "geometric",
                                   "waypoints": {"points": [[15, 70], [30, 70]]}})
    assert cli.main(["run", cfg, "-o", str(tmp_path / "multi")]) == cli.EXIT_OK
    assert cli.main(["run", cfg, "--mode", "conservative", "-o", str(tmp_path / "single")]) == cli.EXIT_OK
    assert cli.main(["compare", cfg, "-o", str(tmp_path / "compare")]) == cli.EXIT_OK
    (report,) = json.loads((tmp_path / "compare" / "comparison.json").read_text(encoding="utf-8"))
    for block in ("multi", "single"):
        ran = json.loads((tmp_path / block / "metrics.json").read_text(encoding="utf-8"))
        assert report[block] == ran, block


def _waypoint_line(tmp_path, line):
    wp = tmp_path / "wp.csv"
    wp.write_text(f"20,70\n{line}\n", encoding="utf-8")
    return "run", {"terrain": FLAT, "waypoints": {"file": str(wp)}}, f"{wp}:2"


def _terrain_not_json(tmp_path):
    (tmp_path / "terrain").mkdir()
    meta_path = tmp_path / "terrain" / "terrain.json"
    meta_path.write_text("{not json", encoding="utf-8")
    return "run", {"terrain": {"load": str(tmp_path / "terrain")}}, f"{meta_path}: Expecting property name"


def _sidecar_spec(tmp_path, edit, message):
    """Render an exported terrain whose sidecar spec `edit` changed in place."""
    assert _gen_terrain(tmp_path) == cli.EXIT_OK
    meta_path = tmp_path / "terrain" / "terrain.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    edit(meta["segments"][0]["spec"])
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    return "render", str(tmp_path / "terrain"), f"{meta_path}: {message}"


def _trajectory_line(tmp_path, line):
    path = tmp_path / "trajectory.csv"
    path.write_text(f"{TRAJECTORY_HEADER}\n0.050,1.0,2.0,0.0,0.5,safe\n{line}\n", encoding="utf-8")
    return "render", str(path), f"{path}:3: expected {TRAJECTORY_HEADER}, got {line!r}"


@pytest.mark.parametrize("make", [
    lambda tmp_path: _waypoint_line(tmp_path, "30,70,5"),
    lambda tmp_path: _waypoint_line(tmp_path, "abc,70"),
    _terrain_not_json,
    lambda tmp_path: _sidecar_spec(tmp_path, lambda spec: spec.pop("lacunarity"), "missing key 'lacunarity'"),
    lambda tmp_path: _sidecar_spec(tmp_path, lambda spec: spec.update(lacunarty=2.0),
                                   "unknown terrain spec keys: ['lacunarty']"),
    lambda tmp_path: _trajectory_line(tmp_path, "0.100,abc,2.0,0.0,0.5,safe"),
    lambda tmp_path: _trajectory_line(tmp_path, "0.100,1.0,2.0,safe"),
    lambda tmp_path: ("run", {"terrain": {"specs": SPEC}}, "'specs' must be a list"),
    lambda tmp_path: ("run", {"terrain": {"presets": "mixed"}}, "'presets' must be a list, not 'mixed'"),
    lambda tmp_path: ("run", {"terrain": {"presets": [["flat"]]}}, "unknown terrain preset ['flat']"),
    lambda tmp_path: ("run", {"terrain": {"specs": ["flat"]}}, "terrain spec must be an object, not 'flat'"),
    lambda tmp_path: ("run", {"terrain": {"specs": [dict(SPEC, octave=3)]}}, "unknown terrain spec keys: ['octave']"),
    lambda tmp_path: ("run", {"terrain": {"preset": "flat", "sede": 3}}, "not {'preset': 'flat', 'sede': 3}"),
    lambda tmp_path: ("run", {"terrain": {"preset": "flat", "presets": ["rocky"]}},
                      "one of preset, presets, specs, load"),
    lambda tmp_path: ("run", {"terrain": {"seed": 3}}, "not {'seed': 3}"),
    lambda tmp_path: ("run", {"terrain": FLAT, "start": [-50, 70], "waypoints": {"points": [[30, 70], [60, 70]]},
                              "mode": "conservative"}, "start (-50.0, 70.0) outside the map extent"),
], ids=["waypoint.three_fields", "waypoint.not_a_number", "terrain.load.not_json",
        "render.spec_without_lacunarity", "render.spec_unknown_key",
        "render.trajectory.not_a_number", "render.trajectory.four_fields",
        "terrain.specs.object", "terrain.presets.string", "terrain.presets.nested_list",
        "terrain.specs.string_item", "terrain.specs.unknown_key",
        "terrain.unknown_key", "terrain.two_sources", "terrain.no_source", "start.off_map"])
def test_malformed_input_is_config_error(tmp_path, capsys, make):
    command, source, message = make(tmp_path)
    target = source if command == "render" else _write_config(tmp_path, source)
    capsys.readouterr()
    assert cli.main([command, target, "-o", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("terrain", [{"preset": "flat"}, {"preset": "rocky"}, {"preset": "challenging"},
                                     {"presets": list(MIXED_SEQUENCE)}],
                         ids=["flat", "rocky", "challenging", "mixed"])
def test_cli_builds_the_benchmark_scenes(tmp_path, terrain, seed):
    cfg = cfgmod.load_mission_config(_write_config(tmp_path, {"terrain": terrain, "seed": seed}))
    ours = cfgmod.scene_from_config(cfg)
    bench = build_scene(terrain.get("preset", "mixed"), seed)
    assert ours.terrain.ground.elevation.tobytes() == bench.terrain.ground.elevation.tobytes()
    assert ours.terrain.rocks == bench.terrain.rocks
    assert ours.waypoints.points == bench.waypoints.points
    assert ours.start == bench.start
