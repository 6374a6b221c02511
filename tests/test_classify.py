import hashlib
from collections import Counter

import numpy as np
import pytest

from rovernav.classify import (
    GeometricClassifierBackend,
    GeometricMetrics,
    MockClassifierBackend,
    TerrainAssessment,
    VlmConfig,
    compute_terrain_metrics,
    mock_classify,
    parse_vlm_response,
    render_patch_image,
    threshold_classify,
)
from rovernav.config import build_scene
from rovernav.errors import InsufficientDataError, ValidationError, VlmSchemaError
from rovernav.modes import TerrainClass, class_for_scores
from rovernav.terrain import HeightField

from conftest import make_spec, plane_terrain

# Calibration rows measured on the reference scenes: (rough-cell count,
# average slope in degrees, slope variance) -> expected class. No cutoff
# reads the variance, so the metrics keep the first two.
CALIBRATION_ROWS = [
    ((0, 0.308, 0.214), TerrainClass.FLAT),
    ((0, 0.346, 0.2), TerrainClass.FLAT),
    ((0, 3.148, 2.466), TerrainClass.FLAT),
    ((0, 6.924, 15.8), TerrainClass.FLAT),
    ((125, 4.152, 52.512), TerrainClass.ROCKY),
    ((393.8, 3.714, 138.624), TerrainClass.ROCKY),
    ((401, 6.394, 138.244), TerrainClass.ROCKY),
    ((698.8, 7.778, 236.166), TerrainClass.ROCKY),
    ((835.4, 31.702, 276.424), TerrainClass.CHALLENGING),
    ((344.6, 20.514, 235.796), TerrainClass.CHALLENGING),
    ((414.2, 29.314, 313.148), TerrainClass.CHALLENGING),
    ((183.2, 38.942, 268.054), TerrainClass.CHALLENGING),
]


def patch_from(z, cell=0.1):
    return HeightField(np.asarray(z, dtype=float), (0.0, 0.0), cell)


class TestGeometricMetrics:
    def test_all_zero_patch(self):
        metrics = compute_terrain_metrics(patch_from(np.zeros((200, 200))), radius=8.0)
        assert metrics.rock_grid_count == 0
        assert metrics.slope_avg == pytest.approx(0.0, abs=1e-9)

    def test_analytic_plane_slope(self):
        n, cell = 200, 0.1
        xs = (np.arange(n) + 0.5) * cell
        z = np.tan(np.radians(10.0)) * np.tile(xs, (n, 1))
        metrics = compute_terrain_metrics(patch_from(z, cell), radius=8.0)
        assert metrics.slope_avg == pytest.approx(10.0, abs=1e-6)
        assert metrics.rock_grid_count == 0

    def test_rock_cap_counts_rough_cells(self):
        n, cell = 200, 0.1
        coords = (np.arange(n) + 0.5) * cell
        gx, gy = np.meshgrid(coords, coords)
        d2 = (gx - 10.0) ** 2 + (gy - 10.0) ** 2
        r, h = 0.5, 0.4
        sphere = (r * r + h * h) / (2 * h)
        cap = np.where(d2 <= r * r, np.sqrt(np.maximum(sphere**2 - d2, 0)) - (sphere - h), 0.0)
        metrics = compute_terrain_metrics(patch_from(np.maximum(cap, 0), cell), radius=8.0)
        assert metrics.rock_grid_count > 0

    def test_rotation_insensitive(self):
        n, cell = 120, 0.1
        rng = np.random.default_rng(7)
        z = np.cumsum(rng.normal(0, 0.01, size=(n, n)), axis=1)
        z = z + z.T  # make it interesting but smooth
        a = compute_terrain_metrics(patch_from(z, cell), radius=5.0)
        b = compute_terrain_metrics(patch_from(np.rot90(z).copy(), cell), radius=5.0)
        assert abs(a.slope_avg - b.slope_avg) < 0.5

    def test_unknown_only_region_raises(self):
        with pytest.raises(InsufficientDataError):
            compute_terrain_metrics(patch_from(np.full((50, 50), np.nan)), radius=2.0)

    def test_radius_beyond_patch_rejected(self):
        with pytest.raises(ValidationError):
            compute_terrain_metrics(patch_from(np.zeros((50, 50))), radius=10.0)


class TestThresholdClassify:
    @pytest.mark.parametrize("triplet,expected", CALIBRATION_ROWS)
    def test_calibration_rows(self, triplet, expected):
        metrics = GeometricMetrics(*triplet[:2])
        assert threshold_classify(metrics).terrain_class is expected

    def test_scores_normalized(self):
        a = threshold_classify(GeometricMetrics(500, 22.5))
        assert a.rock_complexity == pytest.approx(0.5)
        assert a.slope_complexity == pytest.approx(0.5)
        b = threshold_classify(GeometricMetrics(5000, 90.0))
        assert b.rock_complexity == 1.0
        assert b.slope_complexity == 1.0


class TestVlmParsing:
    def test_valid_rocky_response(self):
        a = parse_vlm_response(b'{"terrain_class":"rocky","rock_complexity":0.66,"slope_complexity":0.18}')
        assert a.terrain_class is TerrainClass.ROCKY
        assert a.rock_complexity == 0.66
        assert a.slope_complexity == 0.18

    def test_valid_flat_response(self):
        a = parse_vlm_response(b'{"terrain_class":"flat","rock_complexity":0.04,"slope_complexity":0.04}')
        assert a.terrain_class is TerrainClass.FLAT

    def test_out_of_range_score_rejected(self):
        with pytest.raises(VlmSchemaError):
            parse_vlm_response(b'{"terrain_class":"rocky","rock_complexity":1.4,"slope_complexity":0.1}')

    def test_extra_field_rejected(self):
        with pytest.raises(VlmSchemaError):
            parse_vlm_response(
                b'{"terrain_class":"flat","rock_complexity":0.1,"slope_complexity":0.1,"note":"hi"}'
            )

    def test_repeated_field_rejected(self):
        with pytest.raises(VlmSchemaError):
            parse_vlm_response(
                b'{"terrain_class":"flat","rock_complexity":0.1,"slope_complexity":0.1,"rock_complexity":0.2}'
            )

    def test_score_too_large_for_a_float_rejected(self):
        # a 400-digit integer parses, but float() overflows on it
        with pytest.raises(VlmSchemaError):
            parse_vlm_response(
                b'{"terrain_class":"flat","rock_complexity":1' + b"0" * 399 + b',"slope_complexity":0.1}'
            )

    def test_score_past_the_integer_digit_limit_rejected(self):
        # json.loads refuses an integer of more than 4300 digits
        with pytest.raises(VlmSchemaError):
            parse_vlm_response(
                b'{"terrain_class":"flat","rock_complexity":1' + b"0" * 4999 + b',"slope_complexity":0.1}'
            )

    def test_missing_field_rejected(self):
        with pytest.raises(VlmSchemaError):
            parse_vlm_response(b'{"terrain_class":"flat","rock_complexity":0.1}')

    def test_malformed_json_rejected(self):
        with pytest.raises(VlmSchemaError):
            parse_vlm_response(b"terrain looks fine to me")

    def test_unknown_class_rejected(self):
        with pytest.raises(VlmSchemaError):
            parse_vlm_response(b'{"terrain_class":"swamp","rock_complexity":0.1,"slope_complexity":0.1}')

    def test_boolean_score_rejected(self):
        with pytest.raises(VlmSchemaError):
            parse_vlm_response(b'{"terrain_class":"flat","rock_complexity":true,"slope_complexity":0.1}')


@pytest.mark.parametrize("endpoint", ["not a url", "http://[::1", "ftp://host/", "http:///path", "",
                                      "http://localhost:abc/", "http://h:99999/", "http://h:-1/"])
def test_vlm_config_rejects_an_endpoint_that_is_no_http_url_with_a_host(endpoint):
    with pytest.raises(ValidationError):
        VlmConfig(endpoint)


class TestMockClassifier:
    def test_flat_spec_scores_low(self):
        spec = make_spec(rock_coverage=0.01, height_variation=0.2)
        terrain = plane_terrain(0.5, extent=100.0)
        a = mock_classify(spec, terrain.ground, (50.0, 50.0), seed=3)
        assert a.terrain_class is TerrainClass.FLAT
        assert a.rock_complexity <= 0.15
        assert a.slope_complexity <= 0.15

    def test_rocky_spec_scores_from_coverage(self):
        spec = make_spec(rock_coverage=0.06, ground_truth_class=TerrainClass.ROCKY)
        terrain = plane_terrain(0.5, extent=100.0)
        a = mock_classify(spec, terrain.ground, (50.0, 50.0), seed=3)
        assert a.terrain_class is TerrainClass.ROCKY
        assert a.rock_complexity == pytest.approx(0.54, abs=0.051)

    def test_steep_hillside_challenging(self):
        spec = make_spec(rock_coverage=0.01, height_variation=40.0)
        terrain = plane_terrain(30.0, extent=100.0)
        a = mock_classify(spec, terrain.ground, (50.0, 50.0), seed=3)
        assert a.slope_complexity == pytest.approx(30.0 / 45.0, abs=0.051)
        assert a.terrain_class is TerrainClass.CHALLENGING

    def test_deterministic_per_seed_and_position(self):
        spec = make_spec()
        terrain = plane_terrain(5.0, extent=100.0)
        a = mock_classify(spec, terrain.ground, (40.0, 40.0), seed=9)
        b = mock_classify(spec, terrain.ground, (40.0, 40.0), seed=9)
        assert (a.rock_complexity, a.slope_complexity) == (b.rock_complexity, b.slope_complexity)
        c = mock_classify(spec, terrain.ground, (40.0, 40.0), seed=10)
        assert (a.rock_complexity, a.slope_complexity) != (c.rock_complexity, c.slope_complexity)

    def test_class_consistent_with_own_scores(self):
        terrain = plane_terrain(12.0, extent=100.0)
        for seed in range(40):
            spec = make_spec(rock_coverage=0.01 + (seed % 5) * 0.011,
                             ground_truth_class=TerrainClass.FLAT if (seed % 5) < 2 else TerrainClass.ROCKY)
            a = mock_classify(spec, terrain.ground, (20.0 + seed, 30.0), seed=seed)
            assert a.terrain_class is class_for_scores(a.rock_complexity, a.slope_complexity)
            assert 0.0 <= a.rock_complexity <= 1.0
            assert 0.0 <= a.slope_complexity <= 1.0

    @pytest.mark.parametrize("rock, slope, cls", [
        (0.0, 0.0, TerrainClass.FLAT),
        (0.2499, 0.4999, TerrainClass.FLAT),
        (0.25, 0.4999, TerrainClass.ROCKY),
        (0.0, 0.5, TerrainClass.CHALLENGING),
        (1.0, 1.0, TerrainClass.CHALLENGING),
    ])
    def test_class_for_scores_cutoffs(self, rock, slope, cls):
        assert class_for_scores(rock, slope) is cls


class TestRendering:
    def test_patch_image_is_binary_graymap(self):
        patch = patch_from(np.random.default_rng(0).normal(0, 0.2, size=(40, 40)), cell=0.5)
        data = render_patch_image(patch)
        assert data.startswith(b"P5\n40 40\n255\n")
        assert len(data) == len(b"P5\n40 40\n255\n") + 1600

    def test_patch_image_bytes_pinned(self):
        ys, xs = np.mgrid[0:24, 0:32] * 0.5
        z = np.sin(0.7 * xs) + 0.4 * np.cos(1.3 * ys) + 0.05 * xs * ys
        data = render_patch_image(HeightField(z, (3.0, -2.0), 0.5))
        assert data.startswith(b"P5\n32 24\n255\n")
        assert hashlib.sha256(data).hexdigest() == (
            "7a66af972ef66c5e8a5b63102913d8ee02ab0d99eb3b3d5df14f6a6cd2cfb3f3")


# Verdicts of the offline classifiers on each preset's scenes, seeds 0-2,
# 18 patch centres per scene, keyed by the preset's ground-truth class. A
# change to either classifier moves these counts on purpose and says so.
CONFUSION = {
    "geometric": {"flat": {"flat": 54}, "rocky": {"rocky": 38, "flat": 16},
                  "challenging": {"challenging": 50, "flat": 3, "rocky": 1}},
    "mock": {"flat": {"flat": 54}, "rocky": {"rocky": 54},
             "challenging": {"challenging": 9, "rocky": 45}},
}


def test_offline_classifiers_against_preset_ground_truth():
    got = {name: {} for name in CONFUSION}
    for truth in ("flat", "rocky", "challenging"):
        for seed in range(3):
            world = build_scene(truth, seed).world
            assert {seg.spec.ground_truth_class.value for seg in world.terrain.segments} == {truth}
            for name, backend in (("geometric", GeometricClassifierBackend()),
                                  ("mock", MockClassifierBackend(seed))):
                counts = got[name].setdefault(truth, Counter())
                for x in range(20, 121, 20):
                    for y in (35.0, 70.0, 105.0):
                        counts[backend.assess(world, (float(x), y)).terrain_class.value] += 1
    assert got == CONFUSION
