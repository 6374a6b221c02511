import hashlib
import math

import numpy as np
import pytest

from rovernav.config import preset_spec
from rovernav.errors import ValidationError
from rovernav.modes import ROCK_SCORE_CUTOFF, ROCK_SCORE_GAIN, TerrainClass
from rovernav.terrain import (
    ROCK_RADIUS_RANGE,
    Rock,
    TerrainSpec,
    add_rocks_to_field,
    build_mixed_terrain,
    build_terrain,
    generate_heightfield,
    load_terrain,
    place_rocks,
    save_terrain,
    spec_from_dict,
    spec_to_dict,
)

from conftest import make_spec


class TestGrayscaleMapping:
    """generate_heightfield maps 8-bit gray levels linearly onto [0, height_variation]."""

    def test_lower_endpoint(self):
        assert generate_heightfield(make_spec(height_variation=5.0)).elevation.min() == 0.0

    def test_upper_endpoint(self):
        assert generate_heightfield(make_spec(height_variation=5.0)).elevation.max() == 5.0

    def test_midpoint_arithmetic(self):
        elevation = generate_heightfield(make_spec(height_variation=2.0)).elevation
        gray = np.rint(elevation / 2.0 * 255.0)
        assert ((gray >= 0) & (gray <= 255)).all()
        assert np.array_equal(elevation, gray / 255.0 * 2.0)


class TestHeightfield:
    def test_range_bounded_by_height_variation(self):
        spec = make_spec(octaves=3, lacunarity=1.0, height_variation=0.2, seed=42)
        fld = generate_heightfield(spec)
        assert fld.elevation.min() == 0.0
        assert fld.elevation.max() <= 0.2 + 1e-12
        # normalization hits gray 255 somewhere, so the max is exact
        assert fld.elevation.max() == pytest.approx(0.2, abs=0.2 / 255)

    def test_zero_height_variation_gives_flat(self):
        spec = make_spec(height_variation=0.0)
        fld = generate_heightfield(spec)
        assert np.all(fld.elevation == 0.0)

    def test_deterministic_in_seed(self):
        spec = make_spec(seed=77)
        a = generate_heightfield(spec)
        b = generate_heightfield(spec)
        assert np.array_equal(a.elevation, b.elevation)

    def test_different_seeds_differ(self):
        a = generate_heightfield(make_spec(seed=1))
        b = generate_heightfield(make_spec(seed=2))
        assert not np.array_equal(a.elevation, b.elevation)

    def test_grid_shape(self):
        spec = make_spec(extent=50.0, cell_size=0.5)
        fld = generate_heightfield(spec)
        assert fld.rows == fld.cols == 100

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValidationError):
            make_spec(extent=-10.0)
        with pytest.raises(ValidationError):
            make_spec(cell_size=0.0)
        with pytest.raises(ValidationError):
            make_spec(extent=10.0, cell_size=0.3)  # not an integer cell count
        with pytest.raises(ValidationError):
            make_spec(rock_coverage=0.5)

    def test_class_consistency_enforced(self):
        with pytest.raises(ValidationError):
            make_spec(rock_coverage=0.04, ground_truth_class=TerrainClass.FLAT)
        with pytest.raises(ValidationError):
            make_spec(rock_coverage=0.01, ground_truth_class=TerrainClass.ROCKY)

    def test_class_consistency_splits_at_the_rock_score_cutoff(self):
        # the least coverage whose rock score reaches ROCK_SCORE_CUTOFF is
        # rocky, and the float below it is flat, as `class_for_scores` says
        at = ROCK_SCORE_CUTOFF / ROCK_SCORE_GAIN
        while ROCK_SCORE_GAIN * at < ROCK_SCORE_CUTOFF:
            at = math.nextafter(at, 1.0)
        while ROCK_SCORE_GAIN * math.nextafter(at, 0.0) >= ROCK_SCORE_CUTOFF:
            at = math.nextafter(at, 0.0)
        below = math.nextafter(at, 0.0)
        assert make_spec(rock_coverage=at, ground_truth_class=TerrainClass.ROCKY).rock_coverage == at
        assert make_spec(rock_coverage=below, ground_truth_class=TerrainClass.FLAT).rock_coverage == below
        with pytest.raises(ValidationError, match="too high for a flat"):
            make_spec(rock_coverage=at, ground_truth_class=TerrainClass.FLAT)
        with pytest.raises(ValidationError, match="too low for a rocky"):
            make_spec(rock_coverage=below, ground_truth_class=TerrainClass.ROCKY)


class TestRocks:
    def test_zero_coverage_empty(self):
        spec = make_spec(rock_coverage=0.0)
        fld = generate_heightfield(spec)
        assert len(place_rocks(spec, fld)) == 0

    def test_disc_area_within_tolerance(self):
        # 0.04 coverage over a 100 m square: disc area within 10% of 400 m^2
        spec = make_spec(rock_coverage=0.04, extent=100.0,
                         ground_truth_class=TerrainClass.ROCKY)
        fld = generate_heightfield(spec)
        rocks = place_rocks(spec, fld)
        assert 0.036 <= sum(math.pi * r.radius**2 for r in rocks) / 100.0**2 <= 0.044

    def test_deterministic(self):
        spec = make_spec(rock_coverage=0.03, ground_truth_class=TerrainClass.ROCKY)
        fld = generate_heightfield(spec)
        a = place_rocks(spec, fld)
        b = place_rocks(spec, fld)
        assert a == b

    def test_rocks_strictly_inside_extent(self):
        spec = make_spec(rock_coverage=0.04, extent=80.0,
                         ground_truth_class=TerrainClass.ROCKY)
        fld = generate_heightfield(spec)
        for rock in place_rocks(spec, fld):
            assert rock.x - rock.radius >= 0.0
            assert rock.x + rock.radius <= 80.0
            assert rock.y - rock.radius >= 0.0
            assert rock.y + rock.radius <= 80.0
            assert ROCK_RADIUS_RANGE[0] <= rock.radius <= ROCK_RADIUS_RANGE[1]

    def test_cap_profile(self):
        rock = Rock(0.0, 0.0, radius=1.0, height=0.8)
        assert rock.cap_height(0.0, 0.0) == pytest.approx(0.8)
        assert rock.cap_height(1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert rock.cap_height(2.0, 0.0) == 0.0
        mid = float(rock.cap_height(0.5, 0.0))
        assert 0.0 < mid < 0.8

    def test_stamped_relief_bounded(self):
        spec = make_spec(rock_coverage=0.04, extent=80.0, height_variation=1.0,
                         ground_truth_class=TerrainClass.ROCKY)
        fld = generate_heightfield(spec)
        rocks = place_rocks(spec, fld)
        full = add_rocks_to_field(fld, rocks)
        tallest = max((r.height for r in rocks), default=0.0)
        assert full.elevation.max() - full.elevation.min() <= 1.0 + tallest + 1e-9


class TestMixedTerrain:
    def test_segments_cover_extent(self):
        specs = [make_spec(extent=60.0, seed=i) for i in range(3)]
        terrain = build_mixed_terrain(specs)
        assert terrain.extent_x == pytest.approx(180.0)
        assert terrain.extent_y == pytest.approx(60.0)
        assert terrain.spec_at(10.0) is specs[0]
        assert terrain.spec_at(70.0) is specs[1]
        assert terrain.spec_at(179.0) is specs[2]

    def test_mismatched_tiles_rejected(self):
        with pytest.raises(ValidationError):
            build_mixed_terrain([make_spec(extent=60.0), make_spec(extent=80.0)])


class TestExportImport:
    def test_round_trip_exact(self, tmp_path):
        spec = make_spec(rock_coverage=0.03, extent=60.0,
                         ground_truth_class=TerrainClass.ROCKY, seed=5)
        terrain = build_terrain(spec)
        save_terrain(terrain, tmp_path / "t")
        loaded = load_terrain(tmp_path / "t")
        assert np.array_equal(loaded.ground.elevation, terrain.ground.elevation)
        assert loaded.rocks == terrain.rocks
        assert loaded.segments[0].spec == terrain.segments[0].spec

    def test_re_export_is_byte_identical(self, tmp_path):
        terrain = build_terrain(make_spec(extent=60.0, seed=9))
        save_terrain(terrain, tmp_path / "a")
        save_terrain(load_terrain(tmp_path / "a"), tmp_path / "b")
        for name in ("elevation.pgm", "terrain.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_export_bytes_are_pinned(self, tmp_path):
        # The files the rocky preset at seed 3 exports; a drift in the
        # format or in generation changes them.
        save_terrain(build_terrain(preset_spec("rocky", 3)), tmp_path)
        for name, digest in [
            ("terrain.json", "ecaba72e6d4f5a363026764e759a15b872c6a7467f7b80439a7679d839426f14"),
            ("elevation.pgm", "125ca4bd5b6a3c74074ccb8e519eb19e715ba83c7473d494214e9fcdf498146d"),
        ]:
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


    def test_spec_without_persistence_takes_the_spec_default(self):
        data = spec_to_dict(make_spec(persistence=0.7))
        del data["persistence"]
        assert spec_from_dict(data) == make_spec(persistence=TerrainSpec.persistence)
