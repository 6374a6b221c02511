import math

import numpy as np
import pytest

from rovernav.errors import EmptyPatchError
from rovernav.terrain import Rock, RockSet, Terrain, build_terrain
from rovernav.world import (
    HazardKind,
    RoverState,
    VelocityCommand,
    World,
    normalize_angle,
    step,
)

from conftest import flat_terrain, make_spec, plane_terrain


class TestStep:
    def test_straight_motion(self):
        s = step(RoverState(0, 0, 0.0), VelocityCommand(1.0, 0.0), 1.0)
        assert (s.x, s.y, s.heading) == pytest.approx((1.0, 0.0, 0.0))

    def test_rest_advances_only_time(self):
        s0 = RoverState(3.0, 4.0, 0.7, time=2.0)
        s1 = step(s0, VelocityCommand(0.0, 0.0), 0.5)
        assert (s1.x, s1.y, s1.heading) == (s0.x, s0.y, s0.heading)
        assert s1.time == pytest.approx(2.5)

    def test_pure_rotation(self):
        s = step(RoverState(0, 0, 0.0), VelocityCommand(0.0, math.pi / 2), 1.0)
        assert s.heading == pytest.approx(math.pi / 2)

    def test_displacement_bounded_by_speed(self):
        state = RoverState(0, 0, 0.3)
        for _ in range(50):
            new = step(state, VelocityCommand(1.7, 0.9), 0.05)
            moved = math.hypot(new.x - state.x, new.y - state.y)
            assert moved <= 1.7 * 0.05 + 1e-12
            state = new

    def test_reproducible_sequences(self):
        cmds = [VelocityCommand(1.0, 0.2 * i) for i in range(10)]

        def run():
            s = RoverState(1.0, 2.0, 0.1)
            for c in cmds:
                s = step(s, c, 0.05)
            return s

        assert run() == run()

    def test_angle_normalization(self):
        assert normalize_angle(math.pi) == pytest.approx(math.pi)
        assert normalize_angle(-math.pi) == pytest.approx(math.pi)
        assert normalize_angle(3 * math.pi) == pytest.approx(math.pi)
        assert -math.pi < normalize_angle(2.5 * math.pi) <= math.pi


class TestSensing:
    def test_flat_world_patch_is_zero(self):
        world = World(flat_terrain())
        patch = world.sense_elevation_patch(RoverState(30, 30, 0), 20.0, 0.5)
        assert np.all(patch.elevation == 0.0)

    def test_patch_shape_matches_request(self):
        world = World(flat_terrain())
        patch = world.sense_elevation_patch(RoverState(30, 30, 0), 20.0, 0.1)
        assert patch.rows == patch.cols == 200

    def test_rock_apex_sensed_at_full_height(self):
        terrain = flat_terrain()
        terrain.rocks = RockSet([Rock(30.0, 30.0, 1.5, 1.2)])
        world = World(terrain)
        patch = world.sense_elevation_patch(RoverState(30.05, 30.05, 0), 10.0, 0.1)
        # apex cell: ground 0 plus (nearly) the full cap height
        assert patch.elevation.max() == pytest.approx(1.2, abs=0.01)

    def test_patch_matches_direct_sampling(self):
        spec = make_spec(extent=60.0, height_variation=2.0, rock_coverage=0.0)
        terrain = build_terrain(spec)
        world = World(terrain)
        patch = world.sense_elevation_patch(RoverState(30, 30, 0), 12.0, 0.3)
        xs = patch.origin[0] + (np.arange(patch.cols) + 0.5) * patch.cell_size
        ys = patch.origin[1] + (np.arange(patch.rows) + 0.5) * patch.cell_size
        gx, gy = np.meshgrid(xs, ys)
        direct = terrain.ground.sample(gx, gy)
        assert np.array_equal(patch.elevation, direct)

    def test_patch_with_edge_rocks_and_noise_is_byte_exact(self):
        # Rocks straddling the window edge, and one wholly outside it, against
        # a full-lattice reference: ground sampled on the meshgrid, the tallest
        # cap over the whole window, then noise from a generator of the same seed.
        spec = make_spec(extent=60.0, height_variation=2.0, rock_coverage=0.0)
        ground = build_terrain(spec)
        rocks = RockSet([Rock(24.2, 30.0, 2.5, 1.6), Rock(35.9, 36.1, 3.0, 2.0),
                         Rock(30.0, 24.05, 1.3, 0.9), Rock(31.0, 30.5, 1.0, 0.5),
                         Rock(50.0, 50.0, 2.0, 1.0)])
        terrain = Terrain(ground.ground, rocks, ground.segments)
        pose, size, res, sigma, seed = RoverState(30.0, 30.0, 0), 12.0, 0.3, 0.02, 5
        patch = World(terrain, sensor_sigma=sigma, seed=seed).sense_elevation_patch(pose, size, res)

        origin = (pose.x - size / 2, pose.y - size / 2)
        n = round(size / res)
        xs = origin[0] + (np.arange(n) + 0.5) * res
        ys = origin[1] + (np.arange(n) + 0.5) * res
        gx, gy = np.meshgrid(xs, ys)
        layer = np.zeros(gx.shape)
        for rock in rocks.rocks:
            layer = np.maximum(layer, rock.cap_height(gx, gy))
        assert layer[0].any() and layer[:, 0].any() and layer[-1].any() and layer[:, -1].any()
        rng = np.random.default_rng(np.random.SeedSequence([seed, 23]))
        want = (terrain.ground.sample(gx, gy) + layer) + rng.normal(0.0, sigma, size=gx.shape)
        assert patch.elevation.tobytes() == want.tobytes()

    def test_fully_outside_window_raises(self):
        world = World(flat_terrain(extent=60.0))
        with pytest.raises(EmptyPatchError):
            world.sense_elevation_patch(RoverState(200.0, 200.0, 0), 20.0, 0.5)

    def test_sense_points_drop_out_of_map_cells(self):
        world = World(flat_terrain(extent=60.0))
        pts = world.sense_points(RoverState(5.0, 5.0, 0), 20.0, 0.5)
        assert len(pts) > 0
        assert (pts[:, 0] >= 0).all() and (pts[:, 1] >= 0).all()
        # window reached beyond the border, so some cells were dropped
        assert len(pts) < 40 * 40

    def test_noise_deterministic_per_seed(self):
        t = flat_terrain()
        a = World(t, sensor_sigma=0.02, seed=3).sense_elevation_patch(RoverState(30, 30, 0), 10, 0.5)
        b = World(t, sensor_sigma=0.02, seed=3).sense_elevation_patch(RoverState(30, 30, 0), 10, 0.5)
        assert np.array_equal(a.elevation, b.elevation)
        assert a.elevation.std() > 0.0


class TestHazards:
    def test_pose_at_rock_center_collides(self):
        terrain = flat_terrain()
        terrain.rocks = RockSet([Rock(30.0, 30.0, 1.0, 0.8)])
        world = World(terrain)
        ev = world.check_hazard(RoverState(30.0, 30.0, 0.0, time=4.0))
        assert ev is not None and ev.kind is HazardKind.ROCK_COLLISION
        assert ev.time == 4.0

    def test_touching_disc_collides_but_clear_pose_does_not(self):
        terrain = flat_terrain()
        terrain.rocks = RockSet([Rock(30.0, 30.0, 1.0, 0.8)])
        world = World(terrain)
        assert world.check_hazard(RoverState(30.0 + 3.2, 30.0, 0.0)) is not None
        assert world.check_hazard(RoverState(30.0 + 3.5, 30.0, 0.0)) is None

    def test_flat_plane_no_hazard(self):
        world = World(flat_terrain())
        assert world.check_hazard(RoverState(30, 30, 0)) is None

    def test_incline_beyond_limit_tilts(self):
        world = World(plane_terrain(35.0))
        ev = world.check_hazard(RoverState(30, 30, 0))
        assert ev is not None and ev.kind is HazardKind.TILT_EXCEEDED

    def test_incline_below_limit_ok(self):
        world = World(plane_terrain(25.0))
        assert world.check_hazard(RoverState(30, 30, 0)) is None

    def test_off_map_detected(self):
        world = World(flat_terrain(extent=60.0))
        ev = world.check_hazard(RoverState(1.0, 30.0, 0.0))
        assert ev is not None and ev.kind is HazardKind.OFF_MAP
        # event position clamps inside the extent
        assert 0.0 <= ev.position[0] <= 60.0
