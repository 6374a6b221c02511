import math
from collections import Counter

import numpy as np
import pytest

import rovernav.world as world_module
from rovernav.config import build_scene
from rovernav.errors import EmptyPatchError, ValidationError
from rovernav.grids import cell_center, plane_fit_points
from rovernav.terrain import HeightField, Rock, Terrain, build_terrain
from rovernav.world import (
    FOOTPRINT_RADIUS,
    TILT_LIMIT_DEG,
    TRAJECTORY_HEADER,
    HazardKind,
    RoverState,
    VelocityCommand,
    World,
    format_trajectory_row,
    normalize_angle,
    read_trajectory,
    step,
)

from conftest import flat_terrain, make_spec, plane_terrain
from oracles import cell_hull, hazard_at


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


def patch_around(world, x, y, size, resolution):
    """The size x size patch centred on (x, y)."""
    n = round(size / resolution)
    return world.sense_elevation_patch((x - size / 2, y - size / 2), (n, n), resolution)


class TestSensing:
    def test_flat_world_patch_is_zero(self):
        world = World(flat_terrain())
        patch = patch_around(world, 30, 30, 20.0, 0.5)
        assert np.all(patch.elevation == 0.0)

    def test_patch_shape_matches_request(self):
        world = World(flat_terrain())
        patch = world.sense_elevation_patch((20.0, 25.0), (200, 150), 0.1)
        assert (patch.rows, patch.cols, patch.origin, patch.cell_size) == (200, 150, (20.0, 25.0), 0.1)

    def test_rock_apex_sensed_at_full_height(self):
        terrain = flat_terrain()
        terrain.rocks = [Rock(30.0, 30.0, 1.5, 1.2)]
        world = World(terrain)
        patch = patch_around(world, 30.05, 30.05, 10.0, 0.1)
        # apex cell: ground 0 plus (nearly) the full cap height
        assert patch.elevation.max() == pytest.approx(1.2, abs=0.01)

    def test_patch_matches_direct_sampling(self):
        spec = make_spec(extent=60.0, height_variation=2.0, rock_coverage=0.0)
        terrain = build_terrain(spec)
        world = World(terrain)
        patch = patch_around(world, 30, 30, 12.0, 0.3)
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
        rocks = [Rock(24.2, 30.0, 2.5, 1.6), Rock(35.9, 36.1, 3.0, 2.0),
                 Rock(30.0, 24.05, 1.3, 0.9), Rock(31.0, 30.5, 1.0, 0.5),
                 Rock(50.0, 50.0, 2.0, 1.0)]
        terrain = Terrain(ground.ground, rocks, ground.segments)
        origin, n, res, sigma, seed = (24.0, 24.0), 40, 0.3, 0.02, 5
        patch = World(terrain, sensor_sigma=sigma, seed=seed).sense_elevation_patch(origin, (n, n), res)

        xs = origin[0] + (np.arange(n) + 0.5) * res
        ys = origin[1] + (np.arange(n) + 0.5) * res
        gx, gy = np.meshgrid(xs, ys)
        layer = np.zeros(gx.shape)
        for rock in rocks:
            layer = np.maximum(layer, rock.cap_height(gx, gy))
        assert layer[0].any() and layer[:, 0].any() and layer[-1].any() and layer[:, -1].any()
        rng = np.random.default_rng(np.random.SeedSequence([seed, 23]))
        want = (terrain.ground.sample(gx, gy) + layer) + rng.normal(0.0, sigma, size=gx.shape)
        assert patch.elevation.tobytes() == want.tobytes()

    def test_fully_outside_window_raises(self):
        world = World(flat_terrain(extent=60.0))
        with pytest.raises(EmptyPatchError):
            world.sense_elevation_patch((190.0, 190.0), (40, 40), 0.5)
        with pytest.raises(EmptyPatchError):
            world.sense_points((190.0, 190.0), (40, 40), 0.5)

    @pytest.mark.parametrize("origin, shape", [
        ((-20.0, 10.0), (40, 40)), ((10.0, -20.0), (40, 40)),
        ((60.0, 10.0), (4, 4)), ((10.0, 60.0), (4, 4)),
    ])
    def test_window_touching_the_border_from_outside_raises(self, origin, shape):
        world = World(flat_terrain(extent=60.0))
        with pytest.raises(EmptyPatchError):
            world.sense_points(origin, shape, 0.5)

    @pytest.mark.parametrize("shape, resolution", [((0, 4), 0.5), ((4, -1), 0.5), ((4, 4), 0.0)])
    def test_empty_lattice_rejected(self, shape, resolution):
        with pytest.raises(ValidationError):
            World(flat_terrain()).sense_elevation_patch((10.0, 10.0), shape, resolution)

    def test_sense_points_drop_out_of_map_cells(self):
        # The patch hangs 5 m off the map's lower-left corner: its first ten
        # rows and columns of 0.5 m cells have centres off the map.
        t = build_scene("rocky", 0).terrain
        patch = World(t, sensor_sigma=0.02, seed=1).sense_points((-5.0, -5.0), (40, 40), 0.5)
        full = World(t, sensor_sigma=0.02, seed=1).sense_elevation_patch((-5.0, -5.0), (40, 40), 0.5)
        known = np.isfinite(patch.elevation)
        assert not known[:10].any() and not known[:, :10].any() and known[10:, 10:].all()
        # the same draws, in the same order, as the patch they mask
        assert patch.elevation[10:, 10:].tobytes() == full.elevation[10:, 10:].tobytes()
        assert (patch.origin, patch.cell_size) == (full.origin, full.cell_size)

    def test_noise_deterministic_per_seed(self):
        t = flat_terrain()
        a = patch_around(World(t, sensor_sigma=0.02, seed=3), 30, 30, 10, 0.5)
        b = patch_around(World(t, sensor_sigma=0.02, seed=3), 30, 30, 10, 0.5)
        assert np.array_equal(a.elevation, b.elevation)
        assert a.elevation.std() > 0.0


class TestHazards:
    def test_pose_at_rock_center_collides(self):
        terrain = flat_terrain()
        terrain.rocks = [Rock(30.0, 30.0, 1.0, 0.8)]
        world = World(terrain)
        ev = world.check_hazard(RoverState(30.0, 30.0, 0.0, time=4.0))
        assert ev is not None and ev.kind is HazardKind.ROCK_COLLISION
        assert ev.time == 4.0

    def test_touching_disc_collides_but_clear_pose_does_not(self):
        terrain = flat_terrain()
        terrain.rocks = [Rock(30.0, 30.0, 1.0, 0.8)]
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


def terrain_of(elevation, cell=0.5):
    return Terrain(HeightField(np.asarray(elevation, dtype=float), (0.0, 0.0), cell), [], [])


ADVERSARIAL_POSE = RoverState(15.13, 14.87, 0.0)


def adversarial_terrain(h, cell=0.5, n=60):
    """Every ground cell holds +h/2 or -h/2: +h/2 in the bilinear stencil of
    each tilt sample around `ADVERSARIAL_POSE` whose x slope weight is
    positive (the weight has the sign of the sample's x offset), -h/2
    elsewhere, so the samples pull the fitted x slope as far as ground of
    range h can."""
    pose = ADVERSARIAL_POSE
    z = np.full((n, n), -h / 2)
    for sx, sy in zip(pose.x + world_module._TILT_DX, pose.y + world_module._TILT_DY):
        if sx > pose.x:
            c0, r0 = math.floor(sx / cell - 0.5), math.floor(sy / cell - 0.5)
            z[r0:r0 + 2, c0:c0 + 2] = h / 2
    return terrain_of(z, cell)


def _adversarial_limit():
    """The h at which the fit at `ADVERSARIAL_POSE` on `adversarial_terrain(h)`
    tilts exactly TILT_LIMIT_DEG: the fitted gradient is linear in h."""
    xs, ys = ADVERSARIAL_POSE.x + world_module._TILT_DX, ADVERSARIAL_POSE.y + world_module._TILT_DY
    a, b, _ = plane_fit_points(np.column_stack([xs, ys, adversarial_terrain(1.0).ground.sample(xs, ys)]))
    return math.tan(math.radians(TILT_LIMIT_DEG)) / math.hypot(a, b)


ADVERSARIAL_LIMIT = _adversarial_limit()


class TestTiltEarlyOut:
    def test_weights_are_the_plane_fit(self):
        rng = np.random.default_rng(13)
        for scale in (0.01, 1.0, 100.0):
            for z in rng.normal(0.0, scale, (50, len(world_module._TILT_DX))):
                a, b, _ = plane_fit_points(np.column_stack([world_module._TILT_DX, world_module._TILT_DY, z]))
                assert world_module._TILT_WEIGHTS @ z == pytest.approx([a, b], rel=0.0, abs=1e-12 * scale)

    @pytest.mark.parametrize("kind", ["flat", "rocky", "challenging", "mixed"])
    def test_preset_scenes_match_full_fit(self, kind):
        world = build_scene(kind, 0).world
        rng = np.random.default_rng(7)
        carried = tilted = 0
        for x, y, heading in zip(rng.uniform(0.0, world.terrain.extent_x, 600),
                                 rng.uniform(0.0, world.terrain.extent_y, 600),
                                 rng.uniform(-math.pi, math.pi, 600)):
            pose = RoverState(float(x), float(y), float(heading), time=1.5)
            got = world.check_hazard(pose)
            assert got == hazard_at(world.terrain, pose), pose
            carried += world._clearance[2] > 0.0
            tilted += got is not None and got.kind is HazardKind.TILT_EXCEEDED
        assert carried > 0
        if kind in ("challenging", "mixed"):
            assert tilted > 0

    @pytest.mark.parametrize("slope, hazard", [(29.9, False), (30.1, True)])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_planes_either_side_of_the_limit(self, slope, hazard, axis):
        world = World(plane_terrain(slope, axis=axis))
        rng = np.random.default_rng(3)
        # Every pose whose footprint stays within the outermost cell centres,
        # a quarter metre in from each edge.
        lo, hi = FOOTPRINT_RADIUS + 0.25, 60.0 - FOOTPRINT_RADIUS - 0.25
        for x, y in [(lo, lo), (lo, hi), (hi, lo), (hi, hi)] + list(rng.uniform(lo, hi, (50, 2))):
            pose = RoverState(float(x), float(y), 0.0)
            got = world.check_hazard(pose)
            assert got == hazard_at(world.terrain, pose)
            assert (got is not None and got.kind is HazardKind.TILT_EXCEEDED) == hazard

    @pytest.mark.parametrize("edge", [2.3, 2.4, 2.5, 57.5, 57.6, 57.7])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_steep_plane_is_a_hazard_up_to_the_edge(self, edge, axis):
        # Beyond the outermost cell centres the edge-clamped sampler flattens
        # the plane, so a footprint reaching there is off the map.
        world = World(plane_terrain(30.1, axis=axis))
        pose = RoverState(edge, 30.0, 0.0) if axis == "x" else RoverState(30.0, edge, 0.0)
        got = world.check_hazard(pose)
        assert got is not None and got.kind is HazardKind.OFF_MAP

    @pytest.mark.parametrize("h, carried, tilt", [
        (ADVERSARIAL_LIMIT * 0.5, True, False),
        (ADVERSARIAL_LIMIT * (1.0 - 1e-9), False, False),
        (ADVERSARIAL_LIMIT * (1.0 + 1e-9), False, True),
        (4.0, False, True),
    ])
    def test_adversarial_ground(self, h, carried, tilt):
        # Either side of the limit, and within the tilt slack's rounding
        # margin of it, so that the check keeps no clearance.
        pose = ADVERSARIAL_POSE
        world = World(adversarial_terrain(h))
        got = world.check_hazard(pose)
        assert got == hazard_at(world.terrain, pose)
        assert (got is not None and got.kind is HazardKind.TILT_EXCEEDED) is tilt
        assert (world._clearance[2] > 0.0) is carried


def walk(terrain, rng, n, start=None):
    """n poses of a walk over the map in steps of 0.01-0.2 m with a drifting
    heading, from `start` or a random pose. Now and then the walk jumps to a
    random pose, and off-map poses and poses on a rock are mixed in without
    moving it."""
    lo = FOOTPRINT_RADIUS + 0.3
    hi_x, hi_y = terrain.extent_x - lo, terrain.extent_y - lo

    def anywhere():
        return float(rng.uniform(lo, hi_x)), float(rng.uniform(lo, hi_y))

    x, y = anywhere() if start is None else start
    heading = float(rng.uniform(-math.pi, math.pi))
    poses = []
    while len(poses) < n:
        u = rng.random()
        if u < 0.01:
            poses.append(RoverState(float(rng.uniform(0.0, FOOTPRINT_RADIUS)), y, heading))
        elif u < 0.02 and terrain.rocks:
            rock = terrain.rocks[rng.integers(len(terrain.rocks))]
            poses.append(RoverState(rock.x + 0.5 * rock.radius, rock.y, heading))
        else:
            if u < 0.04:
                x, y = anywhere()
            else:
                heading += float(rng.normal(0.0, 0.2))
                length = float(rng.uniform(0.01, 0.2))
                x, y = x + length * math.cos(heading), y + length * math.sin(heading)
                if not (lo <= x <= hi_x and lo <= y <= hi_y):
                    x, y = anywhere()
            poses.append(RoverState(x, y, heading))
    return poses


def grazing_walk(terrain, rng, legs):
    """Legs that each close in on a rock disc or a map edge along a straight
    line, halving the gap from under a metre down to a picometre, then step
    a few float steps either side of contact and on through it: a leg
    towards an edge runs off the map."""
    r = FOOTPRINT_RADIUS
    x_lo, x_hi, y_lo, y_hi = cell_hull(terrain.ground)
    edges = [(x_lo + r, 1.0, "x"), (x_hi - r, -1.0, "x"), (y_lo + r, 1.0, "y"), (y_hi - r, -1.0, "y")]
    poses = []
    for _ in range(legs):
        start = float(rng.uniform(0.05, 1.0))
        gaps = [start * 0.5 ** k for k in range(40)] + [2e-14, 1e-14, 0.0, -1e-14, -2e-14, -0.01, -0.5]
        theta = float(rng.uniform(-math.pi, math.pi))
        if rng.random() < 0.75:
            rock = terrain.rocks[rng.integers(len(terrain.rocks))]
            ux, uy, contact = math.cos(theta), math.sin(theta), rock.radius + r
            poses += [RoverState(rock.x + (contact + gap) * ux, rock.y + (contact + gap) * uy, theta)
                      for gap in gaps]
        else:
            at, inward, axis = edges[rng.integers(len(edges))]
            across = float(rng.uniform(r + 1.0, min(terrain.extent_x, terrain.extent_y) - r - 1.0))
            for gap in gaps:
                v = at + inward * gap
                poses.append(RoverState(v, across, theta) if axis == "x" else RoverState(across, v, theta))
    return poses


def ramp_terrain(extent=60.0, cell=0.5):
    """z = k * x^2, whose slope 2 * k * x reaches 30 degrees at x = 30 m."""
    n = round(extent / cell)
    x = (np.arange(n) + 0.5) * cell
    k = math.tan(math.radians(30.0)) / 60.0
    return terrain_of(np.tile(k * x * x, (n, 1)), cell)


def cliff_terrain(extent=60.0, cell=0.5):
    """Flat ground at z = 0 on the cell centres below x = 30 m and at 10 m
    beyond: one 10 m step between the centres at 29.75 and 30.25 m."""
    n = round(extent / cell)
    x = (np.arange(n) + 0.5) * cell
    return terrain_of(np.tile(np.where(x < 30.0, 0.0, 10.0), (n, 1)), cell)


def _steps_within(z, along, across, qa, qb, reach):
    """The largest |z[j, i + 1] - z[j, i]| that shapes the bilinear surface
    within `reach` of (qa, qb). The difference between the centres i and
    i + 1 of line j sets the slope along the lines for along[i] <= a <=
    along[i + 1], and for across[j - 1] <= b <= across[j + 1], on without
    end past an edge line, where the sampler clamps to it."""
    steps = np.abs(np.diff(z, axis=1))
    d_along = np.maximum(np.maximum(along[:-1] - qa, qa - along[1:]), 0.0)
    lo, hi = np.concatenate([[-np.inf], across[:-1]]), np.concatenate([across[1:], [np.inf]])
    d_across = np.maximum(np.maximum(lo - qb, qb - hi), 0.0)
    return float(steps[np.hypot(d_across[:, None], d_along[None, :]) <= reach].max(initial=0.0))


def true_growth(terrain, x, y):
    """The fit's growth per metre moved from (x, y), from its definition:
    S = sum of the fit weights' norms, times the ground's steepest rises
    along x and along y within FOOTPRINT_RADIUS + the slack cap of (x, y),
    over the cell size."""
    g = terrain.ground
    xs, ys = cell_center(np.arange(g.rows), np.arange(g.cols), g.origin, g.cell_size)
    reach = FOOTPRINT_RADIUS + world_module._TILT_SLACK_CAP
    gx = _steps_within(g.elevation, xs, ys, x, y, reach)
    gy = _steps_within(g.elevation.T, ys, xs, y, x, reach)
    return world_module._TILT_WEIGHT_SUM * math.hypot(gx, gy) / g.cell_size


def true_clearance(world, pose):
    """The least of the three distances a refresh keeps, from the
    definitions: the footprint's clearance to the hull of the cell centres,
    the tilt slack of the `plane_fit_points` fit over `true_growth`, capped,
    and the gap to every rock disc."""
    terrain, r = world.terrain, FOOTPRINT_RADIUS
    g = terrain.ground
    x_lo, x_hi, y_lo, y_hi = cell_hull(g)
    hull = min(pose.x - r - x_lo, x_hi - (pose.x + r), pose.y - r - y_lo, y_hi - (pose.y + r))
    xs, ys = pose.x + world_module._TILT_DX, pose.y + world_module._TILT_DY
    a, b, _ = plane_fit_points(np.column_stack([xs, ys, g.sample(xs, ys)]))
    limit = math.tan(math.radians(TILT_LIMIT_DEG)) * (1.0 - 1e-6)
    growth = true_growth(terrain, pose.x, pose.y)
    slack = min((limit - math.hypot(a, b)) / growth if growth else math.inf, world_module._TILT_SLACK_CAP)
    gaps = [math.hypot(rock.x - pose.x, rock.y - pose.y) - (rock.radius + r) for rock in terrain.rocks]
    return min(hull, slack, *gaps)


def check_walk(world, poses):
    """Every pose's hazard against `oracles.hazard_at`'s, pose by pose, and
    how often the checked world refreshed its clearance or answered from
    the carried one. A skipped pose reads neither the ground nor the rock
    index, and each refresh keeps at least the rounding margin less than
    the true clearance, or no clearance where that is negative: the world's
    growth, read over a wider box, can scale a negative tilt slack less."""
    calls = Counter()
    rocks_near, sample = world._rocks_near, world.terrain.ground.sample

    def counted_rocks_near(*args):
        calls["rocks"] += 1
        return rocks_near(*args)

    def counted_sample(*args):
        calls["sample"] += 1
        return sample(*args)

    got, paths = [], Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(world, "_rocks_near", counted_rocks_near)
        mp.setattr(world.terrain.ground, "sample", counted_sample)
        for pose in poses:
            before = calls.copy()
            got.append(world.check_hazard(pose))
            read = calls - before
            if read:
                assert read == Counter(rocks=1, sample=1), pose
                paths["refreshed"] += 1
                assert world._clearance[2] <= max(true_clearance(world, pose), 0.0) - 0.5e-9, pose
            else:
                paths["carried"] += 1
    want = [hazard_at(world.terrain, pose) for pose in poses]
    for pose, g, w in zip(poses, got, want):
        assert g == w, pose
    first = [next((i for i, h in enumerate(hs) if h is not None), None) for hs in (got, want)]
    assert first[0] == first[1]
    return got, paths


class TestCarriedTiltBound:
    def test_growth_on_a_plane_is_the_stated_bound(self):
        # a plane of slope s along x: adjacent cells differ by s * cell
        # everywhere, so every pose, the edges' too, reads S * s
        world = World(plane_terrain(20.0))
        slope = math.tan(math.radians(20.0))
        poses = [(0.0, 0.0), (30.0, 30.0), (59.9, 12.3), (-5.0, 70.0), *np.random.default_rng(2).uniform(0, 60, (20, 2))]
        for x, y in poses:
            assert world._tilt_growth(float(x), float(y)) == pytest.approx(24.0 / 23.0 * slope, rel=1e-12)
        assert world_module._TILT_WEIGHT_SUM == pytest.approx(24.0 / 23.0, rel=1e-12)

    @pytest.mark.parametrize("x", [22.9, 37.1])
    def test_pose_beyond_the_bound_of_a_cliff_carries_the_cap(self, x):
        # More than FOOTPRINT_RADIUS + the cap + one cell from the step's
        # piece of ground, [29.75, 30.25] m, the ground read is flat.
        world = World(cliff_terrain())
        assert world.check_hazard(RoverState(x, 30.0, 0.0)) is None
        assert world._clearance[2] == world_module._TILT_SLACK_CAP - 1e-9

    def test_scene_build_leaves_the_growth_unset(self):
        assert build_scene("mixed", 0).world._ground_steps is None

    @pytest.mark.parametrize("kind", ["challenging", "mixed"])
    def test_preset_walk_matches_full_fit(self, kind):
        world = build_scene(kind, 0).world
        got, paths = check_walk(world, walk(world.terrain, np.random.default_rng(17), 3000))
        kinds = Counter(h.kind for h in got if h is not None)
        assert kinds[HazardKind.OFF_MAP] > 0 and kinds[HazardKind.ROCK_COLLISION] > 0
        assert paths["carried"] > 0 and paths["refreshed"] > 0
        if kind == "mixed":
            assert kinds[HazardKind.TILT_EXCEEDED] > 0

    def test_grazing_walk_matches_full_fit(self):
        world = build_scene("rocky", 0).world
        poses = grazing_walk(world.terrain, np.random.default_rng(31), 60)
        got, paths = check_walk(world, poses)
        kinds = Counter(h.kind for h in got if h is not None)
        assert kinds[HazardKind.OFF_MAP] > 0 and kinds[HazardKind.ROCK_COLLISION] > 0
        assert paths["carried"] > 0 and paths["refreshed"] > 0

    @pytest.mark.parametrize("slope, hazard", [(29.9, False), (30.1, True)])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_plane_walks_match_full_fit(self, slope, hazard, axis):
        world = World(plane_terrain(slope, axis=axis))
        got, paths = check_walk(world, walk(world.terrain, np.random.default_rng(5), 800))
        tilted = sum(h is not None and h.kind is HazardKind.TILT_EXCEEDED for h in got)
        assert (tilted > 0) is hazard
        assert paths["refreshed"] > 0

    @pytest.mark.parametrize("h", [ADVERSARIAL_LIMIT * (1.0 - 1e-9), ADVERSARIAL_LIMIT * (1.0 + 1e-9), 4.0])
    def test_adversarial_ground_walk_matches_full_fit(self, h):
        world = World(adversarial_terrain(h))
        start = (ADVERSARIAL_POSE.x, ADVERSARIAL_POSE.y)
        got, _ = check_walk(world, [ADVERSARIAL_POSE, *walk(world.terrain, np.random.default_rng(23), 600, start)])
        assert (got[0] is not None) is (h > ADVERSARIAL_LIMIT)

    @pytest.mark.parametrize("start", [16.5, 17.0, 17.5, 18.0, 20.0])
    def test_cliff_walk_tilts_where_the_fit_does(self, start):
        # Metres of flat ground, then the cliff: a slack carried past the
        # cap, or a bound read short of the cliff, steps onto it untested.
        world = World(cliff_terrain())
        poses = [RoverState(start + 0.05 * i, 30.0, 0.0, time=0.05 * i)
                 for i in range(round((29.0 - start) / 0.05) + 1)]
        got, paths = check_walk(world, poses)
        first = next(i for i, h in enumerate(got) if h is not None)
        assert got[first].kind is HazardKind.TILT_EXCEEDED
        assert poses[first].x == pytest.approx(27.8)
        assert paths["carried"] > 0

    def test_flat_tiles_carry_metres(self):
        # The mixed course's flat tiles, 2 700 poses 0.1 m apart: the bound
        # read near each pose ignores the steep challenging tile.
        world = build_scene("mixed", 0).world
        got, paths = check_walk(world, [RoverState(5.0 + 0.1 * i, 70.0, 0.0) for i in range(2700)])
        assert got == [None] * 2700
        assert paths["refreshed"] <= 100

    def test_ramp_walk_crosses_the_limit_where_the_fit_does(self):
        world = World(ramp_terrain())
        rng = np.random.default_rng(29)
        x, poses = FOOTPRINT_RADIUS + 0.3, []
        while x < 60.0 - FOOTPRINT_RADIUS - 0.3:
            poses.append(RoverState(x, 30.0 + math.sin(x), 0.0, time=0.05 * len(poses)))
            x += float(rng.uniform(0.01, 0.2))
        got, paths = check_walk(world, poses)
        first = next(i for i, h in enumerate(got) if h is not None)
        assert got[first].kind is HazardKind.TILT_EXCEEDED
        assert 29.0 < poses[first].x < 31.0
        assert paths["carried"] > 0 and paths["refreshed"] > 0


def brute_force_rocks_near(rocks, x, y, radius):
    return [rock for rock in rocks
            if abs(rock.x - x) <= radius + rock.radius and abs(rock.y - y) <= radius + rock.radius]


class TestRockIndex:
    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(5)
        rocks = [Rock(float(x), float(y), float(rad), 0.8 * float(rad))
                 for x, y, rad in zip(rng.uniform(0, 100, 300), rng.uniform(0, 100, 300),
                                      rng.uniform(0.3, 3.5, 300))]
        # Rocks whose bounding box edge lies exactly at the query radius
        # (every sum below is exact), and one a float step beyond it.
        qx, qy, radius = 50.0, 40.0, 2.5
        edge = [Rock(qx + 4.0, qy, 1.5, 1.0), Rock(qx - 4.25, qy + 4.25, 1.75, 1.0),
                Rock(qx, qy - 5.5, 3.0, 2.0), Rock(qx - 3.0, qy + 3.0, 0.5, 0.4),
                Rock(math.nextafter(qx + 4.0, math.inf), qy, 1.5, 1.0)]
        terrain = flat_terrain(extent=100.0)
        terrain.rocks = rocks + edge
        world = World(terrain)
        near = world._rocks_near(qx, qy, radius)
        assert Counter(near) == Counter(brute_force_rocks_near(terrain.rocks, qx, qy, radius))
        assert set(edge[:4]) <= set(near) and edge[4] not in near
        for x, y, rad in zip(rng.uniform(-5, 105, 300), rng.uniform(-5, 105, 300),
                             rng.choice([0.0, 0.1, FOOTPRINT_RADIUS, 10.1, 40.0], 300)):
            want = brute_force_rocks_near(terrain.rocks, float(x), float(y), float(rad))
            assert Counter(world._rocks_near(float(x), float(y), float(rad))) == Counter(want)

    def test_no_rocks(self):
        assert World(flat_terrain())._rocks_near(30.0, 30.0, 100.0) == []

    def test_sensing_and_hazards_ignore_rock_order(self):
        terrain = build_scene("rocky", 0).terrain
        shuffled = list(terrain.rocks)
        np.random.default_rng(2).shuffle(shuffled)
        a = World(terrain, sensor_sigma=0.02, seed=4)
        b = World(Terrain(terrain.ground, shuffled, terrain.segments), sensor_sigma=0.02, seed=4)
        rng = np.random.default_rng(9)
        for x, y in rng.uniform(0.0, 140.0, (25, 2)):
            pose = RoverState(float(x), float(y), 0.0)
            pa = patch_around(a, pose.x, pose.y, 20.0, 0.25).elevation
            pb = patch_around(b, pose.x, pose.y, 20.0, 0.25).elevation
            assert pa.tobytes() == pb.tobytes()
            assert a.check_hazard(pose) == b.check_hazard(pose)


def test_trajectory_rows_read_back_as_written(tmp_path):
    states = [(RoverState(1.5, 2.25, -0.5, 0.75, 0.05), "safe"),
              (RoverState(3.0, 2.5, 0.125, 2.0, 0.1), "efficient")]
    rows = [format_trajectory_row(state, mode) for state, mode in states]
    path = tmp_path / "trajectory.csv"
    path.write_text(TRAJECTORY_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert read_trajectory(path) == states
