"""Deterministic kinematic rover simulator on a 2.5D terrain.

The rover is a unicycle: commanded linear/angular velocity integrates
directly into pose, with no slip or dynamics. The world supplies simulated
depth sensing (`World.sense_elevation_patch`, heights on the cell centres
of any lattice, and `World.sense_points`, the same patch with NaN off the
map, which the maps read) and watches for the three hazard conditions:
rock contact, excessive tilt, and leaving the map.

A `World` reads its terrain's rock list and ground once: the rock index is
built in `__init__`, and the ground's steepest cell-to-cell rise on the
first tilt refresh of `check_hazard`. Neither may change afterwards.
`check_hazard` carries a bound on the footprint's fitted tilt gradient from
the pose where it last refreshed one, and skips the tilt test while the
bound, grown by the distance moved, stays under the limit less the rounding
margin of `TILT_FLAT_RANGE`. The bound holds because the bilinear ground is
Lipschitz and every in-map tilt sample lies inside the hull of the cell
centres, where no edge clamp flattens it.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from .errors import EmptyPatchError, ValidationError, malformed_input
from .grids import cell_center, plane_fit_points, slope_degrees
from .terrain import HeightField, Rock, Terrain, add_rocks_to_field

# Physics tick: 20 Hz divides every scheduler rate used by the mission.
TICK_DT = 0.05

# Circumscribed disc of the 3.3 m x 3.2 m rover body.
FOOTPRINT_RADIUS = 2.3

TILT_LIMIT_DEG = 30.0

# Fixed sample pattern for the footprint tilt fit: center plus two rings of
# eight.
_RING_ANGLES = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
_TILT_DX = np.concatenate([[0.0], 0.5 * FOOTPRINT_RADIUS * np.cos(_RING_ANGLES),
                           FOOTPRINT_RADIUS * np.cos(_RING_ANGLES)])
_TILT_DY = np.concatenate([[0.0], 0.5 * FOOTPRINT_RADIUS * np.sin(_RING_ANGLES),
                           FOOTPRINT_RADIUS * np.sin(_RING_ANGLES)])


def _tilt_weight_sum() -> float:
    """Sum over the samples of |w_i|, where the fitted gradient is
    (a, b) = sum of w_i * z_i: the gradient of the fit to unit height at
    sample i and zero elsewhere."""
    total = 0.0
    for unit in np.eye(len(_TILT_DX)):
        a, b, _ = plane_fit_points(np.column_stack([_TILT_DX, _TILT_DY, unit]))
        total += math.hypot(a, b)
    return total


_TILT_WEIGHT_SUM = _tilt_weight_sum()

# The slope weights sum to zero, so (a, b) = sum of w_i * (z_i - c) for any
# c, and with c midway between the lowest and highest ground cell the
# samples blend, |(a, b)| <= sum |w_i| * range / 2. Ground whose height range
# stays under this bound therefore fits a plane under TILT_LIMIT_DEG. The
# factor 1 - 1e-6 is the rounding margin: the fit's and the arctan's float
# error is orders of magnitude smaller for ground heights up to 1e6 m.
TILT_FLAT_RANGE = (2.0 * math.tan(math.radians(TILT_LIMIT_DEG)) / _TILT_WEIGHT_SUM) * (1.0 - 1e-6)

# The same limit on the fitted gradient |(a, b)| itself, with the same
# rounding margin: `check_hazard` skips a pose whose carried bound stays
# under it.
_TILT_GRADIENT_LIMIT = math.tan(math.radians(TILT_LIMIT_DEG)) * (1.0 - 1e-6)


def _ground_gradient_bound(ground: HeightField) -> float:
    """hypot(Gx, Gy): Gx and Gy are the largest height differences between
    adjacent cells along x and along y, divided by the cell size. Within a
    cell, the bilinear surface's x slope blends two such x differences and
    its y slope two y differences, so its gradient never exceeds this."""
    z = ground.elevation
    gx = float(np.abs(np.diff(z, axis=1)).max(initial=0.0))
    gy = float(np.abs(np.diff(z, axis=0)).max(initial=0.0))
    return math.hypot(gx, gy) / ground.cell_size


@dataclass(frozen=True)
class RoverState:
    x: float
    y: float
    heading: float
    speed: float = 0.0
    time: float = 0.0


@dataclass(frozen=True)
class VelocityCommand:
    linear: float
    angular: float

    def __post_init__(self):
        if self.linear < 0:
            raise ValidationError("linear velocity must be >= 0")


class HazardKind(enum.Enum):
    """What `World.check_hazard` reports. OFF_MAP: the footprint disc
    leaves the hull of the ground's cell centres, half a cell inside each
    map edge; beyond it the ground is only an edge-clamped extension."""

    ROCK_COLLISION = "rock_collision"
    TILT_EXCEEDED = "tilt_exceeded"
    OFF_MAP = "off_map"


@dataclass(frozen=True)
class HazardEvent:
    kind: HazardKind
    position: tuple[float, float]
    time: float


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]. In-range values pass through exactly."""
    if -math.pi < theta <= math.pi:
        return theta
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def step(state: RoverState, cmd: VelocityCommand, dt: float) -> RoverState:
    """Integrate one unicycle step."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    return RoverState(
        x=state.x + cmd.linear * math.cos(state.heading) * dt,
        y=state.y + cmd.linear * math.sin(state.heading) * dt,
        heading=normalize_angle(state.heading + cmd.angular * dt),
        speed=cmd.linear,
        time=state.time + dt,
    )


class World:
    """One simulation world: terrain plus sensing noise and hazard checks."""

    def __init__(self, terrain: Terrain, sensor_sigma: float = 0.0, seed: int = 0):
        self.terrain = terrain
        self.sensor_sigma = sensor_sigma
        self._rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, 23]))
        # Rocks sorted by x, searched by bisection in `_rocks_near`. The rock
        # list is read once, here.
        rocks = sorted(terrain.rocks, key=lambda rock: rock.x)
        self._rocks_by_x = rocks
        self._rock_xs = [rock.x for rock in rocks]
        self._max_rock_radius = max((rock.radius for rock in rocks), default=0.0)
        # Hull of the ground's cell centres, for `check_hazard`.
        g = terrain.ground
        xs, ys = cell_center(np.array([0, g.rows - 1]), np.array([0, g.cols - 1]), g.origin, g.cell_size)
        (self._x_lo, self._x_hi), (self._y_lo, self._y_hi) = xs.tolist(), ys.tolist()
        # The carried tilt bound of `check_hazard`: (x, y, bound) at the last
        # refresh, and how fast the bound grows per metre moved, set on the
        # first refresh so that a scene build does no extra work.
        self._tilt_carry = None
        self._tilt_growth = None

    def sense_elevation_patch(self, origin, shape: tuple[int, int], resolution: float) -> HeightField:
        """The surface at the cell centres of a rows x cols lattice at
        `origin` with pitch `resolution`: the rover's one sensor.

        The ground is sampled bilinearly (edge-clamped beyond the map
        border) from the row of x and the column of y, broadcast against
        each other. The caps of the rocks that reach the patch are then
        evaluated analytically by `add_rocks_to_field`, so rocks register
        at their true height regardless of the ground grid pitch. Optional
        zero-mean Gaussian noise of the configured sigma is added per
        sample, last: one draw per call, so a cell sensed twice reads two
        draws. Raises `EmptyPatchError` when the patch lies wholly off the
        map.
        """
        rows, cols = shape
        if rows <= 0 or cols <= 0 or resolution <= 0:
            raise ValidationError("shape and resolution must be positive")
        hx, hy = cols * resolution / 2.0, rows * resolution / 2.0
        if (origin[0] + cols * resolution <= 0 or origin[0] >= self.terrain.extent_x
                or origin[1] + rows * resolution <= 0 or origin[1] >= self.terrain.extent_y):
            raise EmptyPatchError("sensing patch lies entirely outside the terrain")
        xs, ys = cell_center(np.arange(rows), np.arange(cols), origin, resolution)
        rocks = self._rocks_near(origin[0] + hx, origin[1] + hy, max(hx, hy) + 0.1)
        z = np.asarray(self.terrain.ground.sample(xs[None, :], ys[:, None]), dtype=float)
        if rocks:
            z = add_rocks_to_field(HeightField(z, origin, resolution), rocks).elevation
        if self.sensor_sigma > 0:
            z = z + self._rng.normal(0.0, self.sensor_sigma, size=z.shape)
        return HeightField(z, origin, resolution)

    def sense_points(self, origin, shape: tuple[int, int], resolution: float) -> HeightField:
        """`sense_elevation_patch` as the maps read it: NaN at every cell
        centre off the map, so a map keeps those cells unknown instead of
        inheriting edge-clamped ground.

        The conservative costmap (`mission.CostCellRecord`) senses each of
        its cells as a core cell once per mission, so with `sensor_sigma`
        > 0 a cell's cost comes from one draw per mission, not one per
        costmap tick.
        """
        patch = self.sense_elevation_patch(origin, shape, resolution)
        xs, ys = cell_center(np.arange(patch.rows), np.arange(patch.cols), origin, resolution)
        t = self.terrain
        on_map = ((ys >= 0) & (ys <= t.extent_y))[:, None] & ((xs >= 0) & (xs <= t.extent_x))[None, :]
        patch.elevation[~on_map] = np.nan
        return patch

    def check_hazard(self, pose: RoverState) -> HazardEvent | None:
        """First hazard triggered at this pose, if any.

        Checked in order: off-map (footprint leaves the hull of the ground's
        cell centres), rock contact (rock disc intersects the footprint
        disc), then tilt (plane fit of the ground under the footprint
        steeper than the limit). The off-map and rock checks run on every
        call; the tilt test has two exact early-outs.

        Inside the hull no tilt sample meets the edge clamp of
        `grids.bilinear_sample`, which flattens the ground and would
        under-read the tilt. The fitted gradient is (a, b) = sum of w_i * z_i
        over the samples, with sum |w_i| = S = 24/23 (`_tilt_weight_sum`).

        Flat window: the tilt fit is skipped when the ground cells its
        samples blend, `_tilt_window`, span less than `TILT_FLAT_RANGE`
        (1.107 m) in height: every sample lies within that range, and the
        fitted gradient is at most B = S * range / 2, under
        tan(TILT_LIMIT_DEG). Otherwise the fit gives B = |(a, b)|.

        Carried bound: the world keeps B and the pose q where it was last
        refreshed. With Gx and Gy the ground's largest height differences
        between adjacent cells along x and y, divided by the cell size, the
        bilinear ground's gradient is at most G = hypot(Gx, Gy) everywhere,
        so a sample moves by at most G * |p - q| between poses p and q. Both
        footprints lie in the hull, which is convex, so the segment between
        each pair of samples does too and meets no clamp. The fit therefore
        moves by at most L * |p - q| with L = S * G, and while
        B + L * |p - q| stays under tan(TILT_LIMIT_DEG) * (1 - 1e-6), the
        rounding margin of `TILT_FLAT_RANGE`, the pose cannot tilt past the
        limit and the window is not read. L is computed on the first
        refresh, from the ground as it is then. Neither skip ever changes
        the result.
        """
        r = FOOTPRINT_RADIUS
        if (pose.x - r < self._x_lo or pose.x + r > self._x_hi
                or pose.y - r < self._y_lo or pose.y + r > self._y_hi):
            pos = (min(max(pose.x, 0.0), self.terrain.extent_x),
                   min(max(pose.y, 0.0), self.terrain.extent_y))
            return HazardEvent(HazardKind.OFF_MAP, pos, pose.time)
        for rock in self._rocks_near(pose.x, pose.y, r):
            if math.hypot(rock.x - pose.x, rock.y - pose.y) < rock.radius + r:
                return HazardEvent(HazardKind.ROCK_COLLISION, (pose.x, pose.y), pose.time)
        if self._tilt_carry is not None:
            x, y, bound = self._tilt_carry
            if bound + self._tilt_growth * math.hypot(pose.x - x, pose.y - y) < _TILT_GRADIENT_LIMIT:
                return None
        elif self._tilt_growth is None:
            self._tilt_growth = _TILT_WEIGHT_SUM * _ground_gradient_bound(self.terrain.ground)
        window = self.terrain.ground.elevation[self._tilt_window(pose.x, pose.y)]
        span = float(window.max() - window.min())
        if span < TILT_FLAT_RANGE:
            self._tilt_carry = (pose.x, pose.y, _TILT_WEIGHT_SUM * span / 2.0)
            return None
        xs = pose.x + _TILT_DX
        ys = pose.y + _TILT_DY
        zs = np.asarray(self.terrain.ground.sample(xs, ys), dtype=float)
        a, b, _ = plane_fit_points(np.column_stack([xs, ys, zs]))
        self._tilt_carry = (pose.x, pose.y, math.hypot(a, b))
        if slope_degrees(a, b) > TILT_LIMIT_DEG:
            return HazardEvent(HazardKind.TILT_EXCEEDED, (pose.x, pose.y), pose.time)
        return None

    def _tilt_window(self, x: float, y: float) -> tuple[slice, slice]:
        """(rows, cols) of the ground cells the tilt samples around (x, y)
        can blend, for a pose whose footprint lies on the map.

        A sample at fractional cell coordinate f (`grids.bilinear_sample`)
        reads cells floor(f) and floor(f) + 1, and every sample lies within
        FOOTPRINT_RADIUS of the pose. The window adds one cell each side as
        slack for rounding, and is clamped to the grid as the sampler clamps.
        """
        ground = self.terrain.ground
        reach = FOOTPRINT_RADIUS / ground.cell_size
        fx = (x - ground.origin[0]) / ground.cell_size
        fy = (y - ground.origin[1]) / ground.cell_size
        return (slice(max(math.floor(fy - reach - 1.5), 0), min(math.floor(fy + reach + 2.5), ground.rows)),
                slice(max(math.floor(fx - reach - 1.5), 0), min(math.floor(fx + reach + 2.5), ground.cols)))

    def _rocks_near(self, x: float, y: float, radius: float) -> list[Rock]:
        """Rocks whose bounding box comes within radius of (x, y) on both
        axes, in order of x.

        Bisection on the x-sorted rocks bounds the candidates by the widest
        rock, widened by 1e-6 m so that rounding can only add candidates;
        each candidate then takes the exact box test.
        """
        reach = radius + self._max_rock_radius + 1e-6
        lo = bisect.bisect_left(self._rock_xs, x - reach)
        hi = bisect.bisect_right(self._rock_xs, x + reach)
        return [rock for rock in self._rocks_by_x[lo:hi]
                if abs(rock.x - x) <= radius + rock.radius and abs(rock.y - y) <= radius + rock.radius]


TRAJECTORY_HEADER = "time,x,y,heading,speed,mode"


def format_trajectory_row(state: RoverState, mode_name: str) -> str:
    return (f"{state.time:.3f},{state.x:.6f},{state.y:.6f},"
            f"{state.heading:.6f},{state.speed:.6f},{mode_name}")


def read_trajectory(path) -> list[tuple[RoverState, str]]:
    """The (state, mode name) of each `format_trajectory_row` row of a
    trajectory file; header and blank lines are skipped."""
    rows = []
    for lineno, line in enumerate(FsPath(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line == TRAJECTORY_HEADER:
            continue
        with malformed_input(f"{path}:{lineno}: expected {TRAJECTORY_HEADER}, got {line!r}"):
            *numbers, mode_name = line.split(",")
            t, x, y, heading, speed = map(float, numbers)
            rows.append((RoverState(x, y, heading, speed, t), mode_name))
    return rows
