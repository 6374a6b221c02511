"""Deterministic kinematic rover simulator on a 2.5D terrain.

The rover is a unicycle: commanded linear/angular velocity integrates
directly into pose, with no slip or dynamics. The world supplies simulated
depth sensing (`World.sense_elevation_patch`, heights on the cell centres
of any lattice, and `World.sense_points`, the same patch with NaN off the
map, which the maps read) and watches for the three hazard conditions:
leaving the map, rock contact and excessive tilt.

A `World` reads its terrain's rock list and ground once: the rock index is
built in `__init__`, and the ground's steepest cell-to-cell rise on the
first refresh of `check_hazard`. Neither may change afterwards.
`check_hazard` carries one clearance from the pose where it last refreshed
it: how far the rover may move before any hazard test could change its
answer. Within it the check returns at once.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPatchError, ValidationError, malformed_input, read_input_text
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


# The fitted tilt gradient (a, b) of `plane_fit_points` is linear in the
# heights: (a, b) = _TILT_WEIGHTS @ z, whose column i is the gradient of the
# fit to unit height at sample i and zero elsewhere. The pattern is centred
# and symmetric, so column i is (x_i, y_i) / sum x_j^2 and the sum of the
# column norms, S, is 8 * (1.15 + 2.3) / (4 * (1.15^2 + 2.3^2)) = 24 / 23.
_TILT_WEIGHTS = np.array([plane_fit_points(np.column_stack([_TILT_DX, _TILT_DY, unit]))[:2]
                          for unit in np.eye(len(_TILT_DX))]).T
_TILT_WEIGHT_SUM = float(np.hypot(*_TILT_WEIGHTS).sum())

# tan(TILT_LIMIT_DEG) less a relative rounding margin of 1e-6: the fit's
# and the arctan's float error is orders of magnitude smaller for ground
# heights up to 1e6 m. A carried tilt slack runs out at this gradient.
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
        # The carried clearance of `check_hazard`, (x, y, clearance), none
        # before the first refresh; L, the fit's growth per metre moved, is
        # set on that refresh so that a scene build does no extra work.
        self._clearance = (0.0, 0.0, -math.inf)
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

        The conservative costmap (`mapping.CostCellRecord`) senses each of
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

        Checked in order: off-map (the footprint disc leaves the hull of the
        ground's cell centres), rock contact (a rock disc intersects the
        footprint disc), then tilt (the plane fit of the ground at the 17
        footprint samples is steeper than the limit).

        A refresh measures how far the rover may move from this pose q
        before any test could change its answer, the least of:
        - the footprint's clearance to the hull, negative when off the map;
        - the tilt slack (tan(TILT_LIMIT_DEG) * (1 - 1e-6) - |g|) / L;
        - the gap between the footprint and each rock disc, negative on
          contact.
        It keeps that distance less a rounding margin of 1e-9 m, far above
        the float error of these distances on maps up to 10 km across, and
        every later pose p with |p - q| under it returns None untested.

        The skip never changes the answer:
        - The hull is convex, so a footprint within its clearance of q's
          stays inside, and no tilt sample meets the edge clamp of
          `grids.bilinear_sample`, which would flatten the ground.
        - The fitted gradient is g = _TILT_WEIGHTS @ z, with sum |w_i| =
          S = 24/23. The ground's gradient is at most G = hypot(Gx, Gy)
          everywhere, Gx and Gy its largest height differences between
          adjacent cells along x and y over the cell size, so each in-map
          sample and g move by at most G * |p - q| and L * |p - q|, with
          L = S * G, computed on the first refresh.
        - A rock disc's gap shrinks by at most |p - q|. The rocks are read
          from `_rocks_near` out to the hull clearance and the tilt slack,
          so a rock it leaves out is farther than the kept distance.
        """
        x, y = pose.x, pose.y
        qx, qy, clearance = self._clearance
        if math.hypot(x - qx, y - qy) < clearance:
            return None
        r = FOOTPRINT_RADIUS
        hull = min(x - r - self._x_lo, self._x_hi - (x + r), y - r - self._y_lo, self._y_hi - (y + r))
        if self._tilt_growth is None:
            self._tilt_growth = _TILT_WEIGHT_SUM * _ground_gradient_bound(self.terrain.ground)
        a, b = (_TILT_WEIGHTS @ self.terrain.ground.sample(x + _TILT_DX, y + _TILT_DY)).tolist()
        slack = (_TILT_GRADIENT_LIMIT - math.hypot(a, b)) / self._tilt_growth if self._tilt_growth else math.inf
        gap = min((math.hypot(rock.x - x, rock.y - y) - (rock.radius + r)
                   for rock in self._rocks_near(x, y, r + max(min(hull, slack), 0.0))), default=math.inf)
        self._clearance = (x, y, min(hull, slack, gap) - 1e-9)
        if hull < 0.0:
            pos = (min(max(x, 0.0), self.terrain.extent_x), min(max(y, 0.0), self.terrain.extent_y))
            return HazardEvent(HazardKind.OFF_MAP, pos, pose.time)
        if gap < 0.0:
            return HazardEvent(HazardKind.ROCK_COLLISION, (x, y), pose.time)
        if slope_degrees(a, b) > TILT_LIMIT_DEG:
            return HazardEvent(HazardKind.TILT_EXCEEDED, (x, y), pose.time)
        return None

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
    for lineno, line in enumerate(read_input_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line == TRAJECTORY_HEADER:
            continue
        with malformed_input(f"{path}:{lineno}: expected {TRAJECTORY_HEADER}, got {line!r}"):
            *numbers, mode_name = line.split(",")
            t, x, y, heading, speed = map(float, numbers)
            rows.append((RoverState(x, y, heading, speed, t), mode_name))
    return rows
