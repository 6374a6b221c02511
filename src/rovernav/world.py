"""Deterministic kinematic rover simulator on a 2.5D terrain.

The rover is a unicycle: commanded linear/angular velocity integrates
directly into pose, with no slip or dynamics. The world supplies simulated
depth sensing (elevation patches around the rover) and watches for the
three hazard conditions: rock contact, excessive tilt, and leaving the map.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPatchError, ValidationError
from .grids import cell_center, plane_fit_points, slope_degrees
from .terrain import HeightField, RockSet, Terrain, add_rocks_to_field

# Physics tick: 20 Hz divides every scheduler rate used by the mission.
TICK_DT = 0.05

# Circumscribed disc of the 3.3 m x 3.2 m rover body.
FOOTPRINT_RADIUS = 2.3

TILT_LIMIT_DEG = 30.0


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
        # Fixed sample pattern for the footprint tilt fit: center plus two
        # rings of eight.
        angles = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        ring1 = FOOTPRINT_RADIUS * 0.5
        ring2 = FOOTPRINT_RADIUS
        self._tilt_dx = np.concatenate([[0.0], ring1 * np.cos(angles), ring2 * np.cos(angles)])
        self._tilt_dy = np.concatenate([[0.0], ring1 * np.sin(angles), ring2 * np.sin(angles)])

    @property
    def extent_x(self) -> float:
        return self.terrain.extent_x

    @property
    def extent_y(self) -> float:
        return self.terrain.extent_y

    def sense_elevation_patch(self, pose: RoverState, size: float, resolution: float) -> HeightField:
        """Resample the true surface on a size x size window around the pose.

        The window is a lattice of cell centers, so the ground is sampled
        bilinearly (edge-clamped beyond the map border) from one row of x
        and one column of y, broadcast against each other. Rock caps are
        then evaluated analytically by `add_rocks_to_field`, inside each
        nearby rock's bounding box, so rocks register at their true height
        regardless of the ground grid pitch. Optional zero-mean Gaussian
        noise of the configured sigma is added per sample, last.
        """
        if size <= 0 or resolution <= 0:
            raise ValidationError("size and resolution must be positive")
        half = size / 2.0
        if (pose.x + half <= 0 or pose.x - half >= self.extent_x
                or pose.y + half <= 0 or pose.y - half >= self.extent_y):
            raise EmptyPatchError("sensing window lies entirely outside the terrain")
        n = round(size / resolution)
        origin = (pose.x - half, pose.y - half)
        xs, ys = cell_center(np.arange(n), np.arange(n), origin, resolution)
        z = np.asarray(self.terrain.ground.sample(xs[None, :], ys[:, None]), dtype=float)
        rocks = self._rocks_near(pose.x, pose.y, half + 0.1)
        if rocks:
            z = add_rocks_to_field(HeightField(z, origin, resolution), RockSet(rocks)).elevation
        if self.sensor_sigma > 0:
            z = z + self._rng.normal(0.0, self.sensor_sigma, size=z.shape)
        return HeightField(z, origin, resolution)

    def sense_points(self, pose: RoverState, size: float, resolution: float) -> np.ndarray:
        """Sensed patch as (N, 3) points, keeping only in-map samples.

        Cells of the window that fall outside the terrain produce no points,
        so downstream grids keep them unknown instead of inheriting
        edge-clamped elevation.
        """
        patch = self.sense_elevation_patch(pose, size, resolution)
        xs, ys = cell_center(np.arange(patch.rows), np.arange(patch.cols), patch.origin, patch.cell_size)
        gx, gy = np.broadcast_arrays(xs[None, :], ys[:, None])
        inside = ((xs >= 0) & (xs <= self.extent_x))[None, :] & ((ys >= 0) & (ys <= self.extent_y))[:, None]
        return np.column_stack([gx[inside], gy[inside], patch.elevation[inside]])

    def check_hazard(self, pose: RoverState) -> HazardEvent | None:
        """First hazard triggered at this pose, if any.

        Checked in order: off-map (footprint leaves the terrain), rock
        contact (rock disc intersects the footprint disc), then tilt (plane
        fit of the ground under the footprint steeper than the limit).
        """
        r = FOOTPRINT_RADIUS
        if (pose.x - r < 0 or pose.x + r > self.extent_x
                or pose.y - r < 0 or pose.y + r > self.extent_y):
            pos = (min(max(pose.x, 0.0), self.extent_x), min(max(pose.y, 0.0), self.extent_y))
            return HazardEvent(HazardKind.OFF_MAP, pos, pose.time)
        for rock in self._rocks_near(pose.x, pose.y, r + 2.5):
            if math.hypot(rock.x - pose.x, rock.y - pose.y) < rock.radius + r:
                return HazardEvent(HazardKind.ROCK_COLLISION, (pose.x, pose.y), pose.time)
        xs = pose.x + self._tilt_dx
        ys = pose.y + self._tilt_dy
        zs = np.asarray(self.terrain.ground.sample(xs, ys), dtype=float)
        a, b, _ = plane_fit_points(np.column_stack([xs, ys, zs]))
        if slope_degrees(a, b) > TILT_LIMIT_DEG:
            return HazardEvent(HazardKind.TILT_EXCEEDED, (pose.x, pose.y), pose.time)
        return None

    def _rocks_near(self, x: float, y: float, radius: float):
        out = []
        for rock in self.terrain.rocks.rocks:
            if abs(rock.x - x) <= radius + rock.radius and abs(rock.y - y) <= radius + rock.radius:
                out.append(rock)
        return out


TRAJECTORY_HEADER = "time,x,y,heading,speed,mode"


def format_trajectory_row(state: RoverState, mode_name: str) -> str:
    return (f"{state.time:.3f},{state.x:.6f},{state.y:.6f},"
            f"{state.heading:.6f},{state.speed:.6f},{mode_name}")
