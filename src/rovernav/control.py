"""Pure-pursuit path tracking with a speed-scaled look-ahead distance."""

from __future__ import annotations

import math

import numpy as np

from .planning import Path
from .world import RoverState, VelocityCommand


K_LOOKAHEAD = 1.5  # seconds of travel ahead
L_MIN = 1.0
L_MAX = 5.0
GOAL_TOLERANCE = 0.5
TAPER_DISTANCE = 2.0
MIN_SPEED_FACTOR = 0.3


def dynamic_lookahead(speed: float) -> float:
    """Look-ahead distance scaled with speed, clamped to [L_MIN, L_MAX]."""
    if speed < 0:
        raise ValueError("speed must be >= 0")
    return min(max(K_LOOKAHEAD * speed, L_MIN), L_MAX)


def pure_pursuit(
    state: RoverState,
    path: Path,
    target_speed: float,
    min_index: int = 0,
    taper: bool = True,
) -> tuple[VelocityCommand, int]:
    """One pure-pursuit step. Returns (command, closest point index).

    Picks the first path point at arc distance >= L beyond the closest
    point, steers toward it with curvature 2*sin(alpha)/d, and stops inside
    GOAL_TOLERANCE of the path end. Passing the returned index back as
    min_index keeps the closest-point search monotone along the path, which
    avoids oscillation where a path passes near itself.
    """
    pts = path.points
    goal = pts[-1]
    dist_goal = math.hypot(goal[0] - state.x, goal[1] - state.y)
    if dist_goal <= GOAL_TOLERANCE:
        return VelocityCommand(0.0, 0.0), len(pts) - 1

    lo = min(min_index, len(pts) - 1)
    d2 = (pts[lo:, 0] - state.x) ** 2 + (pts[lo:, 1] - state.y) ** 2
    closest = lo + int(np.argmin(d2))

    lookahead = dynamic_lookahead(state.speed)
    arc = path.arc_lengths()
    target_arc = arc[closest] + lookahead
    idx = int(np.searchsorted(arc, target_arc))
    idx = min(idx, len(pts) - 1)
    target = pts[idx]

    dx = target[0] - state.x
    dy = target[1] - state.y
    d = math.hypot(dx, dy)
    local_x = math.cos(-state.heading) * dx - math.sin(-state.heading) * dy
    local_y = math.sin(-state.heading) * dx + math.cos(-state.heading) * dy
    alpha = math.atan2(local_y, local_x)

    v = target_speed
    if taper and dist_goal < TAPER_DISTANCE:
        v = target_speed * max(MIN_SPEED_FACTOR, dist_goal / TAPER_DISTANCE)

    if d < 1e-9:
        return VelocityCommand(v, 0.0), closest
    kappa = 2.0 * math.sin(alpha) / d
    kappa_cap = 2.0 / L_MIN
    kappa = min(max(kappa, -kappa_cap), kappa_cap)
    return VelocityCommand(v, kappa * v), closest


class PathTracker:
    """Stateful wrapper holding the monotone closest-point cursor."""

    def __init__(self, path: Path):
        self.path = path
        self._cursor = 0

    @property
    def cursor(self) -> int:
        """Index of the path point closest to the rover at the last step."""
        return self._cursor

    def step(self, state: RoverState, target_speed: float, taper: bool = True) -> VelocityCommand:
        cmd, self._cursor = pure_pursuit(state, self.path, target_speed, self._cursor, taper)
        return cmd

    def reached(self, state: RoverState) -> bool:
        gx, gy = self.path.points[-1]
        return math.hypot(gx - state.x, gy - state.y) <= GOAL_TOLERANCE
