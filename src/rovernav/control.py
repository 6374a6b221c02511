"""Pure-pursuit path tracking with a speed-scaled look-ahead distance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .planning import Path
from .world import RoverState, VelocityCommand


@dataclass(frozen=True)
class PursuitConfig:
    k_lookahead: float = 1.5  # seconds of travel ahead
    l_min: float = 1.0
    l_max: float = 5.0
    goal_tolerance: float = 0.5
    taper_distance: float = 2.0
    min_speed_factor: float = 0.3

    def __post_init__(self):
        if not 0 < self.l_min <= self.l_max:
            raise ValueError("need 0 < l_min <= l_max")


def dynamic_lookahead(speed: float, cfg: PursuitConfig) -> float:
    """Look-ahead distance scaled with speed, clamped to [l_min, l_max]."""
    if speed < 0:
        raise ValueError("speed must be >= 0")
    return min(max(cfg.k_lookahead * speed, cfg.l_min), cfg.l_max)


def pure_pursuit(
    state: RoverState,
    path: Path,
    target_speed: float,
    cfg: PursuitConfig = PursuitConfig(),
    min_index: int = 0,
    taper: bool = True,
) -> tuple[VelocityCommand, int]:
    """One pure-pursuit step. Returns (command, closest point index).

    Picks the first path point at arc distance >= L beyond the closest
    point, steers toward it with curvature 2*sin(alpha)/d, and stops inside
    goal_tolerance of the path end. Passing the returned index back as
    min_index keeps the closest-point search monotone along the path, which
    avoids oscillation where a path passes near itself.
    """
    pts = path.points
    goal = pts[-1]
    dist_goal = math.hypot(goal[0] - state.x, goal[1] - state.y)
    if dist_goal <= cfg.goal_tolerance:
        return VelocityCommand(0.0, 0.0), len(pts) - 1

    lo = min(min_index, len(pts) - 1)
    d2 = (pts[lo:, 0] - state.x) ** 2 + (pts[lo:, 1] - state.y) ** 2
    closest = lo + int(np.argmin(d2))

    lookahead = dynamic_lookahead(state.speed, cfg)
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
    if taper and dist_goal < cfg.taper_distance:
        v = target_speed * max(cfg.min_speed_factor, dist_goal / cfg.taper_distance)

    if d < 1e-9:
        return VelocityCommand(v, 0.0), closest
    kappa = 2.0 * math.sin(alpha) / d
    kappa_cap = 2.0 / cfg.l_min
    kappa = min(max(kappa, -kappa_cap), kappa_cap)
    return VelocityCommand(v, kappa * v), closest


class PathTracker:
    """Stateful wrapper holding the monotone closest-point cursor."""

    def __init__(self, path: Path, cfg: PursuitConfig = PursuitConfig()):
        self.path = path
        self.cfg = cfg
        self._cursor = 0

    def step(self, state: RoverState, target_speed: float, taper: bool = True) -> VelocityCommand:
        cmd, self._cursor = pure_pursuit(
            state, self.path, target_speed, self.cfg, self._cursor, taper
        )
        return cmd

    def reached(self, state: RoverState) -> bool:
        gx, gy = self.path.points[-1]
        return math.hypot(gx - state.x, gy - state.y) <= self.cfg.goal_tolerance
