"""The paper's headline comparison: the single-mode baseline against the
adaptive system.

`compare_single_vs_multi` flies both missions on the same terrain and
waypoints, and `ComparisonReport` compares their times only when both
succeeded and served the same number of waypoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .map_server import WaypointQueue
from .mission import MissionMetrics, ModeConfig, run_mission
from .modes import NavMode
from .world import RoverState, World


@dataclass
class ComparisonReport:
    single: MissionMetrics
    multi: MissionMetrics

    @property
    def valid(self) -> bool:
        """Both runs succeeded and reached the same number of waypoints;
        only then are their times compared."""
        return (self.single.success and self.multi.success
                and self.single.waypoints_reached == self.multi.waypoints_reached)

    @property
    def speedup(self) -> float:
        return self.single.total_time / self.multi.total_time if self.multi.total_time else math.inf

    @property
    def distance_ratio(self) -> float:
        if not self.single.total_distance:
            return math.inf
        return self.multi.total_distance / self.single.total_distance

    def to_dict(self) -> dict:
        def shares(by_mode: dict) -> dict[str, float]:
            total = sum(by_mode.values())
            return {k: round(v / total if total else 0.0, 6) for k, v in sorted(by_mode.items())}

        return {
            "single": self.single.to_dict(),
            "multi": self.multi.to_dict(),
            "speedup": round(self.speedup, 6) if self.valid else None,
            "distance_ratio": round(self.distance_ratio, 6) if self.valid else None,
            "multi_time_shares": shares(self.multi.time_by_mode),
            "multi_distance_shares": shares(self.multi.distance_by_mode),
        }


def compare_single_vs_multi(
    terrain,
    waypoints: WaypointQueue,
    seed: int,
    classifier,
    config: ModeConfig = ModeConfig(),
    start: RoverState | None = None,
    sensor_sigma: float = 0.0,
) -> ComparisonReport:
    """Run the cautious-only baseline and the adaptive system, driven by
    `classifier`, on the same world and waypoints, then report times,
    distances, and mode shares.

    Mission failures propagate into the report (success flags / end
    reasons), not as exceptions.
    """
    single_world = World(terrain, sensor_sigma=sensor_sigma, seed=seed)
    single = run_mission(single_world, waypoints, None, config,
                         forced_mode=NavMode.CONSERVATIVE, start=start)
    multi_world = World(terrain, sensor_sigma=sensor_sigma, seed=seed)
    multi = run_mission(multi_world, waypoints, classifier, config, forced_mode=None, start=start)
    return ComparisonReport(single.metrics, multi.metrics)
