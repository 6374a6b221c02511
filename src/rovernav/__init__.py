"""Deterministic 2.5D multi-mode rover navigation simulator.

Terrain generation, terrain-complexity classification, tiered navigation
(fast spline following, obstacle-avoiding A*, costmap A*), a priority-
merging global map server, and a closed-loop mission executor.
"""

from .modes import NavMode, TerrainClass
from .terrain import HeightField, Rock, Terrain, TerrainSpec, build_mixed_terrain, build_terrain
from .world import HazardEvent, HazardKind, RoverState, VelocityCommand, World, step
from .classify import (
    GeometricMetrics,
    TerrainAssessment,
    VlmConfig,
    compute_terrain_metrics,
    mock_classify,
    threshold_classify,
    vlm_classify,
)
from .mapping import (
    CostGrid,
    CostWeights,
    GridGeometry,
    build_elevation_grid,
    compute_costmap,
    extract_obstacles,
    inflate_lethal,
)
from .planning import Path, astar_cost, astar_obstacle, bspline_path, path_collides, path_cost
from .control import PathTracker, dynamic_lookahead, pure_pursuit
from .map_server import MapServer, ReplanReason, WaypointQueue
from .waypoints import global_cost_from_dem, plan_waypoints, sparsify_waypoints
from .mission import (
    ComparisonReport,
    MissionMetrics,
    MissionResult,
    MockClassifierBackend,
    GeometricClassifierBackend,
    VlmClassifierBackend,
    ModeConfig,
    ModeSwitcher,
    compare_single_vs_multi,
    run_mission,
)

__version__ = "0.1.0"
