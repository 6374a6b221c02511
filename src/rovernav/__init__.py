"""Deterministic 2.5D multi-mode rover navigation simulator.

Terrain generation, terrain-complexity classification, tiered navigation
(fast spline following, obstacle-avoiding A*, costmap A*), a priority-
merging global map server, and a closed-loop mission executor. Each name
is imported from the submodule that defines it.
"""

__version__ = "0.1.0"
