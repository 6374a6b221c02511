import math

import numpy as np
import pytest

from rovernav.control import L_MIN, PathTracker, dynamic_lookahead, pure_pursuit
from rovernav.planning import Path
from rovernav.world import RoverState, VelocityCommand, step


def straight_path(length=300.0, spacing=0.5, y=0.0):
    xs = np.arange(0.0, length + spacing, spacing)
    return Path(np.column_stack([xs, np.full_like(xs, y)]))


class TestLookahead:
    def test_zero_speed_clamps_low(self):
        assert dynamic_lookahead(0.0) == 1.0

    def test_formula(self):
        assert dynamic_lookahead(2.0) == pytest.approx(3.0)

    def test_high_speed_clamps_high(self):
        assert dynamic_lookahead(100.0) == 5.0

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            dynamic_lookahead(-0.1)


class TestPurePursuit:
    def test_aligned_straight_path_no_turn(self):
        cmd, _ = pure_pursuit(RoverState(10.0, 0.0, 0.0, speed=2.0), straight_path(), 2.0)
        assert cmd.angular == pytest.approx(0.0, abs=1e-9)
        assert cmd.linear == 2.0

    def test_lateral_target_curvature(self):
        # look-ahead point 90 degrees to the left at distance d: kappa = 2/d
        path = Path(np.array([[0.0, 3.0]]))
        state = RoverState(0.0, 0.0, 0.0, speed=2.0)
        cmd, _ = pure_pursuit(state, path, 1.0)
        d = 3.0
        assert cmd.angular == pytest.approx(2.0 / d * cmd.linear, rel=1e-6)
        assert cmd.angular > 0

    def test_stop_inside_goal_tolerance(self):
        path = straight_path(length=10.0)
        cmd, _ = pure_pursuit(RoverState(9.8, 0.0, 0.0, speed=1.0), path, 2.0)
        assert cmd == VelocityCommand(0.0, 0.0)

    def test_speed_never_exceeds_target(self):
        path = straight_path()
        for x in np.linspace(0, 290, 40):
            cmd, _ = pure_pursuit(RoverState(x, 0.4, 0.2, speed=2.0), path, 2.0)
            assert cmd.linear <= 2.0 + 1e-12

    def test_curvature_bound(self):
        path = Path(np.array([[0.0, 1.0], [-3.0, 1.0], [-3.0, 20.0]]))
        for heading in np.linspace(-math.pi, math.pi, 17):
            state = RoverState(0.0, 0.0, heading, speed=2.0)
            cmd, _ = pure_pursuit(state, path, 2.0)
            if cmd.linear > 0:
                assert abs(cmd.angular) <= 2.0 * cmd.linear / L_MIN + 1e-9

    def test_monotone_cursor(self):
        path = straight_path(50.0)
        tracker = PathTracker(path)
        state = RoverState(0.0, 1.0, 0.0, speed=2.0)
        cursors = []
        for _ in range(100):
            cmd = tracker.step(state, 2.0)
            cursors.append(tracker.cursor)
            state = step(state, cmd, 0.1)
        assert all(b >= a for a, b in zip(cursors, cursors[1:]))


    def test_arc_lengths_computed_once_per_path(self, rng):
        path = Path(np.cumsum(rng.normal(size=(40, 2)), axis=0))
        arc = path.arc_lengths()
        assert arc is path.arc_lengths()
        seg = np.hypot(*np.diff(path.points, axis=0).T)
        assert arc.tobytes() == np.concatenate([[0.0], np.cumsum(seg)]).tobytes()
        assert not arc.flags.writeable
        assert Path(np.array([[1.0, 2.0]])).arc_lengths().tolist() == [0.0]

class TestConvergence:
    @pytest.mark.parametrize("speed", [2.0, 0.8, 0.5])
    def test_lateral_offset_converges(self, speed):
        """From 1 m lateral offset the cross-track error falls below 0.1 m
        within 30 m of travel and stays there for the rest of 200 m."""
        path = straight_path(length=260.0)
        tracker = PathTracker(path)
        state = RoverState(0.0, 1.0, 0.0, speed=0.0)
        dt = 0.05
        cmd = VelocityCommand(0.0, 0.0)
        traveled = 0.0
        converged_at = None
        n = 0
        while traveled < 200.0:
            if n % 2 == 0:  # control at 10 Hz over a 20 Hz physics tick
                cmd = tracker.step(state, speed, taper=False)
            state = step(state, cmd, dt)
            traveled += cmd.linear * dt
            err = abs(state.y)
            if converged_at is None and err < 0.1:
                converged_at = traveled
            if converged_at is not None:
                assert err < 0.1, f"diverged at {traveled:.1f} m"
            n += 1
        assert converged_at is not None and converged_at < 30.0
