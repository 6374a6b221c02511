import numpy as np
import pytest

from rovernav.errors import MissionConfigError, ValidationError
from rovernav.map_server import NO_SOURCE_COLOR, UNKNOWN_COLOR, MapServer, WaypointQueue
from rovernav.mapping import COST_MAX, COST_UNKNOWN, CostGrid
from rovernav.mission import MissionRunner
from rovernav.modes import MODE_COLORS, NavMode
from rovernav.planning import Path
from rovernav.world import World

from conftest import flat_terrain
from oracles import merge_full_map


def cost_local(values, origin, cell=0.5):
    return CostGrid(np.asarray(values, dtype=np.int16), origin, cell)


def server(extent=(40.0, 40.0)):
    return MapServer(extent)


class TestUpdatePriority:
    def test_unknown_accepts_any_mode(self):
        srv = server()
        written = srv.update_from_local(cost_local([[40]], (10.0, 10.0)), NavMode.SAFE)
        assert written == 1
        r, c = 20, 20  # cell containing (10.25, 10.25) at 0.5 m
        assert srv.global_map.values[r, c] == 40
        assert srv.source[r, c] == NavMode.SAFE.priority

    def test_lower_mode_cannot_overwrite_higher(self):
        srv = server()
        srv.update_from_local(cost_local([[70]], (10.0, 10.0)), NavMode.CONSERVATIVE)
        srv.update_from_local(cost_local([[5]], (10.0, 10.0)), NavMode.SAFE)
        assert srv.global_map.values[20, 20] == 70
        assert srv.source[20, 20] == NavMode.CONSERVATIVE.priority

    def test_equal_priority_overwrites(self):
        srv = server()
        srv.update_from_local(cost_local([[70]], (10.0, 10.0)), NavMode.SAFE)
        srv.update_from_local(cost_local([[20]], (10.0, 10.0)), NavMode.SAFE)
        assert srv.global_map.values[20, 20] == 20

    def test_efficient_mode_writes_nothing(self):
        srv = server()
        written = srv.update_from_local(cost_local([[50]], (10.0, 10.0)), NavMode.EFFICIENT)
        assert written == 0
        assert (srv.global_map.values == -1).all()

    def test_obstacle_grid_binarized(self):
        srv = server()
        srv.update_from_local(cost_local([[100, 0], [-1, 0]], (10.0, 10.0)), NavMode.SAFE)
        assert srv.global_map.values[20, 20] == 100
        assert srv.global_map.values[20, 21] == 0
        assert srv.global_map.values[21, 20] == -1  # unknown never written

    @pytest.mark.parametrize("cell", [0.1, 0.25, 1.0])
    def test_other_cell_size_rejected(self, cell):
        srv = server()
        with pytest.raises(ValidationError, match="cell size"):
            srv.update_from_local(cost_local(np.zeros((5, 5)), (10.0, 10.0), cell), NavMode.CONSERVATIVE)
        assert (srv.global_map.values == -1).all()

    def test_outside_extent_noop(self):
        srv = server()
        assert srv.update_from_local(cost_local([[50]], (500.0, 500.0)), NavMode.SAFE) == 0

    def test_idempotent(self):
        srv = server()
        local = cost_local(np.arange(16).reshape(4, 4) * 6, (8.0, 8.0))
        srv.update_from_local(local, NavMode.CONSERVATIVE)
        vals = srv.global_map.values.copy()
        src = srv.source.copy()
        srv.update_from_local(local, NavMode.CONSERVATIVE)
        assert np.array_equal(vals, srv.global_map.values)
        assert np.array_equal(src, srv.source)


class TestRandomizedInvariants:
    def test_priority_monotone_idempotent_snapshot(self, rng):
        """Replay random update sequences: source priority never decreases,
        repeating an update changes nothing, and earlier window snapshots
        never change afterwards."""
        for _ in range(60):
            srv = server((30.0, 30.0))
            snapshots = []
            for _step in range(15):
                mode = [NavMode.EFFICIENT, NavMode.SAFE, NavMode.CONSERVATIVE][rng.integers(3)]
                size = int(rng.integers(2, 8))
                origin = (float(rng.uniform(0, 25)), float(rng.uniform(0, 25)))
                vals = rng.integers(0, 101, size=(size, size)).astype(np.int16)
                vals[rng.random((size, size)) < 0.2] = -1
                local = cost_local(vals, origin)
                before = srv.source.copy()
                srv.update_from_local(local, mode)
                assert (srv.source >= before).all()
                after_vals = srv.global_map.values.copy()
                after_src = srv.source.copy()
                srv.update_from_local(local, mode)
                assert np.array_equal(after_vals, srv.global_map.values)
                assert np.array_equal(after_src, srv.source)
                window = srv.get_local_window((15.0, 15.0), 10.0)
                snapshots.append((window, window.values.copy()))
            for window, frozen in snapshots:
                assert np.array_equal(window.values, frozen)


class TestMergeMatchesFullMap:
    """The merge writes one slice of the global map; the bytes of the map
    and of `source` must equal those of a whole-map merge."""

    @staticmethod
    def replay(srv, windows):
        values, source = srv.global_map.values.copy(), srv.source.copy()
        for local, mode in windows:
            written = srv.update_from_local(local, mode)
            expected = 0 if mode is NavMode.EFFICIENT else merge_full_map(
                values, source, local.values, local.origin, local.cell_size, mode.priority,
                srv.global_map.origin, srv.global_map.cell_size)
            assert written == expected
            assert srv.global_map.values.tobytes() == values.tobytes()
            assert srv.source.tobytes() == source.tobytes()

    def test_seeded_windows(self, rng):
        modes = [NavMode.EFFICIENT, NavMode.SAFE, NavMode.CONSERVATIVE]
        for _ in range(12):
            srv = server((40.0, 30.0))
            windows = []
            for _step in range(25):
                n = int(rng.integers(1, 41))
                # origins lie off the lattice and reach past every edge, so
                # windows hang off the map
                origin = (float(rng.uniform(-0.4 * n, 41.0)), float(rng.uniform(-0.4 * n, 31.0)))
                vals = rng.integers(0, 100, size=(n, n)).astype(np.int16)
                vals[rng.random((n, n)) < 0.3] = 100
                vals[rng.random((n, n)) < 0.2] = -1
                windows.append((cost_local(vals, origin), modes[rng.integers(3)]))
            self.replay(srv, windows)

    def test_equal_priority_lethal_ratchet(self):
        # 5 x 6 lethal cells (rows 21-25, columns 20-25), of which the low
        # window (rows and columns 18-23) overlaps 3 x 4
        lethal = np.full((6, 6), 100, dtype=np.int16)
        lethal[0] = -1
        low = np.full((6, 6), 10, dtype=np.int16)
        srv = server((40.0, 30.0))
        self.replay(srv, [(cost_local(lethal, (9.9, 10.2)), NavMode.SAFE),
                          (cost_local(low, (9.0, 9.0)), NavMode.SAFE)])
        # the lethal cells inside the later window survive its lower values
        assert (srv.global_map.values == 100).sum() == 30
        self.replay(srv, [(cost_local(low, (9.0, 9.0)), NavMode.CONSERVATIVE),
                          (cost_local(lethal, (9.9, 10.2)), NavMode.SAFE)])
        # a more cautious mode lowers them, and the lethal window cannot
        # raise them back
        assert (srv.global_map.values == 100).sum() == 30 - 12


class TestWindows:
    def test_untouched_region_all_unknown(self):
        win = server().get_local_window((20.0, 20.0), 10.0)
        assert (win.values == -1).all()

    def test_aligned_window_is_identity(self):
        srv = server()
        vals = np.arange(100).reshape(10, 10).astype(np.int16)
        srv.update_from_local(cost_local(vals, (10.0, 10.0)), NavMode.CONSERVATIVE)
        win = srv.get_local_window((12.5, 12.5), 5.0)
        r0 = int(win.origin[1] / 0.5)
        c0 = int(win.origin[0] / 0.5)
        assert np.array_equal(
            win.values, srv.global_map.values[r0 : r0 + win.rows, c0 : c0 + win.cols]
        )

    def test_window_dimensions(self):
        win = server().get_local_window((20.0, 20.0), 20.0)
        assert win.rows == win.cols == 40
        assert win.cell_size == 0.5

    def test_window_clamped_at_border(self):
        win = server().get_local_window((1.0, 1.0), 20.0)
        assert win.rows == win.cols == 40
        assert win.origin == (0.0, 0.0)

    def test_window_clamped_at_far_corner(self):
        # a pose near (extent_x, extent_y) puts the window's origin at
        # extent - size, at full size, on a map that is not square
        srv = server((40.0, 30.0))
        srv.global_map.values[:] = np.arange(60 * 80).reshape(60, 80)
        win = srv.get_local_window((39.0, 29.0), 20.0)
        assert win.rows == win.cols == 40
        assert win.origin == (20.0, 10.0)
        assert np.array_equal(win.values, srv.global_map.values[20:, 40:])


class TestWaypoints:
    def test_empty_queue_rejected(self):
        with pytest.raises(MissionConfigError, match="empty"):
            MissionRunner(World(flat_terrain()), WaypointQueue([]), None)

    def test_waypoint_outside_extent_rejected(self):
        with pytest.raises(MissionConfigError, match="outside the map extent"):
            MissionRunner(World(flat_terrain()), WaypointQueue([(5.0, 5.0), (500.0, 5.0)]), None)


class TestCollisionCheck:
    def test_obstacle_on_path_signals(self):
        srv = server()
        srv.update_from_local(cost_local([[100]], (20.0, 20.0)), NavMode.SAFE)
        path = Path(np.array([[18.0, 20.25], [20.25, 20.25], [22.0, 20.25]]))
        assert srv.collision_check_tick(path) == (20.25, 20.25)

    def test_clear_path_silent(self):
        srv = server()
        srv.update_from_local(cost_local(np.zeros((10, 10)), (15.0, 15.0)), NavMode.SAFE)
        path = Path(np.array([[16.0, 16.0], [18.0, 18.0]]))
        assert srv.collision_check_tick(path) is None

    def test_high_cost_below_lethal_is_silent(self):
        srv = server()
        srv.update_from_local(cost_local(np.full((10, 10), 99), (15.0, 15.0)), NavMode.CONSERVATIVE)
        path = Path(np.array([[16.0, 16.0], [17.0, 17.0], [18.0, 18.0]]))
        assert srv.collision_check_tick(path) is None


def pixmap(path, rows, cols):
    """The (rows, cols, 3) pixels of a binary P6 file of that size."""
    raw = path.read_bytes()
    header = f"P6\n{cols} {rows}\n255\n".encode("ascii")
    assert raw.startswith(header)
    return np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(rows, cols, 3)


class TestDump:
    def test_dump_writes_artifacts(self, tmp_path):
        srv = server()
        srv.update_from_local(cost_local([[50]], (10.0, 10.0)), NavMode.SAFE)
        srv.dump(tmp_path / "map")
        for name in ("global_cost.pgm", "global_cost.ppm", "global_source.ppm", "global_map.json"):
            assert (tmp_path / "map" / name).exists(), name

    def test_source_overlay_uses_the_mode_palette(self, tmp_path):
        srv = server((20.0, 10.0))
        # the efficient mode maps nothing, so its cell is marked by hand
        assert srv.update_from_local(cost_local([[50]], (1.0, 1.0)), NavMode.EFFICIENT) == 0
        srv.source[2, 2] = NavMode.EFFICIENT.priority
        srv.update_from_local(cost_local([[50]], (5.0, 1.0)), NavMode.SAFE)
        srv.update_from_local(cost_local([[50]], (9.0, 1.0)), NavMode.CONSERVATIVE)
        srv.dump(tmp_path / "map")
        rgb = pixmap(tmp_path / "map" / "global_source.ppm", 20, 40)
        for mode, col in ((NavMode.EFFICIENT, 2), (NavMode.SAFE, 10), (NavMode.CONSERVATIVE, 18)):
            assert tuple(rgb[2, col]) == MODE_COLORS[mode.value], mode
        assert tuple(rgb[0, 0]) == NO_SOURCE_COLOR

    def test_cost_image_draws_costs_gray_and_unknown_cells_apart(self, tmp_path):
        srv = server((20.0, 10.0))
        values = srv.global_map.values
        values[0, 0], values[3, 7], values[19, 39] = 0, 37, COST_MAX
        srv.dump(tmp_path / "map")
        rgb = pixmap(tmp_path / "map" / "global_cost.ppm", 20, 40)
        assert tuple(rgb[0, 0]) == (0, 0, 0)
        assert tuple(rgb[3, 7]) == (94, 94, 94)  # 37 / 100 * 255 = 94.35, truncated
        assert tuple(rgb[19, 39]) == (255, 255, 255)
        unknown = values == COST_UNKNOWN
        assert np.count_nonzero(unknown) == 20 * 40 - 3
        assert (rgb[unknown] == UNKNOWN_COLOR).all()
