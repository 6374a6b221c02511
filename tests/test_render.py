import hashlib

import numpy as np

from rovernav.modes import MODE_COLORS
from rovernav.render import draw_trajectory, hillshade
from rovernav.terrain import HeightField
from rovernav.world import RoverState


def test_hillshade_pinned():
    ys, xs = np.mgrid[0:24, 0:32] * 0.5
    z = np.sin(0.7 * xs) + 0.4 * np.cos(1.3 * ys) + 0.05 * xs * ys
    shade = hillshade(HeightField(z, (3.0, -2.0), 0.5))
    assert shade.dtype == np.uint8 and shade.shape == (24, 32)
    assert hashlib.sha256(shade.tobytes()).hexdigest() == (
        "2bd950299443c965357f84381df5ae499cb1419a43052ba9f79cd7f45093ba0d")


def test_hillshade_flat_is_uniform():
    shade = hillshade(HeightField(np.zeros((5, 7)), (0.0, 0.0), 1.0))
    assert (shade == 180).all()


def _rows(*points, mode="safe"):
    return [(RoverState(x, y, 0.0), mode) for x, y in points]


def _blocks(shape, *cells):
    """The 3x3 blocks around (row, col) cells, clipped to the image."""
    mask = np.zeros(shape, dtype=bool)
    for r, c in cells:
        mask[max(r - 1, 0):r + 2, max(c - 1, 0):c + 2] = True
    return mask


def test_trajectory_point_lands_on_its_cell():
    image = np.zeros((6, 8, 3), dtype=np.uint8)
    out = draw_trajectory(image, _rows((2.5, 4.5)), (0.0, 0.0), 1.0)
    assert np.array_equal(out.any(axis=2), _blocks((6, 8), (4, 2)))
    assert tuple(out[4, 2]) == MODE_COLORS["safe"]


def test_trajectory_points_off_image_draw_their_clipped_block():
    # Points up to one cell left of or below the image sit in cell -1, so
    # only the far edge of their block reaches the image; truncating the
    # coordinate toward zero would put them in cell 0 and draw one more
    # row or column.
    image = np.zeros((6, 8, 3), dtype=np.uint8)
    rows = _rows((-0.4, 3.5), (2.5, -0.7), (-0.2, -0.2))
    out = draw_trajectory(image, rows, (0.0, 0.0), 1.0)
    assert np.array_equal(out.any(axis=2), _blocks((6, 8), (3, -1), (-1, 2), (-1, -1)))


def test_trajectory_points_two_cells_off_image_draw_nothing():
    # Cells -2 and below, and cells past the far edge by two or more, have
    # blocks wholly off the image; a stop index left at r + 2 would count
    # from the far edge and paint most of the image.
    image = np.zeros((6, 8, 3), dtype=np.uint8)
    rows = _rows((-1.5, 3.5), (2.5, -2.5), (-5.0, -5.0), (9.5, 3.5), (2.5, 7.5), (-3.0, 7.2))
    out = draw_trajectory(image, rows, (0.0, 0.0), 1.0)
    assert not out.any()
