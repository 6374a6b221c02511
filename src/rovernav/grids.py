"""Shared grid math: the one home of each grid primitive.

All grids in this package are row-major with row 0 at the minimum-y edge;
cell (r, c) has its center at (origin_x + (c + 0.5) * cell_size,
origin_y + (r + 0.5) * cell_size). This module holds the only copies of
the world<->cell transform (`world_to_cell`, `cell_center`), the 3x3
neighborhood (`neighbor_slices`), the hillshade (`hillshade`), disc
inflation (`dilate_disc`), the disc extrema (`disc_max`, `disc_min`, row
segments read from one doubling table of column runs) and the
least-squares plane solve, which `plane_fit_grid` and `plane_fit_points`
share, next to bilinear sampling. The solve is split into a sample-layout
half and a height half; for grids the layout half depends only on which
cells are known (finite), so `plane_fit_grid` caches it for the last two
masks seen (the two strip shapes that diagonal moves alternate) and
refits a new surface on a cached mask from its four height moments
alone. Given a margin, `plane_fit_grid` (through `window_sums`) fits only
the `interior` cells: every cell still enters the window sums, and the
fits equal the interior of the whole grid's bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import ndimage


def world_to_cell(x, y, origin, cell_size):
    """Map world coordinates to (row, col) indices. Vectorized."""
    col = np.floor((np.asarray(x) - origin[0]) / cell_size).astype(int)
    row = np.floor((np.asarray(y) - origin[1]) / cell_size).astype(int)
    return row, col


def cell_center(row, col, origin, cell_size):
    x = origin[0] + (np.asarray(col) + 0.5) * cell_size
    y = origin[1] + (np.asarray(row) + 0.5) * cell_size
    return x, y


def neighbor_slices(shape):
    """Slice pairs (dst, src) over the 3x3 neighborhood, row-major offsets.

    For offset (dr, dc), `out[dst] = a[src]` puts a[r - dr, c - dc] at each
    cell (r, c) whose neighbor lies inside the grid; the nine offsets cover
    the whole neighborhood, center included. Cells whose neighbor falls
    outside are left untouched.
    """
    rows, cols = shape
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            dst = (slice(max(dr, 0), rows - max(-dr, 0)), slice(max(dc, 0), cols - max(-dc, 0)))
            src = (slice(max(-dr, 0), rows - max(dr, 0)), slice(max(-dc, 0), cols - max(dc, 0)))
            yield dst, src


def hillshade(elevation: np.ndarray, cell_size: float) -> np.ndarray:
    """Unscaled Lambertian shading, light from the north-west."""
    gy, gx = np.gradient(elevation, cell_size)
    lx, ly, lz = -0.5, 0.5, math.sqrt(0.5)
    norm = 1.0 / np.sqrt(gx * gx + gy * gy + 1.0)
    return (-gx * lx - gy * ly + lz) * norm


def bilinear_sample(values: np.ndarray, origin, cell_size, xs, ys):
    """Bilinearly interpolate a cell-centered grid at world coordinates.

    Coordinates beyond the outermost cell centers clamp to the edge value,
    so the result is defined (and finite) everywhere. `xs` and `ys` may be
    any shapes that broadcast, such as a point set or a (1, C) x (R, 1)
    lattice; the four corners are taken from the flat grid at one index
    per sample, so a lattice reads only the cells it samples.
    """
    fx = (np.asarray(xs, dtype=float) - origin[0]) / cell_size - 0.5
    fy = (np.asarray(ys, dtype=float) - origin[1]) / cell_size - 0.5
    rows, cols = values.shape
    fx = np.minimum(np.maximum(fx, 0.0), cols - 1.0)
    fy = np.minimum(np.maximum(fy, 0.0), rows - 1.0)
    # Truncation is the floor once clamped to >= 0. A grid one cell wide
    # reads its one column (row) twice.
    c0 = np.minimum(fx.astype(int), max(cols - 2, 0))
    r0 = np.minimum(fy.astype(int), max(rows - 2, 0))
    tx = fx - c0
    ty = fy - r0
    flat = values.ravel()
    i00 = r0 * cols + c0
    i01 = i00 + (cols > 1)
    down = cols * (rows > 1)
    v00 = flat.take(i00)
    v01 = flat.take(i01)
    v10 = flat.take(i00 + down)
    v11 = flat.take(i01 + down)
    return (v00 * (1 - tx) * (1 - ty) + v01 * tx * (1 - ty)
            + v10 * (1 - tx) * ty + v11 * tx * ty)


def window_sums(arr: np.ndarray, size: int, margin: int = 0) -> np.ndarray:
    """Sum of `arr` over a size x size window centered on each cell, for
    the cells at least `margin` cells from the border.

    Windows are truncated at the array border (missing cells contribute 0).
    The sums are the two 1-D passes of `ndimage.uniform_filter`, axis 0
    first: down every column, then along the kept rows only, in place.
    Each pass keeps a running sum along whole lines, so dropping rows
    between the passes changes no bit of the rows that are kept.
    """
    s = ndimage.uniform_filter1d(arr, size, axis=0, mode="constant", cval=0.0)[margin:arr.shape[0] - margin]
    ndimage.uniform_filter1d(s, size, axis=1, output=s, mode="constant", cval=0.0)
    return s[:, margin:arr.shape[1] - margin] * (size * size)


def interior(shape, margin: int):
    """The slices of a grid of `shape` that drop `margin` cells on every side."""
    return np.s_[margin:shape[0] - margin, margin:shape[1] - margin]


def plane_fit_grid(z: np.ndarray, window_cells: int, cell_size: float, margin: int = 0):
    """Least-squares plane fit of the neighborhood around every cell.

    Fits z = a*dx + b*dy + c over the known (finite) cells of each centered
    window_cells x window_cells window (dx, dy in meters relative to the
    window center); a non-finite z marks an unknown cell. Returns (a, b, c,
    rms_residual, count) arrays over the cells at least `margin` from the
    border; every cell of `z` still feeds the window sums, so they equal
    the `interior` of the margin-0 fit bit for bit. Cells whose window
    holds fewer than 3 known samples, or a degenerate sample layout, get a
    zero plane and zero residual. The mask half of the solve is cached
    (`_mask_geometry`), so the returned count is read-only.
    """
    known = np.isfinite(z)
    geom = _mask_geometry(known.shape, window_cells, cell_size, margin, known.tobytes())
    count, ok = geom[0], geom[-1]
    gx, gy = _cell_coords(known.shape, cell_size)
    zk = np.where(known, z, 0.0)
    sz = window_sums(zk, window_cells, margin)
    szx = window_sums(zk * gx, window_cells, margin)
    szy = window_sums(zk * gy, window_cells, margin)
    szz = window_sums(zk * zk, window_cells, margin)
    kept = interior(known.shape, margin)
    gx, gy = gx[kept], gy[kept]
    # Empty windows (count = 0) divide by zero; ok is false there.
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b, c, ss_res = _plane_solve(geom, sz, szx - gx * sz, szy - gy * sz, szz)
        rms = np.sqrt(np.maximum(ss_res, 0.0) / count)
    return np.where(ok, a, 0.0), np.where(ok, b, 0.0), np.where(ok, c, 0.0), np.where(ok, rms, 0.0), count


def _cell_coords(shape, cell_size):
    """Cell-center x and y in meters from the grid corner, broadcast to shape."""
    rows, cols = shape
    xs, ys = cell_center(np.arange(rows), np.arange(cols), (0.0, 0.0), cell_size)
    return np.broadcast_to(xs, shape), np.broadcast_to(ys[:, None], shape)


@functools.lru_cache(maxsize=2)
def _mask_geometry(shape, window_cells, cell_size, margin, known_bytes):
    """`_plane_geometry` of every window of a mask, on the cells at least
    `margin` from its border, kept for the last two masks.

    The moments are taken about each window's own center cell, which keeps
    the normal equations exact for irregular known-cell masks. The arrays
    are shared by every caller of the cache, so they are read-only.
    """
    k = np.frombuffer(known_bytes, dtype=bool).reshape(shape).astype(float)
    gx, gy = _cell_coords(shape, cell_size)

    def w(a):
        return window_sums(a, window_cells, margin)

    # The known-cell count, rounded: the filter can sum 3 cells to 2.999...,
    # which would fail the 3-sample test.
    s1 = np.rint(w(k))
    sx = w(k * gx)
    sy = w(k * gy)
    sxx = w(k * gx * gx)
    syy = w(k * gy * gy)
    sxy = w(k * gx * gy)
    kept = interior(shape, margin)
    gx, gy = gx[kept], gy[kept]
    with np.errstate(divide="ignore", invalid="ignore"):
        geom = _plane_geometry(
            s1, sx - s1 * gx, sy - s1 * gy,
            sxx - 2 * gx * sx + gx * gx * s1,
            syy - 2 * gy * sy + gy * gy * s1,
            sxy - gx * sy - gy * sx + gx * gy * s1,
        )
    for arr in geom:
        arr.flags.writeable = False
    return geom


def plane_fit_points(points: np.ndarray):
    """Fit z = a*x + b*y + c to an (N, 3) point set. Returns (a, b, c).

    Fewer than 3 points, or points along one line, give the flat plane
    through their mean height.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 3:
        return 0.0, 0.0, float(pts[:, 2].mean()) if pts.size else 0.0
    # Moments about the first point, so that far-off coordinates don't cancel.
    x0, y0 = pts[0, :2].tolist()
    rel = pts - (x0, y0, 0.0)
    lhs = rel.copy()
    lhs[:, 2] = 1.0
    (sxx, sxy, szx), (_, syy, szy), (sx, sy, sz) = (lhs.T @ rel).tolist()
    geom = _plane_geometry(float(len(pts)), sx, sy, sxx, syy, sxy)
    a, b, c, _ = _plane_solve(geom, sz, szx, szy, 0.0)
    return a, b, c - a * x0 - b * y0


def _plane_geometry(s1, sx, sy, sxx, syy, sxy):
    """Sample-layout half of the least-squares plane z = a*x + b*y + c.

    Arrays or floats: the sample count and x, y moment sums. Eliminating c
    leaves a 2x2 system about the centroid, which `_plane_solve` solves by
    Cramer's rule. Returns (s1, mx, my, cxx, cyy, cxy, inv, ok). ok is
    false below 3 samples or when the samples lie on one line, that is when
    det2, the determinant of the centered 2x2 system, is at most
    1e-9 * (cxx + cyy)**2: the product of the spread's two principal
    variances against the square of their sum, so the test does not depend
    on the coordinate scale or offset. inv is 1 / det2 where ok, else 0,
    which makes a = b = 0 and c the mean z.
    """
    mx = sx / s1
    my = sy / s1
    cxx = sxx - sx * mx
    cyy = syy - sy * my
    cxy = sxy - sx * my
    det2 = cxx * cyy - cxy * cxy
    ok = (s1 >= 3) & (det2 > 1e-9 * (cxx + cyy) ** 2)
    inv = ok / (det2 + (1 - ok))  # never divides by zero
    return s1, mx, my, cxx, cyy, cxy, inv, ok


def _plane_solve(geom, sz, szx, szy, szz):
    """Height half of the plane fit, from `_plane_geometry` and the z, zx,
    zy, zz moment sums. Returns (a, b, c, sum of squared residuals)."""
    s1, mx, my, cxx, cyy, cxy, inv, _ = geom
    mz = sz / s1
    czx = szx - sz * mx
    czy = szy - sz * my
    a = (czx * cyy - czy * cxy) * inv
    b = (cxx * czy - cxy * czx) * inv
    c = mz - a * mx - b * my
    ss_res = szz - sz * mz - a * czx - b * czy
    return a, b, c, ss_res


def slope_degrees(a, b):
    """Inclination of the plane z = a*x + b*y + c, in degrees."""
    return np.degrees(np.arctan(np.hypot(a, b)))


def dilate_disc(mask: np.ndarray, radius_cells: float) -> np.ndarray:
    """Grow a boolean mask by a disc of radius_cells (Euclidean, in cells).

    Same cells as a binary dilation with `disk_footprint(radius_cells)`, at
    the cost of one exact distance transform whatever the radius. Squared
    distances are whole numbers, so comparing them to radius_cells**2 keeps
    the disc edge exact where a radius lies within rounding of sqrt(n).
    """
    if not mask.any():
        return np.zeros_like(mask, dtype=bool)
    d = ndimage.distance_transform_edt(~mask)
    return np.rint(d * d) <= radius_cells * radius_cells


def disc_max(values: np.ndarray, radius_cells: float) -> np.ndarray:
    """Maximum of `values` over the disc `disk_footprint(radius_cells)`
    around each cell, edge cells repeated beyond the border."""
    return _disc_extremum(values, radius_cells, np.maximum)


def disc_min(values: np.ndarray, radius_cells: float) -> np.ndarray:
    """Minimum counterpart of `disc_max`."""
    return _disc_extremum(values, radius_cells, np.minimum)


def _disc_extremum(values, radius_cells, combine):
    """The disc as row segments: its row at offset dy spans columns -w..w.

    The grid is padded once, with edge values, by the disc's reach, and a
    doubling table holds the extremum of every run of 1, 2, 4, ... padded
    columns. A segment of width 2w + 1 is two runs of the longest such
    length, overlapping to cover it, read dy rows away. Max and min round
    nothing and ignore repeats, so every value equals the 2-D footprint
    filter's (for values without NaN).
    """
    half = (disk_footprint(radius_cells).sum(axis=1) // 2).tolist()
    reach = len(half) // 2
    rows, cols = values.shape
    # runs[k][y, j]: the extremum of padded row y over columns j .. j + 2**k - 1,
    # where padded cell (y, j) is cell (y - reach, j - reach), clamped.
    runs = [np.pad(values, reach, mode="edge")]
    while 2 ** len(runs) <= 2 * reach + 1:
        s = 2 ** (len(runs) - 1)
        runs.append(combine(runs[-1][:, :-s], runs[-1][:, s:]))
    segments = {}
    for w in set(half):
        k = (2 * w + 1).bit_length() - 1
        lo, hi = reach - w, reach + w + 1 - 2 ** k
        segments[w] = combine(runs[k][:, lo:lo + cols], runs[k][:, hi:hi + cols])
    out = segments[half[0]][:rows].copy()
    for i, w in enumerate(half[1:], start=1):
        combine(out, segments[w][i:i + rows], out=out)
    return out


def disk_footprint(radius_cells: float) -> np.ndarray:
    """Boolean disc structuring element with the given radius in cells."""
    r = int(np.floor(radius_cells))
    if r < 0:
        raise ValueError("radius must be non-negative")
    span = np.arange(-r, r + 1)
    dx, dy = np.meshgrid(span, span)
    return (dx * dx + dy * dy) <= radius_cells * radius_cells
