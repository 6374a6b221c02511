"""Shared grid math: the one home of each grid primitive.

All grids in this package are row-major with row 0 at the minimum-y edge;
cell (r, c) has its center at (origin_x + (c + 0.5) * cell_size,
origin_y + (r + 0.5) * cell_size). This module holds the only copies of
the world<->cell transform (`world_to_cell`, `cell_center`), the 3x3
neighborhood (`neighbor_slices`), the hillshade (`hillshade`) and disc
inflation (`dilate_disc`), next to bilinear sampling and plane fits.
"""

from __future__ import annotations

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
    so the result is defined (and finite) everywhere.
    """
    fx = (np.asarray(xs, dtype=float) - origin[0]) / cell_size - 0.5
    fy = (np.asarray(ys, dtype=float) - origin[1]) / cell_size - 0.5
    rows, cols = values.shape
    fx = np.clip(fx, 0.0, cols - 1.0)
    fy = np.clip(fy, 0.0, rows - 1.0)
    c0 = np.clip(np.floor(fx).astype(int), 0, cols - 2) if cols > 1 else np.zeros_like(fx, dtype=int)
    r0 = np.clip(np.floor(fy).astype(int), 0, rows - 2) if rows > 1 else np.zeros_like(fy, dtype=int)
    c1 = np.minimum(c0 + 1, cols - 1)
    r1 = np.minimum(r0 + 1, rows - 1)
    tx = fx - c0
    ty = fy - r0
    v00 = values[r0, c0]
    v01 = values[r0, c1]
    v10 = values[r1, c0]
    v11 = values[r1, c1]
    return (v00 * (1 - tx) * (1 - ty) + v01 * tx * (1 - ty)
            + v10 * (1 - tx) * ty + v11 * tx * ty)


def window_sums(arr: np.ndarray, size: int) -> np.ndarray:
    """Sum of `arr` over a size x size window centered on each cell.

    Windows are truncated at the array border (missing cells contribute 0).
    """
    return ndimage.uniform_filter(arr, size=size, mode="constant", cval=0.0) * (size * size)


def plane_fit_grid(z: np.ndarray, known: np.ndarray, window_cells: int, cell_size: float):
    """Least-squares plane fit of the neighborhood around every cell.

    Fits z = a*dx + b*dy + c over the known cells of each centered
    window_cells x window_cells window (dx, dy in meters relative to the
    window center). Returns (a, b, c, rms_residual, count) arrays. Cells
    whose window holds fewer than 3 known samples, or a degenerate sample
    layout, get a zero plane and zero residual.
    """
    rows, cols = z.shape
    k = known.astype(float)
    zk = np.where(known, z, 0.0)
    xs = (np.arange(cols) + 0.5) * cell_size
    ys = (np.arange(rows) + 0.5) * cell_size
    gx = np.broadcast_to(xs, (rows, cols))
    gy = np.broadcast_to(ys[:, None], (rows, cols))

    def w(a):
        return window_sums(a, window_cells)

    s1 = w(k)
    sx = w(k * gx)
    sy = w(k * gy)
    sxx = w(k * gx * gx)
    syy = w(k * gy * gy)
    sxy = w(k * gx * gy)
    sz = w(zk)
    szx = w(zk * gx)
    szy = w(zk * gy)
    szz = w(zk * zk)

    # Re-center moments on each window's own centroid-free coordinates
    # (relative to the cell center), keeping the normal equations exact
    # for irregular known-cell masks.
    cx = gx
    cy = gy
    m_x = sx - s1 * cx
    m_y = sy - s1 * cy
    m_xx = sxx - 2 * cx * sx + cx * cx * s1
    m_yy = syy - 2 * cy * sy + cy * cy * s1
    m_xy = sxy - cx * sy - cy * sx + cx * cy * s1
    m_zx = szx - cx * sz
    m_zy = szy - cy * sz

    n = rows * cols
    mats = np.zeros((n, 3, 3))
    mats[:, 0, 0] = m_xx.ravel()
    mats[:, 0, 1] = m_xy.ravel()
    mats[:, 0, 2] = m_x.ravel()
    mats[:, 1, 0] = m_xy.ravel()
    mats[:, 1, 1] = m_yy.ravel()
    mats[:, 1, 2] = m_y.ravel()
    mats[:, 2, 0] = m_x.ravel()
    mats[:, 2, 1] = m_y.ravel()
    mats[:, 2, 2] = s1.ravel()
    rhs = np.stack([m_zx.ravel(), m_zy.ravel(), sz.ravel()], axis=1)

    dets = np.linalg.det(mats)
    ok = (s1.ravel() >= 3) & (np.abs(dets) > 1e-12)
    mats[~ok] = np.eye(3)
    rhs[~ok] = 0.0
    sol = np.linalg.solve(mats, rhs[:, :, None])[:, :, 0]

    a = sol[:, 0].reshape(rows, cols)
    b = sol[:, 1].reshape(rows, cols)
    c = sol[:, 2].reshape(rows, cols)

    # Sum of squared residuals: sum(z^2) - x_hat . rhs
    ss_res = szz.ravel() - np.einsum("ij,ij->i", sol, rhs)
    ss_res = np.maximum(ss_res, 0.0).reshape(rows, cols)
    count = s1
    rms = np.zeros_like(z, dtype=float)
    good = count > 0
    rms[good] = np.sqrt(ss_res[good] / count[good])
    okg = ok.reshape(rows, cols)
    a[~okg] = 0.0
    b[~okg] = 0.0
    rms[~okg] = 0.0
    return a, b, c, rms, count


def plane_fit_points(points: np.ndarray):
    """Fit z = a*x + b*y + c to an (N, 3) point set. Returns (a, b, c)."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 3:
        return 0.0, 0.0, float(pts[:, 2].mean()) if pts.size else 0.0
    design = np.column_stack([pts[:, 0], pts[:, 1], np.ones(len(pts))])
    coeffs, *_ = np.linalg.lstsq(design, pts[:, 2], rcond=None)
    return float(coeffs[0]), float(coeffs[1]), float(coeffs[2])


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


def disk_footprint(radius_cells: float) -> np.ndarray:
    """Boolean disc structuring element with the given radius in cells."""
    r = int(np.floor(radius_cells))
    if r < 0:
        raise ValueError("radius must be non-negative")
    span = np.arange(-r, r + 1)
    dx, dy = np.meshgrid(span, span)
    return (dx * dx + dy * dy) <= radius_cells * radius_cells
