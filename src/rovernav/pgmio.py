"""Binary portable graymap and pixmap writers.

Only the features this package needs: P5 graymaps at maxval 255 or 65535
(16-bit samples big-endian, per the netpbm convention) and P6 pixmaps at
maxval 255. No reader, and no external imaging dependency.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def pgm_bytes(values: np.ndarray, maxval: int = 255) -> bytes:
    """A 2-D unsigned integer array as binary P5 graymap bytes."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError("graymap data must be 2-D")
    if values.min() < 0 or values.max() > maxval:
        raise ValueError("graymap values out of range for maxval=%d" % maxval)
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n{maxval}\n".encode("ascii")
    return header + values.astype(">u2" if maxval > 255 else np.uint8).tobytes()


def write_pgm(path, values: np.ndarray, maxval: int = 255) -> None:
    """Write a 2-D unsigned integer array as a binary P5 graymap."""
    Path(path).write_bytes(pgm_bytes(values, maxval))


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as a binary P6 pixmap."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("pixmap data must have shape (H, W, 3)")
    header = f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + rgb.tobytes())
