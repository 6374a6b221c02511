import math

import numpy as np
import pytest

from rovernav.grids import dilate_disc

from oracles import dilate_disc as dilate_disc_oracle

# Radii in cells as the package forms them (metres / cell size), and radii
# at and one ulp below sqrt(n). The float sqrt(13) and sqrt(65) square to
# just under 13 and 65, so the disc leaves out the offsets at distance
# sqrt(n), while a plain `distance <= radius` (or an unrounded squared
# distance) keeps them.
RADII = [
    0.0, 0.5, 1.0, 3.5 / 0.5, 1.5 / 0.1, 3.5 / 0.1, math.sqrt(13), math.sqrt(65),
    float(np.nextafter(math.sqrt(13), 0)), float(np.nextafter(math.sqrt(65), 0)),
]


def _check(mask, radius):
    got = dilate_disc(mask, radius)
    assert got.dtype == bool and got.shape == mask.shape
    assert got.tolist() == dilate_disc_oracle(mask.tolist(), radius)


@pytest.mark.parametrize("radius", RADII)
def test_matches_oracle_on_random_masks(radius):
    rng = np.random.default_rng(int(radius * 1000))
    for shape, density in (((23, 31), 0.02), ((40, 17), 0.1), ((12, 12), 0.4)):
        _check(rng.random(shape) < density, radius)


@pytest.mark.parametrize("radius", RADII)
def test_empty_mask_stays_empty(radius):
    assert not dilate_disc(np.zeros((9, 14), dtype=bool), radius).any()


@pytest.mark.parametrize("radius", RADII)
def test_single_border_cell(radius):
    for r, c in ((0, 0), (0, 7), (10, 12), (5, 0)):
        mask = np.zeros((11, 13), dtype=bool)
        mask[r, c] = True
        _check(mask, radius)

