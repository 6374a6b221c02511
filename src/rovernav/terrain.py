"""Procedural Martian-style terrain: gradient-noise heightfields plus rocks.

A terrain is generated in two layers. The ground layer is multi-octave
gradient (Perlin) noise, normalized to 8-bit grayscale and mapped linearly
onto [0, height_variation]. The rock layer is a set of spherical caps placed
by rejection sampling until their total disc area matches the requested
coverage fraction. Everything is a pure function of the spec and its seed.
"""

from __future__ import annotations

import json
import logging
import math
import typing
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ValidationError, malformed_input, read_input_text
from .modes import ROCK_SCORE_GAIN, TerrainClass, class_for_scores
from . import pgmio
from .grids import bilinear_sample, cell_center, world_to_cell

log = logging.getLogger(__name__)

# Rock sizing. Heights are a fixed fraction of the radius so every rock
# stands well above the obstacle-extraction threshold at mapping
# resolution. Fewer-but-bigger rocks keep the same covered area while
# leaving corridors wide enough for the rover's inflated footprint.
ROCK_RADIUS_RANGE = (2.5, 3.5)
ROCK_HEIGHT_FACTOR = 0.8
ROCK_PLACEMENT_MAX_ATTEMPTS = 10_000
COVERAGE_SLACK = 0.10
# Minimum edge-to-edge gap between rocks: wider than twice the planning
# inflation radius, so the corridor between any pair stays plannable.
ROCK_MIN_GAP = 8.5

# Base noise feature size: four features across the extent before lacunarity
# scaling kicks in per octave.
BASE_FEATURES_PER_EXTENT = 4.0


@dataclass(frozen=True)
class TerrainSpec:
    """Parameter set that fully determines one square terrain tile."""

    octaves: int
    lacunarity: float
    height_variation: float
    rock_coverage: float
    extent: float
    cell_size: float
    seed: int
    ground_truth_class: TerrainClass
    persistence: float = 0.5

    def __post_init__(self):
        if self.octaves < 1:
            raise ValidationError("octaves must be a positive integer")
        if self.lacunarity <= 0:
            raise ValidationError("lacunarity must be positive")
        if not 0 < self.persistence <= 1:
            raise ValidationError("persistence must lie in (0, 1]")
        if self.height_variation < 0:
            raise ValidationError("height_variation must be >= 0")
        if not 0 <= self.rock_coverage < 0.5:
            raise ValidationError("rock_coverage must lie in [0, 0.5)")
        if self.extent <= 0 or self.cell_size <= 0:
            raise ValidationError("extent and cell_size must be positive")
        cells = self.extent / self.cell_size
        if abs(cells - round(cells)) > 1e-9 or round(cells) < 1:
            raise ValidationError("extent must be a positive integer multiple of cell_size")
        rock_class = class_for_scores(min(ROCK_SCORE_GAIN * self.rock_coverage, 1.0), 0.0)
        if self.ground_truth_class is TerrainClass.FLAT and rock_class is not TerrainClass.FLAT:
            raise ValidationError("rock_coverage too high for a flat ground-truth class")
        if self.ground_truth_class is TerrainClass.ROCKY and rock_class is not TerrainClass.ROCKY:
            raise ValidationError("rock_coverage too low for a rocky ground-truth class")

    @property
    def cells(self) -> int:
        return round(self.extent / self.cell_size)


@dataclass
class HeightField:
    """Cell-centered elevation grid. Row 0 sits at the minimum-y edge.

    The one elevation raster of the package, sensed patches included. A
    non-finite height marks an unknown cell: `World.sense_points` writes NaN
    at cell centres off the map, `mapping.build_elevation_grid` where no
    known sample landed, and every reader takes its known-cell mask from
    `np.isfinite(elevation)`.
    """

    elevation: np.ndarray
    origin: tuple[float, float]
    cell_size: float

    @property
    def rows(self) -> int:
        return self.elevation.shape[0]

    @property
    def cols(self) -> int:
        return self.elevation.shape[1]

    @property
    def extent_x(self) -> float:
        return self.cols * self.cell_size

    @property
    def extent_y(self) -> float:
        return self.rows * self.cell_size

    def sample(self, xs, ys):
        """Bilinear elevation at world coordinates (clamped at the edges)."""
        return bilinear_sample(self.elevation, self.origin, self.cell_size, xs, ys)


@dataclass(frozen=True)
class Rock:
    x: float
    y: float
    radius: float
    height: float

    def cap_height(self, xs, ys):
        """Height of the spherical cap above local ground at (xs, ys)."""
        d2 = (np.asarray(xs) - self.x) ** 2 + (np.asarray(ys) - self.y) ** 2
        sphere_r = (self.radius**2 + self.height**2) / (2.0 * self.height)
        inside = d2 <= self.radius**2
        z = np.sqrt(np.maximum(sphere_r**2 - d2, 0.0)) - (sphere_r - self.height)
        return np.where(inside, np.maximum(z, 0.0), 0.0)


def generate_heightfield(spec: TerrainSpec, origin: tuple[float, float] = (0.0, 0.0)) -> HeightField:
    """Generate the ground layer (no rocks) for a terrain spec.

    Multi-octave gradient noise is sampled at every cell center, normalized
    to 8-bit grayscale, and mapped linearly onto [0, height_variation].
    Deterministic in the spec's seed.
    """
    n = spec.cells
    gx, gy = np.meshgrid(*cell_center(np.arange(n), np.arange(n), (0.0, 0.0), spec.cell_size))

    rng = np.random.default_rng(np.random.SeedSequence([spec.seed & 0xFFFFFFFFFFFFFFFF, 11]))
    perm = rng.permutation(256)
    perm = np.concatenate([perm, perm])

    wavelength = spec.extent / BASE_FEATURES_PER_EXTENT
    total = np.zeros((n, n))
    amplitude = 1.0
    for octave in range(spec.octaves):
        freq = spec.lacunarity**octave / wavelength
        # Independent offset per octave so octaves decorrelate even at
        # lacunarity 1.0 (same frequency, different gradient alignment).
        off = rng.uniform(0.0, 256.0, size=2)
        total += amplitude * _perlin(gx * freq + off[0], gy * freq + off[1], perm)
        amplitude *= spec.persistence

    lo, hi = float(total.min()), float(total.max())
    if hi - lo < 1e-12:
        gray = np.zeros((n, n), dtype=np.uint8)
    else:
        gray = np.rint((total - lo) / (hi - lo) * 255.0).astype(np.uint8)
    elevation = gray.astype(float) / 255.0 * spec.height_variation
    return HeightField(elevation, origin, spec.cell_size)


def _perlin(xs: np.ndarray, ys: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Classic 2-D gradient noise over an integer lattice (vectorized)."""
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    fx = xs - x0
    fy = ys - y0
    x0 &= 255
    y0 &= 255

    def gradient(hx, hy, dx, dy):
        h = perm[perm[hx] + hy] & 7
        gxs = _GRAD_X[h]
        gys = _GRAD_Y[h]
        return gxs * dx + gys * dy

    n00 = gradient(x0, y0, fx, fy)
    n10 = gradient(x0 + 1, y0, fx - 1, fy)
    n01 = gradient(x0, y0 + 1, fx, fy - 1)
    n11 = gradient(x0 + 1, y0 + 1, fx - 1, fy - 1)

    u = _fade(fx)
    v = _fade(fy)
    return _lerp(_lerp(n00, n10, u), _lerp(n01, n11, u), v)


_DIAG = math.sqrt(0.5)
_GRAD_X = np.array([1.0, -1.0, 0.0, 0.0, _DIAG, _DIAG, -_DIAG, -_DIAG])
_GRAD_Y = np.array([0.0, 0.0, 1.0, -1.0, _DIAG, -_DIAG, _DIAG, -_DIAG])


def _fade(t):
    return t * t * t * (t * (t * 6 - 15) + 10)


def _lerp(a, b, t):
    return a + t * (b - a)


def place_rocks(spec: TerrainSpec, fld: HeightField) -> list[Rock]:
    """Rock discs sampled until their total area matches the coverage target,
    in order of placement.

    Radii are uniform in ROCK_RADIUS_RANGE, heights 0.8x radius, and every
    rock lies strictly inside the tile (center + radius within the border).
    A candidate that would push the total disc area past target * (1 +
    COVERAGE_SLACK) is rejected and redrawn; after
    ROCK_PLACEMENT_MAX_ATTEMPTS consecutive rejections the list is returned
    short, with a warning, rather than failing.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed & 0xFFFFFFFFFFFFFFFF, 7]))
    target = spec.rock_coverage * spec.extent * spec.extent
    ceiling = target * (1.0 + COVERAGE_SLACK)
    r_min, r_max = ROCK_RADIUS_RANGE
    rocks: list[Rock] = []
    area = 0.0
    attempts = 0
    while area < target:
        if attempts >= ROCK_PLACEMENT_MAX_ATTEMPTS:
            log.warning(
                "rock placement stopped short: achieved %.4f of target coverage %.4f",
                area / (spec.extent * spec.extent), spec.rock_coverage,
            )
            break
        radius = rng.uniform(r_min, r_max)
        disc = math.pi * radius * radius
        if area + disc > ceiling or 2 * radius >= spec.extent:
            attempts += 1
            continue
        x = rng.uniform(radius, spec.extent - radius) + fld.origin[0]
        y = rng.uniform(radius, spec.extent - radius) + fld.origin[1]
        if any(math.hypot(r.x - x, r.y - y) < r.radius + radius + ROCK_MIN_GAP for r in rocks):
            attempts += 1
            continue
        rocks.append(Rock(x, y, radius, ROCK_HEIGHT_FACTOR * radius))
        area += disc
        attempts = 0
    return rocks


def add_rocks_to_field(fld: HeightField, rocks: list[Rock]) -> HeightField:
    """Superimpose rock caps onto the ground layer.

    Where caps overlap, the tallest one wins (caps do not stack), so the
    total relief stays bounded by height_variation + the tallest rock.
    """
    out = fld.elevation.copy()
    if not rocks:
        return HeightField(out, fld.origin, fld.cell_size)
    xs, ys = cell_center(np.arange(fld.rows), np.arange(fld.cols), fld.origin, fld.cell_size)
    layer = np.zeros_like(out)
    for rock in rocks:
        (r0, r1), (c0, c1) = world_to_cell(
            [rock.x - rock.radius, rock.x + rock.radius],
            [rock.y - rock.radius, rock.y + rock.radius], fld.origin, fld.cell_size)
        c0, c1 = max(c0 - 1, 0), min(c1 + 2, fld.cols)
        r0, r1 = max(r0 - 1, 0), min(r1 + 2, fld.rows)
        if c0 >= c1 or r0 >= r1:
            continue
        sub_x, sub_y = np.meshgrid(xs[c0:c1], ys[r0:r1])
        layer[r0:r1, c0:c1] = np.maximum(layer[r0:r1, c0:c1], rock.cap_height(sub_x, sub_y))
    return HeightField(out + layer, fld.origin, fld.cell_size)


@dataclass(frozen=True)
class TerrainSegment:
    x0: float
    x1: float
    spec: TerrainSpec


@dataclass
class Terrain:
    """A generated world: ground layer, rocks, and the per-segment specs.

    The specs and the rock list are the record `save_terrain` writes. Rock
    coverage is derived from the list, so it stays true when the list is
    edited (as `config.scene_from_config` clears the spawn sites).
    """

    ground: HeightField
    rocks: list[Rock]
    segments: list[TerrainSegment]

    @property
    def extent_x(self) -> float:
        return self.ground.extent_x

    @property
    def extent_y(self) -> float:
        return self.ground.extent_y

    @property
    def rock_coverage(self) -> float:
        """Fraction of the map under rock discs (overlaps counted twice)."""
        return sum(math.pi * r.radius * r.radius for r in self.rocks) / (self.extent_x * self.extent_y)

    def spec_at(self, x: float) -> TerrainSpec:
        for seg in self.segments:
            if seg.x0 <= x < seg.x1:
                return seg.spec
        return self.segments[-1].spec if x >= self.segments[-1].x1 else self.segments[0].spec

    def full_field(self) -> HeightField:
        """Ground with rock caps stamped in (for export and rendering)."""
        return add_rocks_to_field(self.ground, self.rocks)


def build_terrain(spec: TerrainSpec) -> Terrain:
    """One tile: the one-spec case of `build_mixed_terrain`."""
    return build_mixed_terrain([spec])


# Segments whose neighbors differ in relief by more than this get an
# amplitude ramp at the shared seam so the splice does not create a cliff.
SEAM_RAMP_M = 25.0
SEAM_RAMP_TRIGGER_M = 2.0
# Rocks stay out of the ramp zone so the splice region is benign.
ROCK_INSET_RAMPED = SEAM_RAMP_M


def build_mixed_terrain(specs: list[TerrainSpec]) -> Terrain:
    """Splice square tiles side by side along x into one rectangular world.

    All tiles must share cell_size and extent (the y span). Where adjacent
    tiles differ strongly in height_variation, the taller tile's relief is
    ramped down toward the seam and its rocks are inset past the ramp.
    """
    if not specs:
        raise ValidationError("need at least one terrain spec")
    cell = specs[0].cell_size
    extent = specs[0].extent
    for s in specs:
        if s.cell_size != cell or s.extent != extent:
            raise ValidationError("mixed terrain tiles must share extent and cell_size")

    tiles = []
    all_rocks: list[Rock] = []
    segments = []
    for i, spec in enumerate(specs):
        x0 = i * extent
        fld = generate_heightfield(spec, origin=(x0, 0.0))
        taller_left = i > 0 and spec.height_variation - specs[i - 1].height_variation > SEAM_RAMP_TRIGGER_M
        taller_right = (i < len(specs) - 1
                        and spec.height_variation - specs[i + 1].height_variation > SEAM_RAMP_TRIGGER_M)
        if taller_left or taller_right:
            xs, _ = cell_center(0, np.arange(fld.cols), (0.0, 0.0), cell)
            env = np.ones(fld.cols)
            if taller_left:
                env = np.minimum(env, smoothstep(xs / SEAM_RAMP_M))
            if taller_right:
                env = np.minimum(env, smoothstep((extent - xs) / SEAM_RAMP_M))
            fld.elevation *= env
        rocks = place_rocks(spec, fld)
        inset_lo = ROCK_INSET_RAMPED if taller_left else 0.0
        inset_hi = ROCK_INSET_RAMPED if taller_right else 0.0
        for rock in rocks:
            if x0 + inset_lo <= rock.x - rock.radius and rock.x + rock.radius <= x0 + extent - inset_hi:
                all_rocks.append(rock)
        tiles.append(fld)
        segments.append(TerrainSegment(x0, x0 + extent, spec))

    elevation = np.concatenate([f.elevation for f in tiles], axis=1)
    # Smooth the residual seam discontinuity over a narrow band.
    band = max(int(3.0 / cell), 1)
    for i in range(1, len(specs)):
        j = i * round(extent / cell)
        j0 = max(j - band, 0)
        j1 = min(j + band, elevation.shape[1] - 1)
        t = (np.arange(j0, j1 + 1) - j0) / max(j1 - j0, 1)
        elevation[:, j0 : j1 + 1] = (
            elevation[:, [j0]] * (1 - t)[None, :] + elevation[:, [j1]] * t[None, :]
        )
    return Terrain(HeightField(elevation, (0.0, 0.0), cell), all_rocks, segments)


def smoothstep(t):
    """3t^2 - 2t^3 of t clipped to [0, 1], elementwise."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


# --- export / import -------------------------------------------------------

ELEVATION_PGM = "elevation.pgm"
TERRAIN_META = "terrain.json"


def save_terrain(terrain: Terrain, out_dir) -> None:
    """Write the 16-bit elevation graymap and the sidecar metadata file.

    The sidecar carries the full spec echo and rock list; loading
    regenerates the terrain from them, which reproduces the original
    bit-exactly (generation is deterministic). The graymap is the portable
    rendering of the combined ground + rock surface.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    full = terrain.full_field()
    lo = float(full.elevation.min())
    hi = float(full.elevation.max())
    scale = (hi - lo) / 65535.0 if hi > lo else 1.0
    gray16 = np.rint((full.elevation - lo) / scale).astype(np.uint16)
    pgmio.write_pgm(out / ELEVATION_PGM, gray16, maxval=65535)
    meta = {
        "cell_size": terrain.ground.cell_size,
        "origin": list(terrain.ground.origin),
        "elevation_min": lo,
        "elevation_scale": scale,
        "segments": [
            {
                "x0": seg.x0,
                "x1": seg.x1,
                "spec": spec_to_dict(seg.spec),
            }
            for seg in terrain.segments
        ],
        "rocks": [[r.x, r.y, r.radius, r.height] for r in terrain.rocks],
        "achieved_coverage": terrain.rock_coverage,
    }
    (out / TERRAIN_META).write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")


def load_terrain(in_dir) -> Terrain:
    """Rebuild a terrain from its export directory (exact inverse of save):
    the ground from the segment specs, the rocks as written. The sidecar's
    `achieved_coverage` is not read back."""
    meta_path = Path(in_dir) / TERRAIN_META
    text = read_input_text(meta_path)
    with malformed_input(str(meta_path)):
        meta = json.loads(text)
        specs = [spec_from_dict(seg["spec"]) for seg in meta["segments"]]
        # The rock list in the sidecar is authoritative; it matches
        # regeneration but guards against future constant changes.
        rocks = [Rock(*vals) for vals in meta["rocks"]]
    terrain = build_mixed_terrain(specs)
    terrain.rocks = rocks
    return terrain


# The one terrain-spec codec, for sidecar and config files. Each field's
# type (int, float or TerrainClass) is also its converter.
_SPEC_TYPES = typing.get_type_hints(TerrainSpec)


def spec_to_dict(spec: TerrainSpec) -> dict:
    """The spec as a JSON object, one key per `TerrainSpec` field."""
    data = {f.name: getattr(spec, f.name) for f in fields(TerrainSpec)}
    return {**data, "ground_truth_class": spec.ground_truth_class.value}


def spec_from_dict(data) -> TerrainSpec:
    """Inverse of `spec_to_dict`.

    A non-object or an unknown key raises `ValidationError`, a missing key
    without a `TerrainSpec` default raises `KeyError`, and each value is
    converted to its field's type (int, float or `TerrainClass`).
    """
    if not isinstance(data, dict):
        raise ValidationError(f"terrain spec must be an object, not {data!r}")
    unknown = set(data) - set(_SPEC_TYPES)
    if unknown:
        raise ValidationError(f"unknown terrain spec keys: {sorted(unknown)}")
    return TerrainSpec(**{f.name: _SPEC_TYPES[f.name](data[f.name]) for f in fields(TerrainSpec)
                          if f.name in data or f.default is MISSING})
