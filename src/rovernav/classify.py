"""Terrain-complexity classification, from patch to navigation mode.

Three interchangeable backends produce the same assessment type; the two
offline ones class their scores by `class_for_scores` (`from_scores`):

* a geometric baseline that counts rough cells and fits local planes on an
  elevation patch, scoring the count over 240 cells and the slope over 28 deg;
* a wire client that sends a rendered image plus a text prompt to an
  external vision-language endpoint and enforces a strict JSON response;
* a deterministic mock that scores terrain straight from the generating
  parameters, so closed-loop runs need no network and no model.

The sensing backends judge a square patch around a point
(`_classifier_patch`). `ModeSwitcher` turns each verdict into its class's
navigation mode, and a missed one into conservative mode, as the paper
switches "to the most suitable navigation mode" for the terrain classified.
The mission runner only asks.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import urllib.parse
import urllib.request
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import (
    InsufficientDataError,
    ValidationError,
    VlmSchemaError,
    VlmTimeoutError,
    VlmTransportError,
)
from .grids import cell_center, hillshade, plane_fit_grid, plane_fit_points, slope_degrees, window_sums
from .modes import (
    CHALLENGING_MIN_SLOPE_DEG,
    MODE_FOR_CLASS,
    ROCK_SCORE_CUTOFF,
    ROCK_SCORE_GAIN,
    ROCKY_MIN_ROUGH_CELLS,
    SLOPE_SCORE_CUTOFF,
    SLOPE_SCORE_FULL_DEG,
    NavMode,
    TerrainClass,
    class_for_scores,
)
from .terrain import HeightField, TerrainSpec
from .world import World
from . import pgmio


@dataclass(frozen=True)
class TerrainAssessment:
    terrain_class: TerrainClass
    rock_complexity: float
    slope_complexity: float

    def __post_init__(self):
        if not (0.0 <= self.rock_complexity <= 1.0 and 0.0 <= self.slope_complexity <= 1.0):
            raise ValidationError("complexity scores must lie in [0, 1]")

    @classmethod
    def from_scores(cls, rock: float, slope: float) -> TerrainAssessment:
        """The scores clamped to [0, 1], classed by `class_for_scores`."""
        rock, slope = min(max(rock, 0.0), 1.0), min(max(slope, 0.0), 1.0)
        return cls(class_for_scores(rock, slope), rock, slope)


@dataclass(frozen=True)
class GeometricMetrics:
    rock_grid_count: float
    slope_avg: float  # degrees


# Radius of the region around its center that a classifier judges, meters.
ANALYSIS_RADIUS = 10.0
# A cell is rough when the elevation std-dev of its known 3x3 neighborhood
# exceeds this, meters.
STDDEV_ROCK_CELL = 0.1
# Side of the plane-fit sub-windows behind the slope statistics, and the
# spacing of their centers, meters.
FIT_WINDOW_M = 2.0
FIT_STRIDE_M = 1.0


def compute_terrain_metrics(patch: HeightField, radius: float) -> GeometricMetrics:
    """Geometric terrain features over a circular region of a patch.

    Cells with a non-finite elevation are unknown. rock_grid_count counts
    cells whose known 3x3 neighborhood elevation standard deviation exceeds
    STDDEV_ROCK_CELL. The average slope comes from least-squares plane
    fits over overlapping FIT_WINDOW_M sub-windows whose centers,
    FIT_STRIDE_M apart, lie inside the region.
    """
    z, known = patch.elevation, np.isfinite(patch.elevation)
    cell, origin = patch.cell_size, patch.origin
    rows, cols = z.shape
    if rows == 0 or cols == 0:
        raise InsufficientDataError("patch is empty")
    half_x = cols * cell / 2.0
    half_y = rows * cell / 2.0
    if radius > min(half_x, half_y) + 1e-9:
        raise ValidationError("analysis radius exceeds the patch half-extent")

    cx = origin[0] + half_x
    cy = origin[1] + half_y
    gx, gy = np.meshgrid(*cell_center(np.arange(rows), np.arange(cols), origin, cell))
    region = (gx - cx) ** 2 + (gy - cy) ** 2 <= radius * radius
    if not (region & known).any():
        raise InsufficientDataError("no known cells inside the analysis region")

    std = _neighborhood_std(z, known)
    rock_grid_count = int(np.count_nonzero(region & known & (std > STDDEV_ROCK_CELL)))

    win = max(int(round(FIT_WINDOW_M / cell)) | 1, 3)
    a, b, _, _, count = plane_fit_grid(z, win, cell)
    slope = slope_degrees(a, b)
    stride = max(int(round(FIT_STRIDE_M / cell)), 1)
    centers = np.zeros_like(region)
    centers[::stride, ::stride] = True
    sel = centers & region & (count >= 3)
    samples = slope[sel]
    if samples.size == 0:
        raise InsufficientDataError("no plane-fit windows inside the analysis region")
    return GeometricMetrics(
        rock_grid_count=float(rock_grid_count),
        slope_avg=float(samples.mean()),
    )


def _neighborhood_std(z: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Std-dev of the known 3x3 neighborhood around each cell, 0 where none is."""
    vals = np.where(known, z, 0.0)
    n, s, sq = (window_sums(a, 3) for a in (known.astype(float), vals, vals * vals))
    n = np.rint(n)  # the known-cell count, rounded as in `grids._mask_geometry`
    ok = n > 0
    mean = np.where(ok, s / np.maximum(n, 1), 0.0)
    var = np.where(ok, sq / np.maximum(n, 1) - mean * mean, 0.0)
    return np.sqrt(np.maximum(var, 0.0))


def threshold_classify(metrics: GeometricMetrics) -> TerrainAssessment:
    """Class geometric metrics by the one rule, on score scales that put the
    baseline's splits in `modes` (60 rough cells, 14 deg) on the score cutoffs."""
    return TerrainAssessment.from_scores(
        metrics.rock_grid_count / (ROCKY_MIN_ROUGH_CELLS / ROCK_SCORE_CUTOFF),
        metrics.slope_avg / (CHALLENGING_MIN_SLOPE_DEG / SLOPE_SCORE_CUTOFF),
    )


# --- vision-language wire client -------------------------------------------


def default_prompt() -> str:
    return resources.files("rovernav").joinpath("data/prompt_template.txt").read_text(encoding="utf-8")


# The environment variable whose value, when set, is sent as the
# endpoint's bearer token.
VLM_KEY_ENV = "ROVERNAV_VLM_KEY"


@dataclass(frozen=True)
class VlmConfig:
    """Where to send a classification request: an http or https URL with a
    host and, if any, a port in 0-65535, else `ValidationError`."""

    endpoint_url: str
    timeout_s: float = 10.0

    def __post_init__(self):
        try:
            url = urllib.parse.urlsplit(self.endpoint_url)
            url.port  # raises on a port that is no number in range
        except ValueError as exc:  # such as an unclosed IPv6 bracket or port "abc"
            raise ValidationError(f"vlm_endpoint {self.endpoint_url!r}: {exc}") from exc
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValidationError(f"vlm_endpoint {self.endpoint_url!r} is not an http(s) URL with a host")


_RESPONSE_FIELDS = {"terrain_class", "rock_complexity", "slope_complexity"}


def vlm_classify(image: bytes, prompt: str, config: VlmConfig,
                 api_key: str | None = None) -> TerrainAssessment:
    """Send an image + prompt to the configured endpoint, strictly parse.

    The response must be a JSON object with exactly the fields
    terrain_class ("flat"|"rocky"|"challenging"), rock_complexity and
    slope_complexity (numbers in [0, 1]). Anything else - extra fields,
    missing fields, wrong types, out-of-range values, non-JSON bodies -
    raises VlmSchemaError. Transport timeouts raise VlmTimeoutError; every
    other transport failure (refused, HTTP error status, connection closed
    without a reply, truncated body) raises VlmTransportError. No value is
    ever returned on a violation.
    """
    if not image:
        raise ValidationError("image payload is empty")
    body = json.dumps({
        "prompt": prompt,
        "image": base64.b64encode(image).decode("ascii"),
    }).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    req = urllib.request.Request(config.endpoint_url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=config.timeout_s) as resp:
            raw = resp.read()
    except (OSError, http.client.HTTPException) as exc:
        # urllib wraps a timeout while connecting in URLError, one while
        # reading the reply not at all
        if isinstance(exc, TimeoutError) or isinstance(getattr(exc, "reason", None), TimeoutError):
            raise VlmTimeoutError(f"endpoint timed out after {config.timeout_s}s") from exc
        raise VlmTransportError(f"endpoint request failed: {exc}") from exc
    return parse_vlm_response(raw)


def _unique_keys(pairs: list) -> dict:
    """`json.loads` object hook that rejects a repeated key."""
    data = dict(pairs)
    if len(data) != len(pairs):
        raise VlmSchemaError("response repeats a field")
    return data


def parse_vlm_response(raw: bytes | str) -> TerrainAssessment:
    """Validate the strict JSON assessment object."""
    try:
        data = json.loads(raw, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors, and so is
        # an integer past Python's digit limit for int()
        raise VlmSchemaError(f"response is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise VlmSchemaError("response must be a JSON object")
    if set(data.keys()) != _RESPONSE_FIELDS:
        raise VlmSchemaError(f"response fields must be exactly {sorted(_RESPONSE_FIELDS)}")
    cls_raw = data["terrain_class"]
    if not isinstance(cls_raw, str):
        raise VlmSchemaError("terrain_class must be a string")
    try:
        cls = TerrainClass(cls_raw)
    except ValueError as exc:
        raise VlmSchemaError(f"unknown terrain_class {cls_raw!r}") from exc
    scores = {}
    for key in ("rock_complexity", "slope_complexity"):
        val = data[key]
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise VlmSchemaError(f"{key} must be a number")
        # compared before float(), which overflows on a large enough integer
        if not 0.0 <= val <= 1.0:
            raise VlmSchemaError(f"{key}={val} outside [0, 1]")
        scores[key] = float(val)
    return TerrainAssessment(cls, scores["rock_complexity"], scores["slope_complexity"])


def render_patch_image(patch: HeightField) -> bytes:
    """Shaded-relief rendering of a patch as binary graymap bytes.

    This is the simulated stand-in for a forward camera frame: a top-down
    hillshade of the sensed elevation, light from the north-west.
    """
    shade = hillshade(patch.elevation, patch.cell_size)
    shade = np.clip((shade - shade.min()) / max(np.ptp(shade), 1e-9), 0.0, 1.0)
    return pgmio.pgm_bytes((shade * 255).astype(np.uint8))


# --- deterministic mock ------------------------------------------------------

MOCK_JITTER = 0.05


def mock_classify(
    spec: TerrainSpec,
    ground: HeightField,
    position: tuple[float, float],
    seed: int,
) -> TerrainAssessment:
    """Deterministic assessment from the world's own generating parameters.

    The rock score is 9x the spec's rock coverage; the slope score is the
    plane-fit inclination of the ground within ANALYSIS_RADIUS of
    `position`, over 45 degrees. Both get
    seeded jitter of +/-0.05 (keyed on seed and the quantized position, so
    identical runs reproduce identical scores) and clamp to [0, 1]. The
    class is always `class_for_scores` of the emitted scores.
    """
    key = np.random.SeedSequence([
        seed & 0xFFFFFFFFFFFFFFFF,
        int(np.uint64(np.int64(round(position[0] * 16.0)))),
        int(np.uint64(np.int64(round(position[1] * 16.0)))),
        31,
    ])
    rng = np.random.default_rng(key)
    jit_rock, jit_slope = rng.uniform(-MOCK_JITTER, MOCK_JITTER, size=2)

    return TerrainAssessment.from_scores(ROCK_SCORE_GAIN * spec.rock_coverage + jit_rock,
                                         _local_slope(ground, position) / SLOPE_SCORE_FULL_DEG + jit_slope)


def _local_slope(ground: HeightField, position: tuple[float, float]) -> float:
    """Plane-fit slope (degrees) of the ground within ANALYSIS_RADIUS of a position."""
    n = 9
    span = np.linspace(-ANALYSIS_RADIUS, ANALYSIS_RADIUS, n)
    gx, gy = np.meshgrid(position[0] + span, position[1] + span)
    keep = (gx - position[0]) ** 2 + (gy - position[1]) ** 2 <= ANALYSIS_RADIUS * ANALYSIS_RADIUS
    xs = gx[keep]
    ys = gy[keep]
    zs = np.asarray(ground.sample(xs, ys), dtype=float)
    a, b, _ = plane_fit_points(np.column_stack([xs, ys, zs]))
    return float(slope_degrees(a, b))


# --- backends ----------------------------------------------------------------


# Side of the patch a sensing classifier senses, meters: the bounding square
# of the analysed disc. Then each backend's sample pitch.
CLASSIFIER_PATCH_SIZE = 2 * ANALYSIS_RADIUS
GEOMETRIC_PATCH_RESOLUTION = 0.1
VLM_PATCH_RESOLUTION = 0.5


def _classifier_patch(world: World, center, resolution: float) -> HeightField:
    """The CLASSIFIER_PATCH_SIZE square patch centred on `center`."""
    half = CLASSIFIER_PATCH_SIZE / 2.0
    n = round(CLASSIFIER_PATCH_SIZE / resolution)
    return world.sense_elevation_patch((center[0] - half, center[1] - half), (n, n), resolution)


class MockClassifierBackend:
    """Scores terrain from the generating spec; no sensing, no network."""

    def __init__(self, seed: int):
        self.seed = seed

    def assess(self, world: World, center) -> TerrainAssessment:
        spec = world.terrain.spec_at(center[0])
        return mock_classify(spec, world.terrain.ground, center, self.seed)


class GeometricClassifierBackend:
    """Senses an elevation patch ahead and applies the geometric baseline."""

    def assess(self, world: World, center) -> TerrainAssessment:
        patch = _classifier_patch(world, center, GEOMETRIC_PATCH_RESOLUTION)
        return threshold_classify(compute_terrain_metrics(patch, ANALYSIS_RADIUS))


class VlmClassifierBackend:
    """Renders the terrain ahead and queries the configured endpoint.

    The API key, when one is set, comes from the environment variable
    `VLM_KEY_ENV`, read on every request.
    """

    def __init__(self, config: VlmConfig):
        self.config = config
        self.prompt = default_prompt()

    def assess(self, world: World, center) -> TerrainAssessment:
        patch = _classifier_patch(world, center, VLM_PATCH_RESOLUTION)
        image = render_patch_image(patch)
        api_key = os.environ.get(VLM_KEY_ENV)
        return vlm_classify(image, self.prompt, self.config, api_key)


# --- the mode rule -----------------------------------------------------------


class ModeSwitcher:
    """The mode rule: a verdict selects its class's mode, and a missed
    verdict (classifier failure) selects the most cautious mode. Nothing
    carries from one verdict to the next."""

    def update(self, assessment: TerrainAssessment | None) -> NavMode:
        if assessment is None:
            return NavMode.CONSERVATIVE
        return MODE_FOR_CLASS[assessment.terrain_class]
