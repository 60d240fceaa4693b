"""Segmentor abstraction: text-conditioned probability maps behind one interface.

Two backends cover desk-scale needs. The file backend serves
precomputed full-frame maps keyed by (image_id, prompt) and answers
crops by sub-grid extraction; it is view-agnostic, so every view would
get the same map and callers ask it once per crop. The synthetic backend renders analytic Gaussian
blob scenes and natively honors the requested view, behaving like a
perfectly flip-equivariant model.

Both backends are read-only after construction and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import BoundingBox
from .grid import ScalarGrid

VIEW_KINDS = ("identity", "flip_lr", "flip_tb")


def flip_values(values: np.ndarray, kind: str) -> np.ndarray:
    if kind == "identity":
        return values
    if kind == "flip_lr":
        return values[:, ::-1]
    if kind == "flip_tb":
        return values[::-1, :]
    raise ValueError(f"unknown view transform {kind!r}")


@dataclass(frozen=True)
class SegmentorRequest:
    """One inference call: which image, which prompt, which crop and view."""

    image_id: str
    prompt: str
    crop: BoundingBox | None = None
    transform: str = "identity"

    def __post_init__(self) -> None:
        if self.transform not in VIEW_KINDS:
            raise ValueError(f"transform must be one of {VIEW_KINDS}, got {self.transform!r}")


class FileBackend:
    """Serves stored full-frame probability maps, cropping on demand.

    ``maps`` maps (image_id, prompt) to a probability-map ScalarGrid.
    Responses are always in the identity view (``reinfers_views`` is
    False), so run_tta queries it once per support, not once per view.
    """

    reinfers_views = False

    def __init__(self, maps: dict[tuple[str, str], ScalarGrid]):
        for key, grid in maps.items():
            if not grid.is_probability_map():
                raise ValueError(f"stored map for {key} has values outside [0, 1]")
        self._maps = dict(maps)

    def segment(self, request: SegmentorRequest) -> ScalarGrid:
        key = (request.image_id, request.prompt)
        if key not in self._maps:
            raise KeyError(f"no stored probability map for image {request.image_id!r} / prompt {request.prompt!r}")
        grid = self._maps[key]
        if request.crop is None:
            return grid
        c = request.crop
        return grid.crop(c.x0, c.y0, c.x1, c.y1)


@dataclass(frozen=True)
class Blob:
    """Isotropic Gaussian bump: value = peak * exp(-d^2 / (2 * radius^2))."""

    cx: float
    cy: float
    radius: float
    peak: float

    def __post_init__(self) -> None:
        check_blob(self.radius, self.peak)


def check_blob(radius: float, peak: float, prefix: str = "blob ") -> None:
    """A blob's radius is finite and >= 1 px, its peak in (0, 1]; errors
    name them as ``prefix`` + radius / peak."""
    if not (1.0 <= radius < math.inf):
        raise ValueError(f"{prefix}radius must be finite and >= 1 px, got {radius}")
    if not (0.0 < peak <= 1.0):
        raise ValueError(f"{prefix}peak must lie in (0, 1], got {peak}")


@dataclass(frozen=True)
class ClutterSpec:
    """Random distractor blobs added to lesion-prompt maps."""

    count: int = 0
    radius_range: tuple[float, float] = (3.0, 6.0)
    peak_range: tuple[float, float] = (0.55, 0.85)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("clutter count must be >= 0")
        if self.radius_range[0] < 1.0 or self.radius_range[1] < self.radius_range[0]:
            raise ValueError(f"bad clutter radius range {self.radius_range}")
        if not (0.0 < self.peak_range[0] <= self.peak_range[1] <= 1.0):
            raise ValueError(f"bad clutter peak range {self.peak_range}")


@dataclass(frozen=True)
class SyntheticSceneSpec:
    """Analytic scene: organ blobs, lesion blobs, clutter and a noise floor.

    Organ prompts render the organ blobs only. Tumor prompts render
    lesion blobs plus clutter on top of the noise floor. Every value is
    clipped to [0, 1] and reproducible from the clutter seed.
    """

    frame: tuple[int, int]
    spacing: tuple[float, float] = (1.0, 1.0)
    organ_blobs: tuple[Blob, ...] = ()
    lesion_blobs: tuple[Blob, ...] = ()
    clutter: ClutterSpec = field(default_factory=ClutterSpec)
    noise_floor: float = 0.0
    organ_prompts: tuple[str, ...] = ("organ",)
    tumor_prompts: tuple[str, ...] = ("tumor",)

    def __post_init__(self) -> None:
        if self.frame[0] < 1 or self.frame[1] < 1:
            raise ValueError(f"bad frame {self.frame}")
        if not (0.0 <= self.noise_floor <= 1.0):
            raise ValueError(f"noise_floor must lie in [0, 1], got {self.noise_floor}")


def _blob_field(frame: tuple[int, int], blobs: tuple[Blob, ...]) -> np.ndarray:
    w, h = frame
    out = np.zeros((h, w), dtype=np.float64)
    if not blobs:
        return out
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)[None, :]
    for b in blobs:
        d2 = (xs - b.cx) ** 2 + (ys - b.cy) ** 2
        np.maximum(out, b.peak * np.exp(-d2 / (2.0 * b.radius**2)), out=out)
    return out


def clutter_blobs(spec: SyntheticSceneSpec) -> tuple[Blob, ...]:
    """Materialize the clutter blobs for a scene, in a fixed draw order."""
    c = spec.clutter
    if c.count == 0:
        return ()
    rng = np.random.default_rng(c.seed)
    blobs = []
    for _ in range(c.count):
        cx = rng.uniform(0, spec.frame[0] - 1)
        cy = rng.uniform(0, spec.frame[1] - 1)
        radius = rng.uniform(*c.radius_range)
        peak = rng.uniform(*c.peak_range)
        blobs.append(Blob(cx, cy, radius, peak))
    return tuple(blobs)


def render_synthetic(spec: SyntheticSceneSpec, prompt_kind: str) -> ScalarGrid:
    """Render the scene's probability map for an 'organ' or 'tumor' prompt."""
    if prompt_kind == "organ":
        field_ = _blob_field(spec.frame, spec.organ_blobs)
    elif prompt_kind == "tumor":
        field_ = _blob_field(spec.frame, spec.lesion_blobs + clutter_blobs(spec))
        np.maximum(field_, spec.noise_floor, out=field_)
    else:
        raise ValueError(f"prompt kind must be 'organ' or 'tumor', got {prompt_kind!r}")
    return ScalarGrid(np.clip(field_, 0.0, 1.0), spec.spacing)


class SyntheticBackend:
    """Renders blob scenes on demand; equivariant under flips by construction.

    Maps are rendered once per (image, prompt kind) at construction, so
    concurrent segment calls are pure lookups. ``reinfers_views`` is
    True: a request with a flip returns the map as the model would see
    it for the flipped input.
    """

    reinfers_views = True

    def __init__(self, scenes: dict[str, SyntheticSceneSpec]):
        self._scenes = dict(scenes)
        self._rendered: dict[tuple[str, str], ScalarGrid] = {}
        for image_id, spec in self._scenes.items():
            self._rendered[(image_id, "organ")] = render_synthetic(spec, "organ")
            self._rendered[(image_id, "tumor")] = render_synthetic(spec, "tumor")

    def _kind_for(self, image_id: str, prompt: str) -> str:
        spec = self._scenes[image_id]
        if prompt in spec.organ_prompts:
            return "organ"
        if prompt in spec.tumor_prompts:
            return "tumor"
        raise KeyError(f"scene {image_id!r} does not answer prompt {prompt!r}")

    def segment(self, request: SegmentorRequest) -> ScalarGrid:
        if request.image_id not in self._scenes:
            raise KeyError(f"no synthetic scene for image {request.image_id!r}")
        kind = self._kind_for(request.image_id, request.prompt)
        grid = self._rendered[(request.image_id, kind)]
        if request.crop is not None:
            c = request.crop
            grid = grid.crop(c.x0, c.y0, c.x1, c.y1)
        if request.transform != "identity":
            grid = ScalarGrid(flip_values(grid.values, request.transform), grid.spacing)
        return grid
