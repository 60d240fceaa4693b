"""ROI geometry: anchor-driven bounding boxes, padding, squaring, scale jitter.

Boxes use the half-open convention [x0, x1) x [y0, y1) so box arithmetic
composes with array slicing. Padding is specified in millimetres and
converted to pixel margins with ceiling division by the pixel spacing.
When squaring or scaling would push a box over the frame edge, the box
is first shifted back inside and only truncated if it is larger than the
frame itself, so the requested area is preserved whenever possible.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .grid import BinaryMask

DEFAULT_SCALES = (0.8, 1.0, 1.2)
DEFAULT_PADDING_MM = (25.0, 25.0)
DEFAULT_ANCHOR_THRESHOLD = 0.5


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel box; x0/y0 inclusive, x1/y1 exclusive."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate box ({self.x0},{self.y0},{self.x1},{self.y1})")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def area(self) -> int:
        return self.width * self.height

    def within(self, frame: tuple[int, int]) -> bool:
        return 0 <= self.x0 and 0 <= self.y0 and self.x1 <= frame[0] and self.y1 <= frame[1]

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x0, self.y0, self.x1, self.y1)


@dataclass(frozen=True)
class AnatomyPlan:
    """Geometric instructions for locating a lesion site near anchor organs.

    ``anchors`` are opaque prompt strings for structures the segmentor
    can find reliably; ``tumor_prompt`` is the lesion prompt issued
    inside each ROI. Padding/scales/square control ROI construction.
    """

    anchors: tuple[str, ...]
    tumor_prompt: str
    padding_mm: tuple[float, float] = DEFAULT_PADDING_MM
    scales: tuple[float, ...] = DEFAULT_SCALES
    square: bool = True
    rationale: str = ""
    anchor_threshold: float = DEFAULT_ANCHOR_THRESHOLD

    def __post_init__(self) -> None:
        if len(self.anchors) == 0 or not all(isinstance(a, str) and a for a in self.anchors):
            raise ValueError(f"anchors must be a non-empty list of non-empty strings, got {self.anchors}")
        if not self.tumor_prompt:
            raise ValueError("tumor_prompt must be a non-empty string")
        check_scales(self.scales)
        check_padding_mm(self.padding_mm)
        if not (0.0 <= self.anchor_threshold <= 1.0):
            raise ValueError(f"anchor_threshold must lie in [0, 1], got {self.anchor_threshold}")


def check_scales(scales) -> None:
    """ROI scale factors: a non-empty sequence of finite positive numbers."""
    if len(scales) == 0 or any(not (s > 0 and math.isfinite(s)) for s in scales):
        raise ValueError(f"scales must be a non-empty list of finite positive numbers, got {scales}")


def check_padding_mm(padding_mm) -> None:
    """ROI padding: finite and non-negative millimetres on every axis."""
    if any(not (p >= 0 and math.isfinite(p)) for p in padding_mm):
        raise ValueError(f"padding_mm must be finite and >= 0, got {padding_mm}")


def plan_from_dict(
    data: dict,
    source: str = "<plan>",
    default_scales: tuple[float, ...] = DEFAULT_SCALES,
    default_padding_mm: tuple[float, float] = DEFAULT_PADDING_MM,
) -> AnatomyPlan:
    """Build a validated AnatomyPlan from parsed JSON, field by field.

    Plans arrive from an external generator, so every field's JSON type
    is checked here with an explicit error naming the offending entry;
    value ranges are AnatomyPlan's, and every error is prefixed with
    ``source``. A scalar ``padding_mm`` broadcasts to both axes.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{source}: plan must be a JSON object")

    anchors = data.get("anchors")
    if not isinstance(anchors, list) or not all(isinstance(a, str) for a in anchors):
        raise ValueError(f"{source}: 'anchors' must be a list of strings")

    tumor_prompt = data.get("tumor_prompt")
    if not isinstance(tumor_prompt, str):
        raise ValueError(f"{source}: 'tumor_prompt' must be a string")

    roi = data.get("roi", {})
    if not isinstance(roi, dict):
        raise ValueError(f"{source}: 'roi' must be an object")

    padding = roi.get("padding_mm", default_padding_mm)
    if isinstance(padding, (int, float)):
        padding = (float(padding), float(padding))
    elif (isinstance(padding, (list, tuple)) and len(padding) == 2
          and all(isinstance(p, (int, float)) for p in padding)):
        padding = (float(padding[0]), float(padding[1]))
    else:
        raise ValueError(f"{source}: 'roi.padding_mm' must be a number or a pair of numbers")

    scales = roi.get("scales", list(default_scales))
    if not isinstance(scales, list) or not all(isinstance(s, (int, float)) for s in scales):
        raise ValueError(f"{source}: 'roi.scales' must be a list of numbers")

    square = roi.get("square", True)
    if not isinstance(square, bool):
        raise ValueError(f"{source}: 'roi.square' must be a boolean")

    rationale = data.get("rationale", "")
    if not isinstance(rationale, str):
        raise ValueError(f"{source}: 'rationale' must be a string")

    threshold = data.get("anchor_threshold", DEFAULT_ANCHOR_THRESHOLD)
    if not isinstance(threshold, (int, float)):
        raise ValueError(f"{source}: 'anchor_threshold' must be a number")

    try:
        return AnatomyPlan(
            anchors=tuple(anchors),
            tumor_prompt=tumor_prompt,
            padding_mm=padding,
            scales=tuple(float(s) for s in scales),
            square=square,
            rationale=rationale,
            anchor_threshold=float(threshold),
        )
    except ValueError as err:
        raise ValueError(f"{source}: {err}") from err


def load_plan(
    path: str | os.PathLike,
    default_scales: tuple[float, ...] = DEFAULT_SCALES,
    default_padding_mm: tuple[float, float] = DEFAULT_PADDING_MM,
) -> AnatomyPlan:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: invalid JSON in plan file: {err}") from err
    return plan_from_dict(data, source=str(path), default_scales=default_scales,
                          default_padding_mm=default_padding_mm)


def bbox_of_mask(mask: BinaryMask) -> BoundingBox:
    """Tightest box around the true pixels; full frame when the mask is empty.

    The full-frame fallback keeps downstream ROI construction
    well-defined when no anchor was found.
    """
    ys, xs = np.nonzero(mask.bits)
    if xs.size == 0:
        return BoundingBox(0, 0, mask.width, mask.height)
    return BoundingBox(int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)


def _fit_axis(lo: int, hi: int, size: int) -> tuple[int, int]:
    # Shift the interval inside [0, size); truncate only when longer than the frame.
    if hi - lo >= size:
        return 0, size
    if lo < 0:
        hi -= lo
        lo = 0
    if hi > size:
        lo -= hi - size
        hi = size
    return lo, hi


def pad_bbox(
    box: BoundingBox,
    padding_mm: tuple[float, float],
    spacing: tuple[float, float],
    frame: tuple[int, int],
) -> BoundingBox:
    """Grow a box by ceil(delta/spacing) pixels per side, clamped to the frame."""
    if spacing[0] <= 0 or spacing[1] <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    mx = math.ceil(padding_mm[0] / spacing[0])
    my = math.ceil(padding_mm[1] / spacing[1])
    x0, y0 = max(0, box.x0 - mx), max(0, box.y0 - my)
    x1, y1 = min(frame[0], box.x1 + mx), min(frame[1], box.y1 + my)
    return BoundingBox(x0, y0, x1, y1)


def square_bbox(box: BoundingBox, frame: tuple[int, int]) -> BoundingBox:
    """Expand the shorter side to make the box square, as centered as possible.

    Expansion is split evenly across both ends (extra pixel to the
    far end when odd). A result clamped by a frame shorter than the
    target side may remain non-square.
    """
    w, h = box.width, box.height
    if w == h:
        return box
    target = max(w, h)
    x0, y0, x1, y1 = box.as_tuple()
    if w < h:
        extra = target - w
        lo = extra // 2
        x0 -= lo
        x1 += extra - lo
        x0, x1 = _fit_axis(x0, x1, frame[0])
    else:
        extra = target - h
        lo = extra // 2
        y0 -= lo
        y1 += extra - lo
        y0, y1 = _fit_axis(y0, y1, frame[1])
    return BoundingBox(x0, y0, x1, y1)


def _round_half_away(v: float) -> int:
    return int(math.floor(v + 0.5)) if v >= 0 else -int(math.floor(-v + 0.5))


def scale_bbox(box: BoundingBox, gamma: float, frame: tuple[int, int]) -> BoundingBox:
    """Scale both side lengths by gamma about the box center.

    Sides round half away from zero with a 1 px floor; the center is
    preserved up to integer rounding, then the box is shifted/clamped
    into the frame.
    """
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError(f"scale factor must be positive, got {gamma}")
    new_w = max(1, _round_half_away(box.width * gamma))
    new_h = max(1, _round_half_away(box.height * gamma))
    # (x0 + x1) is twice the center; floor keeps the rule deterministic.
    x0 = (box.x0 + box.x1 - new_w) // 2
    y0 = (box.y0 + box.y1 - new_h) // 2
    x0, x1 = _fit_axis(x0, x0 + new_w, frame[0])
    y0, y1 = _fit_axis(y0, y0 + new_h, frame[1])
    return BoundingBox(x0, y0, x1, y1)


def build_rois(
    plan: AnatomyPlan,
    anchor_masks: list[BinaryMask],
    frame: tuple[int, int],
    spacing: tuple[float, float],
) -> tuple[list[BoundingBox], BinaryMask]:
    """Union the anchor masks and derive one jittered ROI per plan scale.

    Returns (boxes, union_mask). Empty anchors contribute nothing; when
    every anchor is empty the base box falls back to the full frame
    (callers should surface that in their report).
    """
    if not anchor_masks:
        raise ValueError("build_rois requires at least one anchor mask")
    union = anchor_masks[0]
    for m in anchor_masks[1:]:
        union = union.union(m)
    if union.frame != frame:
        raise ValueError(f"anchor masks are {union.frame}, expected frame {frame}")

    base = bbox_of_mask(union)
    padded = pad_bbox(base, plan.padding_mm, spacing, frame)
    if plan.square:
        padded = square_bbox(padded, frame)
    boxes = [scale_bbox(padded, gamma, frame) for gamma in plan.scales]
    return boxes, union


def boxes_to_mask(boxes: list[BoundingBox], frame: tuple[int, int]) -> BinaryMask:
    """Rasterize the union of boxes into a mask on the given frame."""
    bits = np.zeros((frame[1], frame[0]), dtype=np.bool_)
    for b in boxes:
        if not b.within(frame):
            raise ValueError(f"box {b.as_tuple()} outside frame {frame}")
        bits[b.y0:b.y1, b.x0:b.x1] = True
    return BinaryMask(bits)
