"""Multi-view, multi-support fusion of probability maps.

The supports are the full frame and each ROI crop. Within one support
the flip views are aligned back to the identity frame and combined on
the crop by the configured rule. Across supports the rule is always
pixelwise max: each ROI result is max-pasted into its box on the
full-frame map, which guarantees that no super-level set present in
any single support is lost in the fused map. Probabilities are >= 0,
so this equals the max over full-frame canvases that are zero outside
each box.
"""

from __future__ import annotations

import numpy as np

from .geometry import BoundingBox
from .grid import ScalarGrid
from .segmentor import VIEW_KINDS, SegmentorRequest, flip_values

VIEW_RULES = ("max", "median", "mean")


def check_view_rule(rule: str) -> None:
    """The per-support view fusion rule must be one of VIEW_RULES."""
    if rule not in VIEW_RULES:
        raise ValueError(f"view rule must be one of {VIEW_RULES}, got {rule!r}")


def apply_view(grid: ScalarGrid, kind: str) -> ScalarGrid:
    """Flip a grid; every view is an involution, so this is its own inverse."""
    if kind not in VIEW_KINDS:
        raise ValueError(f"unknown view transform {kind!r}")
    if kind == "identity":
        return grid
    return ScalarGrid(flip_values(grid.values, kind), grid.spacing)


def fuse_views(maps: list[ScalarGrid], rule: str) -> ScalarGrid:
    """Pixelwise max / median / mean across per-view maps on a common canvas.

    Median of an even count takes the lower-middle value so the result
    is always one of the inputs.
    """
    if not maps:
        raise ValueError("fuse_views requires at least one map")
    check_view_rule(rule)
    first = maps[0]
    for m in maps[1:]:
        if m.frame != first.frame:
            raise ValueError(f"view maps disagree on dimensions: {m.frame} vs {first.frame}")
    stack = np.stack([m.values for m in maps])
    if rule == "max":
        fused = stack.max(axis=0)
    elif rule == "mean":
        fused = stack.mean(axis=0)
    else:
        fused = np.sort(stack, axis=0)[(len(maps) - 1) // 2]
    return ScalarGrid(fused, first.spacing)


def fuse_supports(full_frame: ScalarGrid,
                  roi_maps: list[tuple[BoundingBox, ScalarGrid]]) -> ScalarGrid:
    """Conservative support fusion: max-paste each ROI crop map into its
    box on the full-frame map, so a high-probability region seen by any
    support survives.

    Each box must lie inside the frame and each crop must have its box's
    shape; both guard responses from plug-in backends.
    """
    out = np.array(full_frame.values)
    for box, crop in roi_maps:
        if not box.within(full_frame.frame):
            raise ValueError(f"box {box.as_tuple()} outside {full_frame.width}x{full_frame.height} frame")
        if crop.frame != (box.width, box.height):
            raise ValueError(
                f"crop is {crop.width}x{crop.height} but box is {box.width}x{box.height}"
            )
        window = out[box.y0:box.y1, box.x0:box.x1]
        np.maximum(window, crop.values, out=window)
    return ScalarGrid(out, full_frame.spacing)


def run_tta(
    image_id: str,
    tumor_prompt: str,
    boxes: list[BoundingBox],
    frame: tuple[int, int],
    spacing: tuple[float, float],
    segmentor,
    view_rule: str = "max",
) -> ScalarGrid:
    """Full test-time-augmentation pass producing the fused probability map.

    Supports are the full frame plus each ROI box. A backend that
    re-infers per view (``reinfers_views``) is queried once per support
    and view, and each answer is flipped back to the identity frame; a
    view-agnostic backend would answer every view with the same map, so
    it is queried once per support. The views are fused on the crop by
    ``view_rule``, then the supports are max-fused.
    """
    views = VIEW_KINDS if getattr(segmentor, "reinfers_views", False) else ("identity",)
    support_maps: list[ScalarGrid] = []
    for label, crop in [("full", None)] + [(f"roi[{i}]", b) for i, b in enumerate(boxes)]:
        view_maps: list[ScalarGrid] = []
        for kind in views:
            request = SegmentorRequest(image_id=image_id, prompt=tumor_prompt, crop=crop,
                                       transform=kind)
            try:
                raw = segmentor.segment(request)
            except KeyError as err:
                detail = err.args[0] if err.args else err
                raise KeyError(f"{detail} (support {label}, view {kind})") from err
            view_maps.append(apply_view(raw, kind))
        support_maps.append(fuse_views(view_maps, view_rule))

    full = support_maps[0]
    if full.frame != frame:
        raise ValueError(f"full-frame map is {full.frame}, expected frame {frame}")
    fused = fuse_supports(full, list(zip(boxes, support_maps[1:])))
    return ScalarGrid(fused.values, spacing)
