"""Seeded input generation for the three workloads, with numpy only.

Nothing here imports segscreen: the program receives the generated
inputs, and the planted ground truth stays with the benchmark.

Every round of a workload has the same make-up whatever the seed: the
number of positive cases and the shapes of the clutter blobs each case
gets come from fixed lists, and the seed only moves blobs, lesions and
intensity noise. Per-round work, and so the timing metrics, then depend
on the program and not on which seed a run drew.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from sgridio import write_sgrid

# Candidates come from thresholding at tau_bin >= 0.30, so painting the
# 0.30 super-level disc of a blob covers every pixel it can contribute.
PAINT_LEVEL = 0.30
CONTROL_LEVEL = 0.5  # the plan's anchor threshold
ACCEPTANCE_SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                               "tests", "data", "acceptance_bench.json")


@dataclass(frozen=True)
class SceneParams:
    """Make-up of one workload's synthetic scenes."""

    frame: tuple[int, int]
    spacing: tuple[float, float]
    cases: int
    positives: int
    organ_radius: float
    organ_peak: float = 0.9
    lesion_area_px: float = 150.0
    lesion_peak: float = 0.9
    effect_size: float = 2.0
    clutter_per_case: int = 2
    clutter_radius: tuple[float, float] = (3.0, 6.0)
    clutter_peak: tuple[float, float] = (0.55, 0.85)
    speckle_per_case: int = 0
    # Distance range of the lesion centre from the organ's. When set, the
    # lesion sits on the organ's rim and its shift is painted outside the
    # control region only, so the control sample keeps the control
    # distribution. When None, the lesion lies inside the organ.
    lesion_offset: tuple[float, float] | None = None
    background: tuple[float, float] = (0.30, 0.05)
    control: tuple[float, float] = (0.50, 0.08)
    noise_floor: float = 0.05




def screen_mmd_params(path: str = ACCEPTANCE_SPEC) -> SceneParams:
    """The pinned acceptance spec's scene, read from the file at
    generation time, at 50 cases per round; 26 positives keep the median
    case among positives."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)["spec"]
    return SceneParams(
        frame=tuple(spec["frame"]), spacing=tuple(spec["spacing"]), cases=50, positives=26,
        organ_radius=spec["organ_radius"], organ_peak=spec["organ_peak"],
        lesion_area_px=spec["lesion_area_px"], lesion_peak=spec["lesion_peak"],
        effect_size=spec["effect_size"], clutter_per_case=spec["clutter_rate"],
        clutter_radius=tuple(spec["clutter_radius"]), clutter_peak=tuple(spec["clutter_peak"]),
        background=(spec["background_mean"], spec["background_sd"]),
        control=(spec["control_mean"], spec["control_sd"]), noise_floor=spec["noise_floor"])


# Organ radius 45 px gives about 7.5k control pixels, above sample_cap.
# Clutter shapes all pass the pre-filter, so every case is screened.
# Three negatives of nine keep the median case among positives.
LARGE_POOL = SceneParams(frame=(192, 192), spacing=(1.0, 1.0), cases=9, positives=6,
                         organ_radius=45.0, clutter_radius=(4.5, 6.0), clutter_peak=(0.7, 0.85))
# Full-resolution slices with a small organ (about 200 control pixels),
# so the screen is light. 15-37 % of the lesion's pixels overlap the
# control region, enough for the L2 overlap check. Speckle stays below
# the pre-filter area; with the clutter a case has 3 candidates.
MANIFEST = SceneParams(frame=(512, 512), spacing=(0.8, 0.8), cases=40, positives=24,
                       lesion_area_px=90.0,
                       organ_radius=7.4, clutter_radius=(4.0, 5.0), clutter_peak=(0.7, 0.85),
                       speckle_per_case=24, lesion_offset=(8.5, 11.5))
SPECKLE_RADIUS = (1.0, 1.6)
SPECKLE_PEAK = (0.5, 0.8)

PLAN = {
    "anchors": ["organ"],
    "tumor_prompt": "tumor",
    "roi": {"padding_mm": [25, 25], "scales": [0.8, 1.0, 1.2], "square": True},
    "rationale": "benchmark scene",
}


@dataclass
class Blob:
    cx: float
    cy: float
    radius: float
    peak: float

    def as_list(self) -> list[float]:
        return [self.cx, self.cy, self.radius, self.peak]


@dataclass
class Case:
    image_id: str
    intensity: np.ndarray
    organ: Blob
    tumor_blobs: list[Blob]  # lesion first when positive, then clutter and speckle
    positive: bool
    lesion_mask: np.ndarray  # planted ground truth (all False when negative)


def level_radius(radius: float, peak: float, level: float) -> float:
    """Radius at which a Gaussian bump of this peak falls to ``level``."""
    if peak <= level:
        return 0.0
    return radius * math.sqrt(2.0 * math.log(peak / level))


def blob_field(frame: tuple[int, int], blobs: list[Blob], windowed: bool = False) -> np.ndarray:
    """Pixelwise max of Gaussian bumps peak * exp(-d^2 / (2 r^2)).

    ``windowed`` evaluates each bump only within 4 radii of its centre;
    beyond that it is below exp(-8) and the noise floor hides it.
    """
    w, h = frame
    out = np.zeros((h, w), dtype=np.float64)
    for b in blobs:
        if windowed:
            reach = 4.0 * b.radius + 2.0
            x0, x1 = max(0, int(b.cx - reach)), min(w, int(b.cx + reach) + 1)
            y0, y1 = max(0, int(b.cy - reach)), min(h, int(b.cy + reach) + 1)
        else:
            x0, x1, y0, y1 = 0, w, 0, h
        ys = np.arange(y0, y1, dtype=np.float64)[:, None]
        xs = np.arange(x0, x1, dtype=np.float64)[None, :]
        d2 = (xs - b.cx) ** 2 + (ys - b.cy) ** 2
        view = out[y0:y1, x0:x1]
        np.maximum(view, b.peak * np.exp(-d2 / (2.0 * b.radius**2)), out=view)
    return out


def organ_map(p: SceneParams, organ: Blob, stored: bool) -> np.ndarray:
    if stored:
        return blob_field(p.frame, [organ], windowed=True).astype(np.float32)
    return blob_field(p.frame, [organ])


def disc(frame: tuple[int, int], cx: float, cy: float, radius: float) -> np.ndarray:
    w, h = frame
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)[None, :]
    return (xs - cx) ** 2 + (ys - cy) ** 2 <= radius**2


def _shape_lists(count: int, per_case: int, radius: tuple[float, float],
                 peak: tuple[float, float]) -> list[list[tuple[float, float]]]:
    """Fixed per-case (radius, peak) lists, stratified over the ranges.

    A fixed generator pairs the strata, so the lists are the same for
    every run seed.
    """
    n = count * per_case
    q = (np.arange(n) + 0.5) / n
    rng = np.random.default_rng(20240611)
    radii = radius[0] + (radius[1] - radius[0]) * q
    peaks = peak[0] + (peak[1] - peak[0]) * q[rng.permutation(n)]
    return [[(float(radii[i * per_case + j]), float(peaks[i * per_case + j]))
             for j in range(per_case)] for i in range(count)]


def _place(rng, frame, margin, far_from, tries=2000):
    """Uniform centre inside the frame with ``margin`` clearance, at least
    the given distance from each (x, y, distance) constraint."""
    w, h = frame
    for _ in range(tries):
        cx = rng.uniform(margin, w - 1 - margin)
        cy = rng.uniform(margin, h - 1 - margin)
        if all(math.hypot(cx - x, cy - y) >= d for x, y, d in far_from):
            return cx, cy
    raise RuntimeError("could not place a blob; the frame is too crowded")


def make_cases(p: SceneParams, seed: int, stored: bool = False) -> list[Case]:
    """Generate one round of cases for a workload from ``seed``.

    ``stored`` marks maps that the program reads back as float32 files;
    the control region is then taken from the float32 organ map, as the
    program will see it.
    """
    w, h = p.frame
    clutter_shapes = _shape_lists(p.cases, p.clutter_per_case, p.clutter_radius, p.clutter_peak)
    speckle_shapes = _shape_lists(p.cases, p.speckle_per_case, SPECKLE_RADIUS, SPECKLE_PEAK)
    cases = []
    for index in range(p.cases):
        rng = np.random.default_rng([seed, index])
        positive = index < p.positives
        ocx, ocy = (w - 1) / 2.0, (h - 1) / 2.0
        organ = Blob(ocx, ocy, p.organ_radius, p.organ_peak)
        control = organ_map(p, organ, stored) >= CONTROL_LEVEL
        control_radius = level_radius(p.organ_radius, p.organ_peak, CONTROL_LEVEL)

        lesion: list[Blob] = []
        lesion_mask = np.zeros((h, w), dtype=bool)
        taken: list[tuple[float, float, float]] = []  # (x, y, paint radius) of placed blobs
        r_l = math.sqrt(p.lesion_area_px / math.pi)
        lesion_paint = level_radius(r_l, p.lesion_peak, PAINT_LEVEL)
        if positive:
            ang = rng.uniform(0.0, 2.0 * math.pi)
            if p.lesion_offset is None:
                budget = max(0.0, control_radius - lesion_paint - 1.0)
                dist = math.sqrt(rng.uniform(0.0, 1.0)) * budget
            else:
                dist = rng.uniform(*p.lesion_offset)
            lcx, lcy = ocx + dist * math.cos(ang), ocy + dist * math.sin(ang)
            lesion.append(Blob(lcx, lcy, r_l, p.lesion_peak))
            lesion_mask = disc(p.frame, lcx, lcy, r_l)
            taken.append((lcx, lcy, lesion_paint))

        # Clutter and speckle stay clear of the organ's control region and
        # of each other, so each is its own component and a clutter
        # candidate's two-sample null is exact.
        clutter, speckle = [], []
        organ_reach = max(control_radius, p.lesion_offset[1] + lesion_paint
                          if p.lesion_offset else 0.0)
        for shapes, out in ((clutter_shapes[index], clutter), (speckle_shapes[index], speckle)):
            for radius, peak in shapes:
                margin = level_radius(radius, peak, PAINT_LEVEL)
                far = [(ocx, ocy, organ_reach + margin + 2.0)]
                far += [(x, y, r + margin + 2.0) for x, y, r in taken]
                cx, cy = _place(rng, p.frame, margin, far)
                out.append(Blob(cx, cy, radius, peak))
                taken.append((cx, cy, margin))

        canvas = rng.normal(*p.background, size=(h, w))
        canvas[control] = rng.normal(*p.control, size=int(control.sum()))
        for b in clutter + speckle:
            paint = disc(p.frame, b.cx, b.cy, level_radius(b.radius, b.peak, PAINT_LEVEL))
            canvas[paint] = rng.normal(*p.control, size=int(paint.sum()))
        for b in lesion:
            paint = disc(p.frame, b.cx, b.cy, lesion_paint)
            if p.lesion_offset is not None:
                paint &= ~control
            shifted = p.control[0] + p.effect_size * p.control[1]
            canvas[paint] = rng.normal(shifted, p.control[1], size=int(paint.sum()))
        cases.append(Case(f"case{index:04d}", canvas, organ, lesion + clutter + speckle,
                          positive, lesion_mask))
    return cases


def write_synthetic(cases: list[Case], p: SceneParams, path: str) -> None:
    """Scene blobs and intensities for the SyntheticBackend workloads."""
    scenes = [{"image_id": c.image_id, "organ": c.organ.as_list(),
               "tumor": [b.as_list() for b in c.tumor_blobs]} for c in cases]
    np.savez(path, intensity=np.stack([c.intensity for c in cases]),
             scenes=json.dumps({"frame": list(p.frame), "spacing": list(p.spacing),
                                "noise_floor": p.noise_floor, "cases": scenes}))


def tumor_map(case: Case, p: SceneParams) -> np.ndarray:
    """Float32 tumor probability map as stored for the file backend."""
    f = blob_field(p.frame, case.tumor_blobs, windowed=True)
    np.maximum(f, p.noise_floor, out=f)
    return np.clip(f, 0.0, 1.0).astype(np.float32)


def write_manifest(cases: list[Case], p: SceneParams, root: str) -> str:
    """On-disk dataset: SGRID intensity, organ, tumor and ground-truth maps,
    a plan per case and the manifest. Returns the manifest path."""
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(PLAN, fh)
    entries = []
    for c in cases:
        stem = c.image_id
        write_sgrid(os.path.join(root, f"{stem}.intensity.sgrid"), c.intensity, p.spacing)
        write_sgrid(os.path.join(root, f"{stem}.organ.sgrid"), organ_map(p, c.organ, stored=True),
                    p.spacing)
        write_sgrid(os.path.join(root, f"{stem}.tumor.sgrid"), tumor_map(c, p), p.spacing)
        write_sgrid(os.path.join(root, f"{stem}.gt.sgrid"), c.lesion_mask, p.spacing)
        entries.append({
            "image_id": stem,
            "intensity": f"{stem}.intensity.sgrid",
            "prompts": {"organ": f"{stem}.organ.sgrid", "tumor": f"{stem}.tumor.sgrid"},
            "plan": "plan.json",
            "ground_truth": f"{stem}.gt.sgrid",
        })
    path = os.path.join(root, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"entries": entries}, fh, indent=1)
    return path
