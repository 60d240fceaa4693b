"""Desk-scale benchmark: synthetic scenes with known ground truth.

Each case plants an organ blob whose intensity pixels follow the
control distribution. Positive cases add one lesion inside the organ
whose intensities are shifted by ``effect_size`` pooled standard
deviations; negative cases add only clutter blobs placed outside the
organ whose intensities are drawn from the *same* distribution as the
control region, so the two-sample null is exactly true for them. That
construction turns the screening stage's FDR guarantee into a testable
Monte-Carlo quantity rather than an approximation.

Kept candidates are labeled true/false by IoU >= 0.5 against the
planted lesion discs. All randomness derives from per-case seeds, so
results are identical across runs and across any degree of parallelism.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .gating import TAU_BIN_MIN, GateConfig, from_json, read_json
from .geometry import DEFAULT_ANCHOR_THRESHOLD, AnatomyPlan
from .grid import BinaryMask, ScalarGrid, check_spacing
from .metrics import SliceOutcome, slice_sensitivity_specificity
from .pipeline import map_ordered, process_case
from .segmentor import (Blob, ClutterSpec, SyntheticBackend, SyntheticSceneSpec, _blob_field,
                        check_blob)
from .stats import derive_seed

IOU_MATCH_THRESHOLD = 0.5


@dataclass(frozen=True)
class BenchSpec:
    """Parameters of one synthetic benchmark run."""

    n_cases: int = 200
    fraction_positive: float = 0.5
    frame: tuple[int, int] = (96, 96)
    spacing: tuple[float, float] = (1.0, 1.0)
    organ_radius: float = 18.0
    organ_peak: float = 0.9
    lesion_area_px: float = 150.0
    lesion_peak: float = 0.9
    effect_size: float = 2.0
    clutter_rate: int = 2
    clutter_radius: tuple[float, float] = (3.0, 6.0)
    clutter_peak: tuple[float, float] = (0.55, 0.85)
    noise_floor: float = 0.05
    background_mean: float = 0.30
    background_sd: float = 0.05
    control_mean: float = 0.50
    control_sd: float = 0.08
    seed: int = 0

    def __post_init__(self) -> None:
        # The rules of the blobs and scene that make_case builds from these
        # fields, so that a spec accepted here generates every case.
        if self.n_cases < 0:
            raise ValueError(f"n_cases must be >= 0, got {self.n_cases}")
        if not (0.0 <= self.fraction_positive <= 1.0):
            raise ValueError(f"fraction_positive must lie in [0, 1], got {self.fraction_positive}")
        if self.clutter_rate < 0:
            raise ValueError(f"clutter_rate must be >= 0, got {self.clutter_rate}")
        for name in ("effect_size", "background_sd", "control_sd"):
            if not (0.0 <= getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("background_mean", "control_mean"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if len(self.frame) != 2 or not all(isinstance(v, int) and v > 0 for v in self.frame):
            raise ValueError(f"frame must be two positive ints, got {list(self.frame)}")
        check_spacing(self.spacing)
        for name in ("clutter_radius", "clutter_peak"):
            pair = getattr(self, name)
            if len(pair) != 2 or pair[0] > pair[1]:
                raise ValueError(f"{name} must be an ordered pair [low, high], got {list(pair)}")
        if not (math.pi <= self.lesion_area_px < math.inf):
            raise ValueError(f"lesion_area_px must be finite and >= pi (a lesion radius of 1 px), "
                             f"got {self.lesion_area_px}")
        check_blob(self.organ_radius, self.organ_peak, "organ_")
        check_blob(math.sqrt(self.lesion_area_px / math.pi), self.lesion_peak, "lesion_")
        for radius, peak in zip(self.clutter_radius, self.clutter_peak):
            check_blob(radius, peak, "clutter_")
        SyntheticSceneSpec(self.frame, self.spacing, noise_floor=self.noise_floor)
        min_side = 1.0 + 2.0 * _level_radius(self.clutter_radius[1], self.clutter_peak[1], TAU_BIN_MIN)
        if self.clutter_rate > 0 and min(self.frame) < min_side:
            raise ValueError(f"frame must be at least {min_side:.2f} px on each side to hold the "
                             f"widest, brightest clutter blob, got {list(self.frame)}")

    @classmethod
    def from_dict(cls, data: dict, source: str = "<bench spec>") -> "BenchSpec":
        return from_json(cls, data, source, what="bench spec")

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "BenchSpec":
        data = read_json(path, "bench spec")
        # The pinned layout holds the spec under "spec", next to its pinned targets.
        if isinstance(data, dict) and set(data) - {"pinned"} == {"spec"}:
            data = data["spec"]
        return cls.from_dict(data, source=str(path))


def _level_radius(radius: float, peak: float, level: float) -> float:
    """Radius at which a Gaussian blob of given peak drops to ``level``."""
    if peak <= level:
        return 0.0
    return radius * math.sqrt(2.0 * math.log(peak / level))


@dataclass
class SyntheticCase:
    image_id: str
    scene: SyntheticSceneSpec
    intensity: ScalarGrid
    lesion_masks: list[BinaryMask]
    positive: bool


def _paint_disc(rng, canvas: np.ndarray, cx: float, cy: float, radius: float,
                mean: float, sd: float) -> None:
    h, w = canvas.shape
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)[None, :]
    disc = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius**2
    canvas[disc] = rng.normal(mean, sd, size=int(disc.sum()))


def make_case(spec: BenchSpec, index: int) -> SyntheticCase:
    """Generate one deterministic case (scene + intensity + ground truth)."""
    rng = np.random.default_rng(derive_seed(spec.seed, "case", index))
    w, h = spec.frame
    n_pos = round(spec.n_cases * spec.fraction_positive)
    positive = index < n_pos

    ocx, ocy = (w - 1) / 2.0, (h - 1) / 2.0
    organ = Blob(ocx, ocy, spec.organ_radius, spec.organ_peak)
    # Radius of the binarized control mask at the default anchor threshold.
    control_radius = _level_radius(spec.organ_radius, spec.organ_peak, DEFAULT_ANCHOR_THRESHOLD)

    lesion_blobs: tuple[Blob, ...] = ()
    lesion_masks: list[BinaryMask] = []
    lesion_paint: list[tuple[float, float, float]] = []
    if positive:
        r_l = math.sqrt(spec.lesion_area_px / math.pi)
        # Intensity paint must cover any candidate pixels. Candidates come
        # from thresholding at tau_bin >= TAU_BIN_MIN, so painting each
        # blob's disc down to that level always suffices.
        paint_r = _level_radius(r_l, spec.lesion_peak, TAU_BIN_MIN)
        budget = max(0.0, control_radius - paint_r - 1.0)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        dist = math.sqrt(rng.uniform(0.0, 1.0)) * budget
        lcx, lcy = ocx + dist * math.cos(ang), ocy + dist * math.sin(ang)
        lesion_blobs = (Blob(lcx, lcy, r_l, spec.lesion_peak),)
        ys = np.arange(h, dtype=np.float64)[:, None]
        xs = np.arange(w, dtype=np.float64)[None, :]
        lesion_masks.append(BinaryMask((xs - lcx) ** 2 + (ys - lcy) ** 2 <= r_l**2))
        lesion_paint.append((lcx, lcy, paint_r))

    # Clutter centers land strictly outside the control region (plus the
    # paint margin), so a clutter candidate never shares pixels with the
    # control sample and its two-sample null stays exact.
    clutter: list[Blob] = []
    for _ in range(spec.clutter_rate):
        radius = rng.uniform(*spec.clutter_radius)
        peak = rng.uniform(*spec.clutter_peak)
        margin = _level_radius(radius, peak, TAU_BIN_MIN)
        for _ in range(200):
            cx = rng.uniform(margin, w - 1 - margin)
            cy = rng.uniform(margin, h - 1 - margin)
            if math.hypot(cx - ocx, cy - ocy) >= control_radius + margin + 2.0:
                clutter.append(Blob(cx, cy, radius, peak))
                break

    # Clutter positions are constrained relative to the organ, so they are
    # baked in as lesion-prompt blobs rather than drawn by the scene's own
    # unconstrained clutter sampler.
    scene = SyntheticSceneSpec(
        frame=spec.frame,
        spacing=spec.spacing,
        organ_blobs=(organ,),
        lesion_blobs=lesion_blobs + tuple(clutter),
        clutter=ClutterSpec(count=0),
        noise_floor=spec.noise_floor,
        organ_prompts=("organ",),
        tumor_prompts=("tumor",),
    )

    canvas = rng.normal(spec.background_mean, spec.background_sd, size=(h, w))
    control_bits = _blob_field(spec.frame, (organ,)) >= DEFAULT_ANCHOR_THRESHOLD
    canvas[control_bits] = rng.normal(spec.control_mean, spec.control_sd,
                                      size=int(control_bits.sum()))
    for b in clutter:
        _paint_disc(rng, canvas, b.cx, b.cy, _level_radius(b.radius, b.peak, TAU_BIN_MIN),
                    spec.control_mean, spec.control_sd)
    shift = spec.effect_size * spec.control_sd
    for lcx, lcy, paint_r in lesion_paint:
        _paint_disc(rng, canvas, lcx, lcy, paint_r, spec.control_mean + shift, spec.control_sd)

    return SyntheticCase(
        image_id=f"case{index:04d}",
        scene=scene,
        intensity=ScalarGrid(canvas, spec.spacing),
        lesion_masks=lesion_masks,
        positive=positive,
    )


def _iou(pixels: np.ndarray, mask: BinaryMask) -> float:
    hits = int(np.count_nonzero(mask.bits[pixels[:, 1], pixels[:, 0]]))
    union = pixels.shape[0] + mask.count - hits
    return hits / union if union else 0.0


@dataclass
class BenchResult:
    empirical_fdr: float
    power: float
    slice_sensitivity: float
    slice_specificity: float
    n_cases: int
    n_kept: int
    n_kept_false: int
    n_lesions: int
    n_lesions_recovered: int
    cases: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def run_bench(
    spec: BenchSpec,
    cfg: GateConfig = GateConfig(),
    jobs: int = 1,
    dump_dir: str | None = None,
) -> BenchResult:
    """Generate, process and score every case of a benchmark spec.

    ``dump_dir`` optionally writes per-case intensity, fused map and
    final mask as SGRID files for inspection.
    """
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)

    def one(index: int) -> dict:
        case = make_case(spec, index)
        backend = SyntheticBackend({case.image_id: case.scene})
        plan = AnatomyPlan(
            anchors=("organ",),
            tumor_prompt="tumor",
            padding_mm=(cfg.geometric.padding_mm, cfg.geometric.padding_mm),
            scales=cfg.scoring.scales,
            square=True,
        )
        result = process_case(case.image_id, case.intensity, plan, backend, cfg,
                              base_seed=derive_seed(spec.seed, "pipeline", index))
        if dump_dir is not None:
            from .sgrid import write_mask, write_sgrid

            write_sgrid(os.path.join(dump_dir, f"{case.image_id}.intensity.sgrid"), case.intensity)
            write_sgrid(os.path.join(dump_dir, f"{case.image_id}.fused.sgrid"), result.fused)
            write_mask(os.path.join(dump_dir, f"{case.image_id}.mask.sgrid"),
                       result.final_mask, spec.spacing)
        kept_true = 0
        recovered = set()
        for cand in result.final_candidates:
            matched = False
            for li, lmask in enumerate(case.lesion_masks):
                if _iou(cand.pixels, lmask) >= IOU_MATCH_THRESHOLD:
                    matched = True
                    recovered.add(li)
            kept_true += int(matched)
        return {
            "case": case.image_id,
            "positive": case.positive,
            "predicted_positive": result.final_mask.count > 0,
            "n_candidates": len(result.report.get("candidates", [])),
            "n_kept": len(result.final_candidates),
            "n_kept_true": kept_true,
            "n_lesions": len(case.lesion_masks),
            "n_lesions_recovered": len(recovered),
            "l1_passed": bool(result.report.get("l1", {}).get("passed", False)),
        }

    rows = map_ordered(one, list(range(spec.n_cases)), jobs)

    n_kept = sum(r["n_kept"] for r in rows)
    n_kept_true = sum(r["n_kept_true"] for r in rows)
    n_lesions = sum(r["n_lesions"] for r in rows)
    n_recovered = sum(r["n_lesions_recovered"] for r in rows)
    outcomes = [SliceOutcome(r["predicted_positive"], r["positive"]) for r in rows]
    sens, spec_ = slice_sensitivity_specificity(outcomes)
    return BenchResult(
        empirical_fdr=(n_kept - n_kept_true) / n_kept if n_kept else 0.0,
        power=n_recovered / n_lesions if n_lesions else 0.0,
        slice_sensitivity=sens,
        slice_specificity=spec_,
        n_cases=spec.n_cases,
        n_kept=n_kept,
        n_kept_false=n_kept - n_kept_true,
        n_lesions=n_lesions,
        n_lesions_recovered=n_recovered,
        cases=rows,
    )
