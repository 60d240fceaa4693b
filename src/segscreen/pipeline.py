"""Per-image orchestration: ROIs, fusion, gates, statistical screen, report.

The stage order is fixed: L1 existence gate on the fused map, candidate
extraction (binarize + small-component pre-filter), the permutation
screen with BH correction across the image's candidates, the L2
candidate gate, then the L3 case gate. A case failing L1 emits an empty
mask without extracting candidates.

Each candidate's decision is written by the stage that makes it:
``screen_family`` writes ``rejected:untestable`` (too small to test) and
``rejected:statistical`` (not a BH discovery), the L2 loop writes
``rejected:L2``, and the L3 case gate ``kept`` or ``rejected:L3``.

Every decision lands in a machine-readable case report; reports are
deterministic for a fixed (inputs, config, seed) apart from the timing
block, which is excluded from that contract.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .candidates import CandidateRegion, candidates_to_mask, connected_components, describe, filter_min_area
from .fusion import run_tta
from .gating import GateConfig, GateVerdict, gate_candidate, gate_case, gate_existence
from .geometry import AnatomyPlan, boxes_to_mask, build_rois, load_plan
from .grid import BinaryMask, ScalarGrid, binarize
from .metrics import MetricsReport
from .segmentor import SegmentorRequest
from .sgrid import read_mask, read_sgrid
from .stats import (MIN_SAMPLE_SIZE, StatisticalParams, TestOutcome, bh_fdr, derive_seed,
                    family_permutations, two_sample_test)

# The stages process_case times into report["timing"], in pipeline order.
TIMING_STAGES = ("rois", "fusion", "l1", "candidates", "screen", "gates")


@dataclass
class ManifestEntry:
    image_id: str
    intensity_path: str
    prompt_paths: dict[str, str]
    plan_path: str
    spacing: tuple[float, float] | None = None
    ground_truth_path: str | None = None


def load_manifest(path: str | os.PathLike) -> list[ManifestEntry]:
    """Parse and validate a dataset manifest; every referenced file must exist."""
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: invalid JSON in manifest: {err}") from err
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise ValueError(f"{path}: manifest must be an object with an 'entries' list")

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base, p)

    entries = []
    seen = set()
    for i, raw in enumerate(data["entries"]):
        where = f"{path}: entries[{i}]"
        if not isinstance(raw, dict):
            raise ValueError(f"{where}: must be an object")
        image_id = raw.get("image_id")
        if not isinstance(image_id, str) or not image_id:
            raise ValueError(f"{where}: 'image_id' must be a non-empty string")
        if image_id in seen:
            raise ValueError(f"{where}: duplicate image_id {image_id!r}")
        seen.add(image_id)
        intensity = raw.get("intensity")
        if not isinstance(intensity, str):
            raise ValueError(f"{where}: 'intensity' must be a path string")
        prompts = raw.get("prompts")
        if not isinstance(prompts, dict) or not prompts or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in prompts.items()
        ):
            raise ValueError(f"{where}: 'prompts' must map prompt strings to map paths")
        plan = raw.get("plan")
        if not isinstance(plan, str):
            raise ValueError(f"{where}: 'plan' must be a path string")
        gt = raw.get("ground_truth")
        if gt is not None and not isinstance(gt, str):
            raise ValueError(f"{where}: 'ground_truth' must be a path string when present")
        spacing = raw.get("spacing")
        if spacing is not None:
            if (not isinstance(spacing, (list, tuple)) or len(spacing) != 2
                    or not all(isinstance(v, (int, float)) and v > 0 for v in spacing)):
                raise ValueError(f"{where}: 'spacing' must be two positive numbers when present")
            spacing = (float(spacing[0]), float(spacing[1]))
        entry = ManifestEntry(
            image_id=image_id,
            intensity_path=resolve(intensity),
            prompt_paths={k: resolve(v) for k, v in prompts.items()},
            plan_path=resolve(plan),
            spacing=spacing,
            ground_truth_path=resolve(gt) if gt else None,
        )
        for candidate_path in [entry.intensity_path, entry.plan_path,
                               *entry.prompt_paths.values()] + (
                                   [entry.ground_truth_path] if entry.ground_truth_path else []):
            if not os.path.exists(candidate_path):
                raise ValueError(f"{where}: referenced file does not exist: {candidate_path}")
        entries.append(entry)
    return entries


def minmax_normalize(intensity: ScalarGrid) -> np.ndarray:
    """Per-image min-max normalized intensity, the default pixel feature."""
    vals = intensity.values
    lo, hi = float(vals.min()), float(vals.max())
    if hi == lo:
        return np.zeros_like(vals)
    return (vals - lo) / (hi - lo)


@dataclass
class CaseResult:
    image_id: str
    final_mask: BinaryMask
    fused: ScalarGrid
    report: dict
    final_candidates: list[CandidateRegion] = field(default_factory=list)
    failed: bool = False


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _candidate_record(c: CandidateRegion, outcome: TestOutcome | None, bh_kept: bool,
                      l2: GateVerdict | None, decision: str) -> dict:
    rec = {
        "id": c.id,
        "area": c.area,
        "centroid": [c.centroid[0], c.centroid[1]],
        "bbox": list(c.bbox.as_tuple()),
        "mean_prob": c.mean_prob,
        "overlap_with_control": c.overlap_with_control,
        "decision": decision,
    }
    if outcome is not None:
        rec["statistic"] = outcome.statistic_observed
        if outcome.bandwidth_sigma is not None:
            rec["sigma"] = outcome.bandwidth_sigma
        rec["p_value"] = outcome.p_value
        rec["permutations_run"] = outcome.permutations_run
        rec["bh_kept"] = bh_kept
    if l2 is not None:
        rec["l2"] = l2.to_dict()
    return rec


def screen_family(cands: list[CandidateRegion], feat: np.ndarray, control: np.ndarray,
                  params: StatisticalParams, base_seed: int, image_id: str,
                  decisions: dict[int, str]) -> tuple[dict[int, TestOutcome], list[CandidateRegion]]:
    """Test each candidate's pixels against the control sample; keep the BH discoveries.

    Each of the K candidates large enough for the statistic runs
    B_K = family_permutations(B, alpha, K) permutations, so that a lone
    candidate can pass BH, and stops once its p-value is certain to
    exceed alpha, which leaves every BH decision as the full run's.
    Writes ``rejected:untestable`` (no p-value, outside the BH family) and
    ``rejected:statistical`` into ``decisions``. Returns the outcomes by
    candidate id and the discoveries, in candidate order."""
    need = MIN_SAMPLE_SIZE[params.statistic]
    tested = [c for c in cands if c.area >= need]
    decisions.update((c.id, "rejected:untestable") for c in cands if c.area < need)
    alpha = params.alpha
    family = replace(params, permutations=family_permutations(params.permutations, alpha,
                                                              len(tested)))
    outcomes = {}
    for c in tested:
        outcomes[c.id] = two_sample_test(feat[c.pixels[:, 1], c.pixels[:, 0]], control, family,
                                         derive_seed(base_seed, image_id, c.id), stop_above=alpha)
    kept = bh_fdr([outcomes[c.id].p_value for c in tested], alpha)
    decisions.update((c.id, "rejected:statistical") for c, k in zip(tested, kept) if not k)
    return outcomes, [c for c, k in zip(tested, kept) if k]


def process_case(
    image_id: str,
    intensity: ScalarGrid,
    plan: AnatomyPlan,
    segmentor,
    cfg: GateConfig,
    base_seed: int = 0,
) -> CaseResult:
    """Run the full screening pipeline on one image.

    Returns the final mask, the fused probability map and a report dict
    describing every decision along the way.
    """
    timing: dict[str, float] = {}
    warnings: list[str] = []
    report: dict = {"image_id": image_id, "seed": base_seed, "warnings": warnings}
    frame, spacing = intensity.frame, intensity.spacing

    t0 = time.perf_counter()
    anchor_masks = []
    for prompt in plan.anchors:
        prob = segmentor.segment(SegmentorRequest(image_id=image_id, prompt=prompt))
        anchor_masks.append(binarize(prob, plan.anchor_threshold))
    boxes, union_mask = build_rois(plan, anchor_masks, frame, spacing)
    if union_mask.is_empty():
        warnings.append("all anchors empty; base box fell back to the full frame")
    roi_domain = boxes_to_mask(boxes, frame)
    report["rois"] = [{"scale": s, "box": list(b.as_tuple())} for s, b in zip(plan.scales, boxes)]
    report["control_area"] = union_mask.count
    timing["rois"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    fused = run_tta(image_id, plan.tumor_prompt, boxes, frame, spacing, segmentor,
                    cfg.scoring.view_rule)
    timing["fusion"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    l1 = gate_existence(fused, roi_domain, union_mask, cfg)
    report["l1"] = l1.to_dict()
    timing["l1"] = time.perf_counter() - t0

    empty = BinaryMask.full(frame[0], frame[1], False)
    if not l1.passed:
        report["candidates"] = []
        report["l3"] = None
        report["final_positive"] = False
        report["timing"] = timing
        return CaseResult(image_id, empty, fused, report)

    t0 = time.perf_counter()
    comps = filter_min_area(connected_components(binarize(fused, cfg.scoring.tau_bin)),
                            cfg.geometric.pre_filter_area)
    cands = [describe(comp, i, fused, union_mask) for i, comp in enumerate(comps)]
    timing["candidates"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    feat = minmax_normalize(intensity)
    control_feat = feat[union_mask.bits]
    decisions: dict[int, str] = {}
    outcomes, screened = {}, cands
    if cands and control_feat.size >= 2:
        outcomes, screened = screen_family(cands, feat, control_feat, cfg.statistical,
                                           base_seed, image_id, decisions)
    elif cands:
        warnings.append("control region smaller than 2 px; statistical screen skipped")
    timing["screen"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    l2_verdicts = {c.id: gate_candidate(c, cfg) for c in screened}
    l2_survivors = [c for c in screened if l2_verdicts[c.id].passed]
    decisions.update((c.id, "rejected:L2") for c in screened if not l2_verdicts[c.id].passed)
    final, l3 = gate_case(l2_survivors, cfg)
    # L3 keeps every survivor or none.
    decisions.update((c.id, "kept" if final else "rejected:L3") for c in l2_survivors)
    timing["gates"] = time.perf_counter() - t0

    discovered = {c.id for c in screened}
    report["candidates"] = [_candidate_record(c, outcomes.get(c.id), c.id in discovered,
                                              l2_verdicts.get(c.id), decisions[c.id]) for c in cands]
    report["l3"] = l3.to_dict()
    report["final_positive"] = bool(final)
    report["timing"] = timing

    return CaseResult(image_id, candidates_to_mask(final, frame), fused, report,
                      final_candidates=final)


def map_ordered(fn, items: list, jobs: int) -> list:
    """``fn`` over ``items`` in item order, on up to ``jobs`` threads; a plain loop at 1."""
    if jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


@dataclass
class RunResult:
    results: list[CaseResult]
    summary: dict


def _read_on_frame(read, path: str, intensity: ScalarGrid):
    """Read a map or mask that must lie on the intensity image's frame."""
    grid = read(path)
    if grid.frame != intensity.frame:
        raise ValueError(f"{path}: frame {grid.frame} differs from the intensity frame {intensity.frame}")
    return grid


def run_manifest(
    manifest: list[ManifestEntry],
    cfg: GateConfig,
    base_seed: int = 0,
    jobs: int = 1,
    out_dir: str | None = None,
    dump_fused: bool = False,
) -> RunResult:
    """Process every manifest entry, isolating per-image failures.

    With ``out_dir`` set, writes masks/<id>.sgrid, reports/<id>.json and
    a summary.json. Images run concurrently up to ``jobs``; outputs are
    aggregated in manifest order so results do not depend on scheduling.
    """
    from .segmentor import FileBackend  # local import keeps module load light

    def one(entry: ManifestEntry):
        """Load and process one image; any failure is captured in the report."""
        try:
            intensity = read_sgrid(entry.intensity_path)
            if entry.spacing and entry.spacing != intensity.spacing:
                # The manifest spacing wins over the header when both are given.
                intensity = ScalarGrid(intensity.values, entry.spacing)
            plan = load_plan(entry.plan_path, default_scales=cfg.scoring.scales,
                             default_padding_mm=(cfg.geometric.padding_mm, cfg.geometric.padding_mm))
            backend = FileBackend({(entry.image_id, prompt): _read_on_frame(read_sgrid, p, intensity)
                                   for prompt, p in entry.prompt_paths.items()})
            gt = (_read_on_frame(read_mask, entry.ground_truth_path, intensity)
                  if entry.ground_truth_path else None)
            return process_case(entry.image_id, intensity, plan, backend, cfg, base_seed), gt
        except Exception as err:  # per-image isolation: report, keep going
            # The innermost two frames and the exception, one line each.
            tail = "".join(traceback.format_exception(err)[-3:]).splitlines()
            report = {"image_id": entry.image_id, "error": f"{type(err).__name__}: {err}",
                      "traceback": tail}
            placeholder = ScalarGrid(np.zeros((1, 1)))
            return CaseResult(entry.image_id, BinaryMask.full(1, 1, False), placeholder,
                              report, failed=True), None

    outcomes = map_ordered(one, manifest, jobs)
    results = [r for r, _ in outcomes]

    metrics = MetricsReport()
    for result, gt in outcomes:
        if gt is not None and not result.failed:
            result.report["metrics"] = metrics.add_slice(result.image_id, result.final_mask,
                                                         result.fused, gt)

    summary = {
        "n_images": len(results),
        "n_failed": sum(1 for r in results if r.failed),
        "n_positive": sum(1 for r in results if not r.failed and r.final_mask.count > 0),
        "seed": base_seed,
    }
    if metrics.rows:
        summary["metrics"] = metrics.to_dict()["summary"]

    if out_dir is not None:
        from .sgrid import write_mask, write_sgrid

        os.makedirs(os.path.join(out_dir, "masks"), exist_ok=True)
        os.makedirs(os.path.join(out_dir, "reports"), exist_ok=True)
        for result in results:
            if not result.failed:
                mask_path = os.path.join(out_dir, "masks", f"{result.image_id}.sgrid")
                write_mask(mask_path, result.final_mask, result.fused.spacing)
                result.report["mask_path"] = os.path.relpath(mask_path, out_dir)
            if dump_fused and not result.failed:
                fused_path = os.path.join(out_dir, "masks", f"{result.image_id}.fused.sgrid")
                write_sgrid(fused_path, result.fused)
            with open(os.path.join(out_dir, "reports", f"{result.image_id}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(_jsonable(result.report), fh, sort_keys=True, indent=2)
                fh.write("\n")
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(_jsonable(summary), fh, sort_keys=True, indent=2)
            fh.write("\n")

    return RunResult(results=results, summary=summary)
