"""Correctness checks on the program's outputs.

Each check returns a list of failure messages; an empty list passes.
The checks compare against the planted ground truth, against the
reference implementations in ``refs`` or against properties the method
must have. None compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

import refs

REL_TOL = 1e-9
# Below this pooled size neither the subsampling nor the median heuristic's
# subsample draws from the RNG, so the statistic can be recomputed exactly.
EXACT_POOLED_MAX = 2000


def tested(report: dict) -> list[dict]:
    return [c for c in report.get("candidates", []) if "p_value" in c]


def check_pvalues(reports: list[dict], permutations: int) -> list[str]:
    """Every p-value is k / (B + 1) for an integer k in [1, B + 1]."""
    bad = []
    for rep in reports:
        for c in tested(rep):
            k = c["p_value"] * (permutations + 1)
            if abs(k - round(k)) > 1e-9 or not 1 <= round(k) <= permutations + 1:
                bad.append(f"{rep['image_id']} candidate {c['id']}: p = {c['p_value']!r} "
                           f"is not k/{permutations + 1}")
    return bad


def check_bh(reports: list[dict], alpha: float) -> list[str]:
    """BH decisions recomputed from the reported p-values match bh_kept."""
    bad = []
    for rep in reports:
        cands = tested(rep)
        if not cands:
            continue
        expect = refs.bh_keep([c["p_value"] for c in cands], alpha)
        got = [bool(c["bh_kept"]) for c in cands]
        if expect != got:
            bad.append(f"{rep['image_id']}: bh_kept {got} but the BH rule gives {expect}")
    return bad


def check_final_mask(image_id: str, mask: np.ndarray, fused: np.ndarray, tau_bin: float,
                     a_min: int) -> list[str]:
    """The final mask lies inside {fused >= tau_bin} and each of its
    components has at least a_min pixels."""
    bad = []
    outside = int(np.count_nonzero(mask & ~(fused >= tau_bin)))
    if outside:
        bad.append(f"{image_id}: {outside} mask pixels lie outside the fused super-level set")
    small = [len(c) for c in refs.label8(mask) if len(c) < a_min]
    if small:
        bad.append(f"{image_id}: kept components of {small} px are below a_min {a_min}")
    return bad


def check_screen_reference(image_id: str, report: dict, fused: np.ndarray,
                           intensity: np.ndarray, control: np.ndarray, tau_bin: float,
                           pre_filter_area: int) -> list[str]:
    """Re-extract each tested candidate from the fused map and recompute
    its bandwidth and MMD^2 with the reference implementations.

    Only candidates whose pooled sample has at most EXACT_POOLED_MAX
    points are checked.
    """
    bad = []
    if report.get("control_area") != int(control.sum()):
        return [f"{image_id}: control area {report.get('control_area')} but the organ map "
                f"gives {int(control.sum())}"]
    lo, hi = float(intensity.min()), float(intensity.max())
    feat = (intensity - lo) / (hi - lo)
    control_feat = feat[control]
    comps = [c for c in refs.label8(fused >= tau_bin) if len(c) >= pre_filter_area]
    by_box = {}
    for comp in comps:
        rows, cols = comp[:, 0], comp[:, 1]
        box = (int(cols.min()), int(rows.min()), int(cols.max()) + 1, int(rows.max()) + 1)
        by_box[(box, len(comp))] = comp
    for c in tested(report):
        comp = by_box.get((tuple(c["bbox"]), c["area"]))
        if comp is None:
            bad.append(f"{image_id} candidate {c['id']}: no component with bbox {c['bbox']} "
                       f"and area {c['area']} in the fused map")
            continue
        cand_feat = feat[comp[:, 0], comp[:, 1]]
        if cand_feat.size + control_feat.size > EXACT_POOLED_MAX:
            continue
        sigma = refs.median_pairwise_distance(np.concatenate([cand_feat, control_feat]))
        if abs(c["sigma"] - sigma) > REL_TOL * abs(sigma):
            bad.append(f"{image_id} candidate {c['id']}: sigma {c['sigma']!r}, "
                       f"reference {sigma!r}")
        mmd2, scale = refs.mmd2_unbiased(cand_feat, control_feat, sigma)
        if abs(c["statistic"] - mmd2) > REL_TOL * max(abs(mmd2), scale):
            bad.append(f"{image_id} candidate {c['id']}: MMD^2 {c['statistic']!r}, "
                       f"reference {mmd2!r}")
    return bad


def score(masks: list[np.ndarray], lesions: list[np.ndarray], positives: list[bool],
          alpha: float) -> tuple[dict[str, float], list[str]]:
    """Quality metrics against the planted truth, and the checks on them.

    A kept component is a true find when its IoU with the planted
    lesion is at least 0.5; any other kept component is null clutter.
    ``mean_dice`` is taken over positive cases only: a negative case with
    an empty mask would score 1 and dilute it, and negatives are already
    measured by ``slice_specificity``.
    """
    tp = fn = tn = fp = kept = kept_true = recovered = 0
    dices = []
    for mask, lesion, positive in zip(masks, lesions, positives):
        comps = refs.label8(mask)
        found = False
        for comp in comps:
            hits = int(np.count_nonzero(lesion[comp[:, 0], comp[:, 1]]))
            union = len(comp) + int(lesion.sum()) - hits
            match = positive and union > 0 and hits / union >= 0.5
            kept += 1
            kept_true += int(match)
            found |= match
        recovered += int(found)
        predicted = bool(mask.any())
        tp += int(positive and predicted)
        fn += int(positive and not predicted)
        tn += int(not positive and not predicted)
        fp += int(not positive and predicted)
        if positive:
            dices.append(refs.dice(mask, lesion))
    n_pos = tp + fn
    metrics = {
        "slice_sensitivity": tp / n_pos if n_pos else 0.0,
        "slice_specificity": tn / (tn + fp) if tn + fp else 1.0,
        "lesion_power": recovered / n_pos if n_pos else 0.0,
        "kept_precision": kept_true / kept if kept else 1.0,
        "mean_dice": float(np.mean(dices)) if dices else 0.0,
    }
    bad = []
    for key in ("slice_sensitivity", "slice_specificity"):
        if metrics[key] < 0.95:
            bad.append(f"{key} {metrics[key]:.3f} is below 0.95")
    if kept:
        null_share = (kept - kept_true) / kept
        tolerance = 2.0 * math.sqrt(alpha * (1.0 - alpha) / kept)
        if null_share > alpha + tolerance:
            bad.append(f"kept null clutter share {null_share:.3f} exceeds alpha {alpha} "
                       f"+ {tolerance:.3f}")
    return metrics, bad
