"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Monte-Carlo criteria use fixed seeds, so every run is reproducible.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from segscreen.bench import BenchSpec, run_bench
from segscreen.candidates import connected_components
from segscreen.cli import main
from segscreen.fusion import apply_view, fuse_supports
from segscreen.gating import GateConfig
from segscreen.grid import BinaryMask, ScalarGrid
from segscreen.metrics import SliceOutcome, dice, slice_sensitivity_specificity
from segscreen.geometry import pad_bbox, BoundingBox
from segscreen.stats import StatisticalParams, bh_fdr, derive_seed, mmd2_unbiased, median_heuristic, two_sample_test

from conftest import write_dataset
from oracles import bh_keep_bruteforce, flood_fill_components
from test_geometry import GEOMETRY_FIXTURES
from test_metrics import DICE_CA_FIXTURES, mask

DATA_DIR = Path(__file__).parent / "data"


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status} - {name}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


def test_c01_bh_matches_bruteforce_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        k = int(rng.integers(1, 51))
        p = rng.uniform(1e-9, 1.0, size=k)
        alpha = float(rng.uniform(0.01, 0.25))
        if bh_fdr(p, alpha).tolist() != bh_keep_bruteforce(p.tolist(), alpha):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(1, "BH equals brute-force rule on 1000 random p-vectors",
           mismatches == 0 and elapsed < 5.0,
           f"{mismatches} mismatches, {elapsed:.2f}s")


def test_c02_empirical_fdr_under_exact_null():
    # 100 independent candidate families of 10; every candidate drawn from
    # the control distribution, so kept candidates are false discoveries.
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    alpha = 0.05
    n_candidates = 0
    n_kept = 0
    for family in range(100):
        p_values = []
        for member in range(10):
            x = rng.normal(0.5, 0.08, size=200)
            y = rng.normal(0.5, 0.08, size=200)
            p_values.append(two_sample_test(x, y, StatisticalParams(permutations=199),
                                            derive_seed(1002, family, member)).p_value)
        kept = bh_fdr(p_values, alpha)
        n_candidates += len(p_values)
        n_kept += int(kept.sum())
    elapsed = time.perf_counter() - t0
    fraction = n_kept / n_candidates
    bound = alpha + 2.0 * math.sqrt(alpha * (1 - alpha) / n_candidates)
    report(2, "null BH-kept fraction within FDR bound",
           fraction <= bound and elapsed < 180.0,
           f"kept {n_kept}/{n_candidates} = {fraction:.4f} <= {bound:.4f}, {elapsed:.1f}s")


def test_c03_mmd2_unbiased_mean_near_zero():
    rng = np.random.default_rng(1003)
    t0 = time.perf_counter()
    values = []
    for _ in range(200):
        x = rng.normal(size=100)
        y = rng.normal(size=100)
        sigma = median_heuristic(np.concatenate([x, y]))
        values.append(mmd2_unbiased(x, y, sigma))
    values = np.array(values)
    se = values.std(ddof=1) / math.sqrt(len(values))
    elapsed = time.perf_counter() - t0
    report(3, "unbiased MMD^2 mean within 3 SE of 0 under the null",
           abs(values.mean()) <= 3 * se and elapsed < 30.0,
           f"mean {values.mean():.2e}, 3SE {3*se:.2e}, {elapsed:.1f}s")


def test_c04_mmd2_closed_form():
    sigma = 1.0
    c = math.sqrt(2.0 * math.log(2.0) * sigma * sigma)
    value = mmd2_unbiased([0.0, 0.0], [c, c], sigma)
    report(4, "closed-form MMD^2 equals 1.0", abs(value - 1.0) < 1e-12, f"got {value!r}")


def test_c05_power_at_two_sd_shift():
    rng = np.random.default_rng(1005)
    t0 = time.perf_counter()
    rejections = 0
    trials = 200
    for i in range(trials):
        x = rng.normal(0.0, 1.0, size=200)
        y = rng.normal(2.0, 1.0, size=200)
        out = two_sample_test(x, y, StatisticalParams(permutations=199), derive_seed(1005, i))
        rejections += out.p_value <= 0.05
    rate = rejections / trials
    elapsed = time.perf_counter() - t0
    report(5, "rejection rate >= 0.9 at a 2 SD shift", rate >= 0.9,
           f"rate {rate:.3f}, {elapsed:.1f}s")


def test_c06_permutation_p_uniform_under_null():
    rng = np.random.default_rng(1006)
    ps = []
    for i in range(500):
        x = rng.normal(size=100)
        y = rng.normal(size=100)
        ps.append(two_sample_test(x, y, StatisticalParams(permutations=199),
                                  derive_seed(1006, i)).p_value)
    ps = np.sort(ps)
    n = len(ps)
    d = max(float((np.arange(1, n + 1) / n - ps).max()),
            float((ps - np.arange(0, n) / n).max()))
    critical = math.sqrt(-math.log(0.005) / 2.0) / math.sqrt(n)  # two-sided 0.01 level
    report(6, "permutation p-values uniform (KS not rejected at 0.01)",
           d <= critical, f"D {d:.4f} <= {critical:.4f}")


def test_c07_connected_components_match_flood_fill():
    rng = np.random.default_rng(1007)
    mismatches = 0
    for _ in range(500):
        bits = rng.uniform(size=(32, 32)) < rng.uniform(0.05, 0.6)
        got = sorted(sorted((int(x), int(y)) for x, y in comp)
                     for comp in connected_components(BinaryMask(bits)))
        want = sorted(sorted(c) for c in flood_fill_components(bits))
        mismatches += got != want
    diag = np.zeros((4, 4), dtype=bool)
    diag[0, 0] = diag[1, 1] = True
    diagonal_ok = len(connected_components(BinaryMask(diag))) == 1
    report(7, "component partition equals BFS flood fill (8-connectivity)",
           mismatches == 0 and diagonal_ok, f"{mismatches} mismatches on 500 masks")


def test_c08_fusion_monotonicity():
    rng = np.random.default_rng(1008)
    violations = 0
    for _ in range(200):
        full = ScalarGrid(rng.uniform(size=(12, 12)))
        rois = [ScalarGrid(rng.uniform(size=(12, 12))) for _ in range(int(rng.integers(1, 4)))]
        fused = fuse_supports(full, [(BoundingBox(0, 0, 12, 12), r) for r in rois])
        for tau in np.arange(0.1, 0.95, 0.1):
            combined = fused.values >= tau
            for src in [full] + rois:
                if np.any((src.values >= tau) & ~combined):
                    violations += 1
    report(8, "fused super-level sets contain every support's", violations == 0,
           f"{violations} violations")


def test_c09_view_involutions_bit_exact():
    rng = np.random.default_rng(1009)
    failures = 0
    for _ in range(100):
        g = ScalarGrid(rng.uniform(size=(int(rng.integers(1, 20)), int(rng.integers(1, 20)))))
        for kind in ("identity", "flip_lr", "flip_tb"):
            if not np.array_equal(apply_view(apply_view(g, kind), kind).values, g.values):
                failures += 1
    report(9, "all view transforms are bit-exact involutions", failures == 0,
           f"{failures} failures on 100 grids x 3 views")


def test_c10_metric_conventions_and_fixtures():
    ok = dice(BinaryMask.full(4, 4, False), BinaryMask.full(4, 4, False)) == 1.0
    sens, _ = slice_sensitivity_specificity([SliceOutcome(False, False)])
    ok &= sens == 0.0
    _, spec = slice_sensitivity_specificity([SliceOutcome(False, False)] * 4)
    ok &= spec == 1.0
    from segscreen.metrics import class_average_accuracy
    fixture_failures = 0
    for name, frame, pred, gt, d, ca in DICE_CA_FIXTURES:
        pm, gm = mask(frame, pred), mask(frame, gt)
        if not (abs(dice(pm, gm) - d) < 1e-12 and abs(class_average_accuracy(pm, gm) - ca) < 1e-12):
            fixture_failures += 1
    report(10, "empty-mask conventions plus 20 hand-computed dice/CA fixtures",
           ok and fixture_failures == 0,
           f"{len(DICE_CA_FIXTURES)} fixtures, {fixture_failures} failures")


def test_c11_geometry_fixtures():
    margin_box = pad_bbox(BoundingBox(30, 30, 60, 50), (25.0, 25.0), (1.0, 1.0), (200, 200))
    ok = margin_box.as_tuple() == (5, 5, 85, 75)  # 25 mm at 1 mm/px = 25 px margin
    failures = 0
    for name, build, expected in GEOMETRY_FIXTURES:
        if build().as_tuple() != expected:
            failures += 1
    report(11, "padding/squaring/scaling/clamping match hand fixtures",
           ok and failures == 0, f"{len(GEOMETRY_FIXTURES)} fixtures, {failures} failures")


def test_c12_end_to_end_determinism(tmp_path, capsys):
    manifest = write_dataset(tmp_path, n_cases=4, seed=77)

    def run(out_name, jobs):
        out_dir = tmp_path / out_name
        rc = main(["run", "--manifest", str(manifest), "--out", str(out_dir),
                   "--seed", "5", "--jobs", str(jobs)])
        assert rc == 0
        masks = {p.name: p.read_bytes() for p in sorted((out_dir / "masks").iterdir())}
        reports = {}
        for p in sorted((out_dir / "reports").iterdir()):
            content = json.loads(p.read_text())
            content.pop("timing", None)
            reports[p.name] = json.dumps(content, sort_keys=True)
        return masks, reports

    first = run("r1", 1)
    second = run("r2", 1)
    parallel = run("r8", 8)
    capsys.readouterr()
    report(12, "byte-identical masks and reports across reruns and --jobs 8",
           first == second == parallel)


def test_c13_synthetic_benchmark_targets():
    payload = json.loads((DATA_DIR / "acceptance_bench.json").read_text())
    spec = BenchSpec.from_dict(payload["spec"])
    pinned = payload["pinned"]
    t0 = time.perf_counter()
    result = run_bench(spec, GateConfig(), jobs=4)
    elapsed = time.perf_counter() - t0
    ok = (
        result.slice_specificity >= max(0.9, pinned["min_slice_specificity"])
        and result.slice_sensitivity >= max(0.8, pinned["min_slice_sensitivity"])
        and elapsed < 600.0
    )
    report(13, "200-case benchmark meets pinned sensitivity/specificity",
           ok,
           f"sens {result.slice_sensitivity:.3f}, spec {result.slice_specificity:.3f}, "
           f"power {result.power:.3f}, fdr {result.empirical_fdr:.3f}, {elapsed:.0f}s")
