"""Each workload at a tiny size passes its checks, and each check fails
when an output is corrupted on purpose."""

import contextlib
import copy
import glob
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import gen
import run
from spans import per_layer_metrics

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
TINY = {"screen_mmd": 4, "manifest_fullres": 4, "large_pool_energy": 2}
SEED = 7


def run_tiny(workload, out_dir, *extra):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                       "--cases", str(TINY[workload]),
                       "--out-dir", str(out_dir), *extra])
    return rc, json.loads(stdout.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_passes_its_checks(workload, tmp_path):
    rc, result = run_tiny(workload, tmp_path)
    assert rc == 0
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 2 * TINY[workload]  # two whole rounds
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert os.listdir(tmp_path) == []  # the work directory is removed


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    rc, result = run_tiny("manifest_fullres", tmp_path, "--trace", "1")
    assert rc == 0 and result["correct"] is True
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == per_layer_metrics()
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["segmentor.segment.calls_per_case"] == 13.0
    assert m["sgrid.read_mib_per_case"] > 3.9
    assert m["pipeline.process_case.self_ms"] > 0
    with open(tmp_path / f"trace-manifest_fullres-s{SEED}.json", encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    assert {s["name"] for s in spans} >= {"pipeline.run_manifest", "fusion.run_tta"}


@pytest.fixture(scope="module")
def screen_outputs(tmp_path_factory):
    """Outputs of a tiny screen_mmd run, kept on disk."""
    out = tmp_path_factory.mktemp("screen")
    rc, result = run_tiny("screen_mmd", out, "--keep")
    assert rc == 0 and result["correct"] is True
    (work,) = glob.glob(str(out / "screen_mmd-*"))
    saved = np.load(os.path.join(work, "out", "outputs.npz"))
    with open(os.path.join(work, "out", "result.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)["config"]
    params = run.scene_params("screen_mmd", TINY["screen_mmd"])
    cases = {c.image_id: c for c in gen.make_cases(params, SEED)}
    yield {"ids": json.loads(str(saved["ids"])), "reports": json.loads(str(saved["reports"])),
           "masks": saved["masks"], "fused": saved["fused"], "cfg": cfg, "cases": cases,
           "params": params}
    shutil.rmtree(work)


def first_tested(outputs):
    for i, rep in enumerate(outputs["reports"]):
        if checks.tested(rep):
            return i, copy.deepcopy(rep)
    raise AssertionError("no tested candidate in the tiny run")


def screen_check(outputs, i, report):
    cfg = outputs["cfg"]
    case = outputs["cases"][outputs["ids"][i]]
    control = gen.organ_map(outputs["params"], case.organ, stored=False) >= gen.CONTROL_LEVEL
    return checks.check_screen_reference(case.image_id, report, outputs["fused"][i],
                                         case.intensity, control, cfg["scoring"]["tau_bin"],
                                         cfg["geometric"]["pre_filter_area"])


def test_flipped_bh_decision_fails(screen_outputs):
    alpha = screen_outputs["cfg"]["statistical"]["alpha"]
    i, rep = first_tested(screen_outputs)
    assert checks.check_bh([rep], alpha) == []
    cand = checks.tested(rep)[0]
    cand["bh_kept"] = not cand["bh_kept"]
    assert checks.check_bh([rep], alpha)


@pytest.mark.parametrize("field", ["statistic", "sigma"])
def test_perturbed_statistic_fails(screen_outputs, field):
    i, rep = first_tested(screen_outputs)
    assert screen_check(screen_outputs, i, rep) == []
    checks.tested(rep)[0][field] *= 1.0 + 1e-7
    assert screen_check(screen_outputs, i, rep)


def test_pvalue_off_the_permutation_lattice_fails(screen_outputs):
    permutations = screen_outputs["cfg"]["statistical"]["permutations"]
    i, rep = first_tested(screen_outputs)
    assert checks.check_pvalues([rep], permutations) == []
    checks.tested(rep)[0]["p_value"] += 1e-4
    assert checks.check_pvalues([rep], permutations)


def test_mask_pixel_outside_fused_superlevel_set_fails(screen_outputs):
    tau_bin = screen_outputs["cfg"]["scoring"]["tau_bin"]
    a_min = screen_outputs["cfg"]["geometric"]["a_min"]
    i = next(k for k, m in enumerate(screen_outputs["masks"]) if m.any())
    mask, fused = screen_outputs["masks"][i].copy(), screen_outputs["fused"][i]
    assert checks.check_final_mask("c", mask, fused, tau_bin, a_min) == []
    r, c = np.argwhere(fused < tau_bin)[0]
    mask[r, c] = True
    assert checks.check_final_mask("c", mask, fused, tau_bin, a_min)


def test_mean_dice_counts_positive_cases_only():
    lesion = np.zeros((4, 4), dtype=bool)
    lesion[0, :2] = True
    found = np.zeros((4, 4), dtype=bool)
    found[0, 0] = True  # Dice 2 * 1 / (1 + 2)
    empty = np.zeros((4, 4), dtype=bool)
    quality, _ = checks.score([found, empty], [lesion, empty], [True, False], 0.05)
    assert quality["mean_dice"] == 2.0 / 3.0


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "screen_mmd",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_metrics()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
