import json

import numpy as np
import pytest

import segscreen.bench as bench
import segscreen.pipeline as pipeline
from segscreen.bench import BenchSpec, make_case, run_bench
from segscreen.gating import GateConfig
from segscreen.grid import ScalarGrid
from segscreen.pipeline import (load_manifest, minmax_normalize, process_case, run_manifest,
                                screen_family)
from segscreen.segmentor import Blob, FileBackend, SyntheticBackend, SyntheticSceneSpec, render_synthetic
from segscreen.geometry import AnatomyPlan
from segscreen.stats import MIN_SAMPLE_SIZE, bh_fdr, family_permutations, two_sample_test

from conftest import write_dataset


class TestManifestLoading:
    def test_valid_manifest(self, small_dataset):
        manifest = load_manifest(small_dataset)
        assert len(manifest) == 2
        assert manifest[0].image_id == "case0000"
        assert manifest[0].ground_truth_path.endswith("case0000.gt.sgrid")

    def test_duplicate_ids_rejected(self, tmp_path, small_dataset):
        data = json.loads(small_dataset.read_text())
        data["entries"].append(data["entries"][0])
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="duplicate image_id"):
            load_manifest(bad)

    def test_missing_file_rejected(self, tmp_path, small_dataset):
        data = json.loads(small_dataset.read_text())
        data["entries"][0]["intensity"] = "nope.sgrid"
        bad = tmp_path / "missing.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="does not exist"):
            load_manifest(bad)

    def test_null_optional_keys_count_as_absent(self, tmp_path, small_dataset):
        data = json.loads(small_dataset.read_text())
        data["entries"][0].update(ground_truth=None, spacing=None)
        path = tmp_path / "nulls.json"
        path.write_text(json.dumps(data))
        entry = load_manifest(path)[0]
        assert entry.ground_truth_path is None and entry.spacing is None

    def test_field_errors_are_located(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"entries": [{"image_id": ""}]}))
        with pytest.raises(ValueError, match=r"entries\[0\].*image_id"):
            load_manifest(bad)


class TestMinmaxNormalize:
    def test_unit_range(self):
        g = ScalarGrid(np.array([[2.0, 4.0], [6.0, 10.0]]))
        out = minmax_normalize(g)
        assert out.min() == 0.0 and out.max() == 1.0
        assert out[0, 1] == pytest.approx(0.25)

    def test_constant_image(self):
        g = ScalarGrid(np.full((3, 3), 7.0))
        assert np.all(minmax_normalize(g) == 0.0)


def noise_scene(frame=(64, 64)):
    return SyntheticSceneSpec(
        frame=frame,
        organ_blobs=(Blob(frame[0] / 2, frame[1] / 2, 10, 0.9),),
        lesion_blobs=(),
        noise_floor=0.05,
    )


# Each scene returns the process_case inputs after the image id:
# (intensity, plan, backend, cfg).

def scene_pure_noise():
    rng = np.random.default_rng(100)
    backend = SyntheticBackend({"img": noise_scene()})
    intensity = ScalarGrid(rng.normal(0.3, 0.05, size=(64, 64)))
    plan = AnatomyPlan(anchors=("organ",), tumor_prompt="tumor")
    return intensity, plan, backend, GateConfig()


def lesion_scene(seed, lesion_center):
    rng = np.random.default_rng(seed)
    lx, ly = lesion_center
    scene = SyntheticSceneSpec(
        frame=(64, 64),
        organ_blobs=(Blob(32, 32, 12, 0.9),),
        lesion_blobs=(Blob(lx, ly, 7, 0.9),),
        noise_floor=0.05,
    )
    backend = SyntheticBackend({"img": scene})
    canvas = rng.normal(0.3, 0.05, size=(64, 64))
    ys, xs = np.mgrid[0:64, 0:64]
    organ_disc = (xs - 32) ** 2 + (ys - 32) ** 2 <= 169
    canvas[organ_disc] = rng.normal(0.5, 0.08, size=int(organ_disc.sum()))
    lesion_disc = (xs - lx) ** 2 + (ys - ly) ** 2 <= 121
    canvas[lesion_disc] = rng.normal(0.8, 0.08, size=int(lesion_disc.sum()))
    plan = AnatomyPlan(anchors=("organ",), tumor_prompt="tumor")
    return ScalarGrid(canvas), plan, backend, GateConfig()


def scene_planted_lesion():
    return lesion_scene(101, (34, 30))


def scene_centred_lesion():
    return lesion_scene(103, (32, 32))


def scene_outside_blob():
    # strong uniform probabilities force candidates from pure noise intensity
    rng = np.random.default_rng(102)
    scene = SyntheticSceneSpec(
        frame=(64, 64),
        organ_blobs=(Blob(32, 32, 12, 0.9),),
        lesion_blobs=(Blob(10, 10, 5, 0.8),),
        noise_floor=0.05,
    )
    backend = SyntheticBackend({"img": scene})
    intensity = ScalarGrid(rng.normal(0.4, 0.05, size=(64, 64)))
    plan = AnatomyPlan(anchors=("organ",), tumor_prompt="tumor")
    return intensity, plan, backend, GateConfig()


def scene_single_pixel():
    # The unbiased MMD^2 needs two points per set, so a 1 px candidate
    # admitted by pre_filter_area=1 gets a decision without a p-value.
    rng = np.random.default_rng(104)
    scene = SyntheticSceneSpec(
        frame=(64, 64),
        organ_blobs=(Blob(32, 32, 10, 0.9),),
        lesion_blobs=(Blob(32, 32, 5, 0.9),),
        noise_floor=0.05,
    )
    tumor = render_synthetic(scene, "tumor").values.copy()
    tumor[5, 5] = 0.9
    backend = FileBackend({("img", "organ"): render_synthetic(scene, "organ"),
                           ("img", "tumor"): ScalarGrid(tumor)})
    intensity = ScalarGrid(rng.normal(0.4, 0.05, size=(64, 64)))
    plan = AnatomyPlan(anchors=("organ",), tumor_prompt="tumor")
    return intensity, plan, backend, GateConfig().override(pre_filter_area=1)


def scene_lone_lesion_among_ten():
    # One lesion among 10 null candidates outside the organ, K = 11.
    rng = np.random.default_rng(101)
    size, c = 200, 99.5
    organ, lesion = Blob(c, c, 30.0, 0.9), Blob(c + 6.0, c - 5.0, 6.0, 0.9)
    clutter = [Blob(c + 75.0 * np.cos(0.2 * np.pi * k), c + 75.0 * np.sin(0.2 * np.pi * k),
                    5.0, 0.9) for k in range(10)]
    scene = SyntheticSceneSpec(frame=(size, size), organ_blobs=(organ,),
                               lesion_blobs=(lesion, *clutter), noise_floor=0.05)
    ys, xs = np.mgrid[0:size, 0:size]

    def disc(b, r):
        return (xs - b.cx) ** 2 + (ys - b.cy) ** 2 <= r * r

    intensity = rng.normal(0.3, 0.05, size=(size, size))
    null = disc(organ, 33.0) | np.any([disc(b, 9.0) for b in clutter], axis=0)
    intensity[null] = rng.normal(0.5, 0.08, size=int(null.sum()))
    shifted = disc(lesion, 8.0)
    intensity[shifted] = rng.normal(0.66, 0.08, size=int(shifted.sum()))
    plan = AnatomyPlan(anchors=("organ",), tumor_prompt="tumor")
    return ScalarGrid(intensity), plan, SyntheticBackend({"img": scene}), GateConfig()


SCENES = (scene_pure_noise, scene_planted_lesion, scene_centred_lesion, scene_outside_blob,
          scene_single_pixel, scene_lone_lesion_among_ten)


class TestProcessCase:
    def test_pure_noise_case_fails_l1_with_named_reason(self):
        result = process_case("img", *scene_pure_noise())
        assert result.final_mask.count == 0
        assert result.report["final_positive"] is False
        l1 = result.report["l1"]
        assert not l1["passed"]
        failing = [c["quantity"] for c in l1["checks"] if not c["passed"]]
        assert failing  # at least one named failing quantity
        assert result.report["candidates"] == []

    def test_planted_lesion_detected(self):
        result = process_case("img", *scene_planted_lesion())
        assert result.report["l1"]["passed"]
        assert result.final_mask.count > 0
        kept = [c for c in result.report["candidates"] if c["decision"] == "kept"]
        assert kept and all(c["bh_kept"] for c in kept)

    def test_rejected_candidates_carry_reasons(self):
        result = process_case("img", *scene_outside_blob())
        for cand in result.report["candidates"]:
            if cand["decision"] != "kept":
                assert cand["decision"].startswith("rejected:")

    def test_final_mask_pixels_trace_to_kept_candidates(self):
        result = process_case("img", *scene_centred_lesion())
        total = sum(c.area for c in result.final_candidates)
        assert result.final_mask.count == total

    def test_single_pixel_candidate_is_untestable_not_failed(self):
        result = process_case("img", *scene_single_pixel())
        cands = {c["area"]: c for c in result.report["candidates"]}
        assert cands[1]["decision"] == "rejected:untestable"
        assert "p_value" not in cands[1]
        tested = [c for c in cands.values() if c["area"] > 1]
        assert tested and all("p_value" in c for c in tested)

    def test_family_sized_permutations_keep_lone_lesion(self):
        # At B = 199 the smallest p-value 1/200 exceeds BH's rank-1
        # threshold 0.05/11, so nothing could be kept. B grows to 219 for
        # the family, the lesion reaches 1/220 and is kept, and each null
        # stops at its 11th exceedance with p = 12/220.
        assert not bh_fdr([1 / 200] + [1.0] * 10, 0.05).any()
        report = process_case("img", *scene_lone_lesion_among_ten()).report
        cands = report["candidates"]
        assert len(cands) == 11 and all("p_value" in cand for cand in cands)
        kept = [cand for cand in cands if cand["decision"] == "kept"]
        assert len(kept) == 1 and kept[0]["area"] > 150
        assert (kept[0]["p_value"], kept[0]["permutations_run"]) == (1 / 220, 219)
        for cand in cands:
            if cand is not kept[0]:
                assert cand["decision"] == "rejected:statistical"
                assert cand["p_value"] == 12 / 220 and cand["permutations_run"] < 219


def check_decisions(report: dict) -> set[str]:
    """Assert what each decision implies about a candidate record; returns the decisions seen."""
    for cand in report["candidates"]:
        decision = cand["decision"]
        if decision == "rejected:untestable":
            assert "p_value" not in cand
        elif decision == "rejected:statistical":
            assert cand["bh_kept"] is False and "l2" not in cand
        elif decision == "rejected:L2":
            assert cand["l2"]["passed"] is False
        else:
            assert decision in ("kept", "rejected:L3") and cand["l2"]["passed"] is True
        if "p_value" in cand and decision != "rejected:statistical":
            assert cand["bh_kept"] is True
    return {cand["decision"] for cand in report["candidates"]}


class TestDecisionInvariants:
    @pytest.mark.parametrize("statistic", ["mmd2", "energy"])
    @pytest.mark.parametrize("scene", SCENES, ids=lambda f: f.__name__)
    def test_scene_records(self, scene, statistic):
        intensity, plan, backend, cfg = scene()
        check_decisions(process_case("img", intensity, plan, backend,
                                     cfg.override(statistic=statistic)).report)

    @pytest.mark.parametrize("statistic", ["mmd2", "energy"])
    @pytest.mark.parametrize("tau_case", [2.0, 10.0])
    def test_bench_run(self, monkeypatch, statistic, tau_case):
        # Every report of a 20-case run, and every screen_family call in
        # it: the discoveries are BH's on the returned p-values, and each
        # test ran B_K permutations for its family, stopped at alpha. A
        # case gate of 10 rejects every L2 survivor at L3.
        reports, screens = [], []

        def recording_case(*args, **kwargs):
            result = process_case(*args, **kwargs)
            reports.append(result.report)
            return result

        def recording_screen(cands, feat, control, params, base_seed, image_id, decisions):
            screens.append({"cands": cands, "params": params, "tests": []})
            outcomes, discoveries = screen_family(cands, feat, control, params, base_seed,
                                                  image_id, decisions)
            screens[-1].update(outcomes=outcomes, discoveries=discoveries,
                               decisions=dict(decisions))
            return outcomes, discoveries

        def recording_test(x, y, params, seed, stop_above=None):
            screens[-1]["tests"].append((params.permutations, stop_above))
            return two_sample_test(x, y, params, seed, stop_above=stop_above)

        monkeypatch.setattr(bench, "process_case", recording_case)
        monkeypatch.setattr(pipeline, "screen_family", recording_screen)
        monkeypatch.setattr(pipeline, "two_sample_test", recording_test)
        cfg = GateConfig().override(statistic=statistic, tau_case=tau_case)
        run_bench(BenchSpec(n_cases=20), cfg)

        assert len(reports) == 20
        seen = set().union(*(check_decisions(r) for r in reports))
        last = "rejected:L3" if tau_case > 2.0 else "kept"
        assert seen == {"rejected:statistical", "rejected:L2", last}
        assert screens
        for call in screens:
            params = call["params"]
            need = MIN_SAMPLE_SIZE[params.statistic]
            tested = [c for c in call["cands"] if c.area >= need]
            assert sorted(call["outcomes"]) == [c.id for c in tested]
            assert all(call["decisions"][c.id] == "rejected:untestable"
                       for c in call["cands"] if c.area < need)
            p_values = [call["outcomes"][c.id].p_value for c in tested]
            kept = bh_fdr(p_values, params.alpha)
            assert [c.id for c in call["discoveries"]] == [c.id for c, k in zip(tested, kept) if k]
            b_k = family_permutations(params.permutations, params.alpha, len(tested))
            assert call["tests"] == [(b_k, params.alpha)] * len(tested)


def strip_timing(report: dict) -> dict:
    out = {k: v for k, v in report.items() if k != "timing"}
    return out


class TestRunManifest:
    def test_end_to_end_with_metrics(self, small_dataset, tmp_path):
        manifest = load_manifest(small_dataset)
        out_dir = tmp_path / "out"
        result = run_manifest(manifest, GateConfig(), base_seed=3, out_dir=str(out_dir))
        assert result.summary["n_failed"] == 0
        assert result.summary["n_images"] == 2
        assert "metrics" in result.summary
        assert (out_dir / "masks" / "case0000.sgrid").exists()
        assert (out_dir / "reports" / "case0001.json").exists()
        assert (out_dir / "summary.json").exists()
        report = json.loads((out_dir / "reports" / "case0000.json").read_text())
        assert "metrics" in report

    def test_empty_manifest_succeeds(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"entries": []}))
        result = run_manifest(load_manifest(path), GateConfig())
        assert result.summary["n_failed"] == 0
        assert result.summary["n_images"] == 0

    def test_deterministic_across_runs_and_jobs(self, tmp_path):
        manifest_path = write_dataset(tmp_path, n_cases=3, seed=11)
        manifest = load_manifest(manifest_path)
        outs = []
        for jobs, out_name in ((1, "a"), (1, "b"), (4, "c")):
            out_dir = tmp_path / out_name
            run_manifest(manifest, GateConfig(), base_seed=7, jobs=jobs, out_dir=str(out_dir))
            masks = {p.name: p.read_bytes() for p in sorted((out_dir / "masks").iterdir())}
            reports = {}
            for p in sorted((out_dir / "reports").iterdir()):
                reports[p.name] = json.dumps(strip_timing(json.loads(p.read_text())),
                                             sort_keys=True)
            outs.append((masks, reports))
        assert outs[0] == outs[1]
        assert outs[0] == outs[2]

    def test_per_image_failure_isolated(self, tmp_path, small_dataset):
        # corrupt one plan after manifest validation by rewriting the file
        manifest = load_manifest(small_dataset)
        import os

        with open(manifest[0].plan_path, "w") as fh:
            fh.write(json.dumps({"anchors": ["organ"], "tumor_prompt": "missing prompt"}))
        result = run_manifest(manifest, GateConfig(), out_dir=str(tmp_path / "out"))
        assert result.summary["n_failed"] > 0
        failed = [r for r in result.results if r.failed]
        assert len(failed) == 1
        assert "error" in failed[0].report
        ok = [r for r in result.results if not r.failed]
        assert len(ok) == 1
