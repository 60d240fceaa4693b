import json
from dataclasses import replace

import numpy as np
import pytest

from segscreen.bench import BenchSpec, make_case, run_bench
from segscreen.gating import GateConfig, GeometricParams, StatisticalParams
from segscreen.segmentor import render_synthetic


class TestBenchSpec:
    def test_defaults_valid(self):
        spec = BenchSpec()
        assert spec.fraction_positive == 0.5
        assert spec.effect_size == 2.0

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown bench spec"):
            BenchSpec.from_dict({"n_case": 10})

    @pytest.mark.parametrize("data,key", [
        ({"n_cases": 2.5}, "n_cases"),
        ({"seed": True}, "seed"),
        ({"frame": [96.0, 96.0]}, "frame"),
    ])
    def test_from_dict_rejects_wrong_json_types(self, data, key):
        with pytest.raises(ValueError, match=rf"^spec\.json: {key} must be"):
            BenchSpec.from_dict(data, source="spec.json")

    def test_from_file_invalid_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{")
        with pytest.raises(ValueError, match="invalid JSON"):
            BenchSpec.from_file(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchSpec(fraction_positive=1.5)
        with pytest.raises(ValueError):
            BenchSpec(effect_size=-1)


class TestMakeCase:
    def test_positive_cases_come_first(self):
        spec = BenchSpec(n_cases=4, fraction_positive=0.5, seed=1)
        flags = [make_case(spec, i).positive for i in range(4)]
        assert flags == [True, True, False, False]

    def test_case_is_deterministic(self):
        spec = BenchSpec(n_cases=2, seed=9)
        a, b = make_case(spec, 0), make_case(spec, 0)
        assert np.array_equal(a.intensity.values, b.intensity.values)
        assert a.scene == b.scene

    def test_lesion_lies_inside_control_region(self):
        spec = BenchSpec(n_cases=2, seed=3)
        case = make_case(spec, 0)
        organ = render_synthetic(case.scene, "organ")
        control = organ.values >= 0.5
        for mask in case.lesion_masks:
            assert np.all(control[mask.bits])

    def test_clutter_disjoint_from_control(self):
        spec = BenchSpec(n_cases=2, seed=3, clutter_rate=4)
        case = make_case(spec, 1)  # negative case
        organ = render_synthetic(case.scene, "organ")
        control = organ.values >= 0.5
        tumor = render_synthetic(case.scene, "tumor")
        clutter_support = tumor.values >= 0.4
        assert not np.any(control & clutter_support)

    def test_negative_case_has_no_lesions(self):
        spec = BenchSpec(n_cases=2, seed=3)
        case = make_case(spec, 1)
        assert not case.positive
        assert case.lesion_masks == []


class TestRunBench:
    def test_vacuous_run(self):
        result = run_bench(BenchSpec(n_cases=0), GateConfig())
        assert result.empirical_fdr == 0.0
        assert result.power == 0.0
        assert result.slice_specificity == 1.0
        assert result.cases == []

    def test_no_lesions_no_clutter_all_empty(self):
        spec = BenchSpec(n_cases=4, fraction_positive=0.0, clutter_rate=0, seed=2)
        result = run_bench(spec, GateConfig())
        assert result.slice_specificity == 1.0
        assert result.n_kept == 0
        assert all(not r["predicted_positive"] for r in result.cases)

    def test_deterministic_across_runs_and_jobs(self):
        spec = BenchSpec(n_cases=6, seed=13)
        cfg = GateConfig()
        a = run_bench(spec, cfg, jobs=1)
        b = run_bench(spec, cfg, jobs=1)
        c = run_bench(spec, cfg, jobs=4)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(c.to_dict(), sort_keys=True)

    def test_small_run_detects_planted_lesions(self):
        spec = BenchSpec(n_cases=6, seed=21)
        result = run_bench(spec, GateConfig())
        assert result.power >= 2 / 3
        assert result.slice_sensitivity >= 2 / 3
        assert result.slice_specificity >= 2 / 3

    def test_relaxed_screen_never_loses_detections(self):
        spec = BenchSpec(n_cases=6, seed=31)
        strict = run_bench(spec, GateConfig())
        permissive = GateConfig(
            statistical=StatisticalParams(alpha=0.999, tau_ks=1.0),
            geometric=GeometricParams(tau_max=0.0, tau_ratio=0.0, a_min=0,
                                      tau_mean=0.0, tau_intersect=0.0, tau_case=0.0,
                                      pre_filter_area=0),
        )
        relaxed = run_bench(spec, permissive)
        assert relaxed.power >= strict.power
