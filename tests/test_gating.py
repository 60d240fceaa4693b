import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from segscreen.candidates import CandidateRegion
from segscreen.gating import (
    GateConfig,
    GeometricParams,
    ScoringParams,
    StatisticalParams,
    gate_candidate,
    gate_case,
    gate_existence,
)
from segscreen.geometry import BoundingBox
from segscreen.grid import BinaryMask, ScalarGrid


def make_candidate(area=100, mean_prob=0.6, overlap=0.5, ordinal=0):
    side = int(math.ceil(math.sqrt(area)))
    pixels = [(x, y) for y in range(side) for x in range(side)][:area]
    return CandidateRegion(
        id=ordinal,
        pixels=np.array(pixels),
        area=area,
        centroid=(side / 2, side / 2),
        mean_prob=mean_prob,
        bbox=BoundingBox(0, 0, side, side),
        overlap_with_control=overlap,
    )


class TestGateConfig:
    def test_documented_defaults(self):
        cfg = GateConfig()
        assert cfg.scoring.tau_bin == 0.4
        assert cfg.scoring.view_rule == "max"
        assert cfg.scoring.scales == (0.8, 1.0, 1.2)
        assert cfg.statistical.alpha == 0.05
        assert cfg.statistical.sample_cap == 4000
        assert cfg.geometric.tau_max == 0.45
        assert cfg.geometric.tau_ratio == 2e-4
        assert cfg.geometric.a_min == 80
        assert cfg.geometric.tau_mean == 0.5
        assert cfg.geometric.tau_intersect == 0.05
        assert cfg.geometric.tau_case == 2.0
        assert cfg.geometric.pre_filter_area == 50
        assert cfg.geometric.padding_mm == 25.0

    def test_tau_bin_range_enforced(self):
        with pytest.raises(ValueError, match="tau_bin"):
            GateConfig(scoring=ScoringParams(tau_bin=0.2))
        with pytest.raises(ValueError, match="tau_bin"):
            GateConfig(scoring=ScoringParams(tau_bin=0.6))

    def test_other_ranges_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            GateConfig(statistical=StatisticalParams(alpha=1.0))
        with pytest.raises(ValueError, match="tau_case"):
            GateConfig(geometric=GeometricParams(tau_case=-1.0))

    @pytest.mark.parametrize("field,value,match", [
        ("statistic", "foo", "statistic"),
        ("scales", (float("nan"),), "scales"),
        ("scales", (), "scales"),
        ("padding_mm", float("nan"), "padding_mm"),
        ("view_rule", "min", "view rule"),
        ("permutations", 5, "permutations"),
    ])
    def test_rules_of_later_stages_applied_when_built(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            GateConfig().override(**{field: value})

    def test_from_dict_sections(self):
        cfg = GateConfig.from_dict({
            "scoring": {"tau_bin": 0.35},
            "statistical": {"alpha": 0.01, "permutations": 99},
            "geometric": {"a_min": 100},
        })
        assert cfg.scoring.tau_bin == 0.35
        assert cfg.statistical.alpha == 0.01
        assert cfg.geometric.a_min == 100
        # untouched fields keep their defaults
        assert cfg.geometric.tau_case == 2.0

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown config sections"):
            GateConfig.from_dict({"misc": {}})
        with pytest.raises(ValueError, match="unknown keys"):
            GateConfig.from_dict({"scoring": {"tau_bun": 0.4}})

    @pytest.mark.parametrize("data,key", [
        ({"statistical": {"permutations": 19.5}}, "statistical.permutations"),
        ({"geometric": {"a_min": True}}, "geometric.a_min"),
        ({"scoring": {"tau_bin": "0.4"}}, "scoring.tau_bin"),
        ({"scoring": {"scales": [1.0, "1.2"]}}, "scoring.scales"),
        ({"geometric": {"tau_case": False}}, "geometric.tau_case"),
    ])
    def test_from_dict_rejects_wrong_json_types(self, data, key):
        with pytest.raises(ValueError, match=rf"^cfg\.json: {key} must be"):
            GateConfig.from_dict(data, source="cfg.json")

    def test_from_dict_takes_ints_for_floats_and_lists_for_tuples(self):
        cfg = GateConfig.from_dict({"geometric": {"tau_case": 2, "padding_mm": 20},
                                    "scoring": {"scales": [1, 1.5]}})
        assert cfg.geometric.tau_case == 2.0 and isinstance(cfg.geometric.tau_case, float)
        assert cfg.geometric.padding_mm == 20.0
        assert cfg.scoring.scales == (1.0, 1.5)

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"geometric": {"tau_case": 1.5}}))
        assert GateConfig.from_file(path).geometric.tau_case == 1.5

    def test_override_flat_fields(self):
        cfg = GateConfig().override(tau_bin=0.45, alpha=0.01, a_min=64)
        assert cfg.scoring.tau_bin == 0.45
        assert cfg.statistical.alpha == 0.01
        assert cfg.geometric.a_min == 64
        with pytest.raises(ValueError, match="unknown config field"):
            GateConfig().override(tau_zap=1.0)

    def test_round_trip_dict(self):
        cfg = GateConfig().override(tau_bin=0.5)
        again = GateConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg


class TestGateExistence:
    def full_true(self, w, h):
        return BinaryMask.full(w, h, True)

    def test_all_zero_map_fails_on_max(self):
        fused = ScalarGrid(np.zeros((10, 10)))
        control = BinaryMask(np.pad(np.ones((4, 4), bool), 3))
        verdict = gate_existence(fused, self.full_true(10, 10), control, GateConfig())
        assert not verdict.passed
        reasons = {c.quantity for c in verdict.checks if not c.passed}
        assert "p_max" in reasons
        p_max_check = next(c for c in verdict.checks if c.quantity == "p_max")
        assert p_max_check.observed == 0.0 and p_max_check.threshold == 0.45

    def test_tiny_ratio_fails_on_ratio(self):
        vals = np.zeros((100, 100))
        vals[50, 50] = 0.9  # one hot pixel: ratio 1e-4 < 2e-4
        fused = ScalarGrid(vals)
        control = BinaryMask(np.pad(np.ones((10, 10), bool), 45))
        verdict = gate_existence(fused, self.full_true(100, 100), control, GateConfig())
        assert not verdict.passed
        assert any(c.quantity == "positive_ratio" and not c.passed for c in verdict.checks)

    def test_planted_blob_passes_all(self):
        rng = np.random.default_rng(80)
        vals = np.full((60, 60), 0.05)
        ys, xs = np.mgrid[0:60, 0:60]
        inside = (xs - 30) ** 2 + (ys - 30) ** 2 <= 64
        vals[inside] = 0.85
        fused = ScalarGrid(vals + rng.uniform(0, 0.01, size=(60, 60)))
        control = BinaryMask((xs - 30) ** 2 + (ys - 30) ** 2 <= 225)
        verdict = gate_existence(fused, self.full_true(60, 60), control, GateConfig())
        assert verdict.passed
        assert len(verdict.checks) == 3

    def test_degenerate_control_skips_ks(self):
        fused = ScalarGrid(np.full((8, 8), 0.6))
        verdict = gate_existence(fused, self.full_true(8, 8), self.full_true(8, 8), GateConfig())
        assert all(c.quantity != "p_ks" for c in verdict.checks)
        assert any("KS check skipped" in n for n in verdict.notes)

    def test_empty_roi_domain_falls_back_to_frame(self):
        fused = ScalarGrid(np.full((8, 8), 0.6))
        control = BinaryMask(np.pad(np.ones((2, 2), bool), 3))
        verdict = gate_existence(fused, BinaryMask.full(8, 8, False), control, GateConfig())
        assert any("full frame" in n for n in verdict.notes)

    def test_checks_reproduce_decision(self):
        rng = np.random.default_rng(81)
        for _ in range(10):
            fused = ScalarGrid(rng.uniform(size=(20, 20)))
            control = BinaryMask(rng.uniform(size=(20, 20)) < 0.4)
            domain = BinaryMask(rng.uniform(size=(20, 20)) < 0.7)
            verdict = gate_existence(fused, domain, control, GateConfig())
            assert verdict.passed == all(c.passed for c in verdict.checks)
            if not verdict.passed:
                assert len([c for c in verdict.checks if not c.passed]) >= 1


class TestGateCandidate:
    def test_area_below_threshold_fails(self):
        verdict = gate_candidate(make_candidate(area=79), GateConfig())
        assert not verdict.passed
        assert any(c.quantity == "area" and not c.passed for c in verdict.checks)

    def test_boundary_values_all_pass(self):
        cand = make_candidate(area=80, mean_prob=0.5, overlap=0.05)
        assert gate_candidate(cand, GateConfig()).passed

    def test_disjoint_candidate_fails_on_overlap(self):
        verdict = gate_candidate(make_candidate(overlap=0.0), GateConfig())
        assert not verdict.passed
        assert any(c.quantity == "overlap_with_control" and not c.passed for c in verdict.checks)


class TestGateCase:
    def test_boundary_score_kept(self):
        cand = make_candidate(area=16, mean_prob=0.5)  # S = 0.5 * 4 = 2.0
        kept, verdict = gate_case([cand], GateConfig())
        assert kept == [cand]
        assert verdict.passed

    def test_below_boundary_empties_case(self):
        cand = make_candidate(area=9, mean_prob=0.6)  # S = 1.8
        kept, verdict = gate_case([cand], GateConfig())
        assert kept == []
        assert not verdict.passed
        assert verdict.checks[0].observed == pytest.approx(1.8)

    def test_empty_survivors(self):
        kept, verdict = gate_case([], GateConfig())
        assert kept == []
        assert not verdict.passed and [c for c in verdict.checks if not c.passed]

    def test_all_or_nothing(self):
        strong = make_candidate(area=100, mean_prob=0.9, ordinal=0)
        weak = make_candidate(area=81, mean_prob=0.1, ordinal=1)  # S = 0.9
        kept, _ = gate_case([strong, weak], GateConfig())
        assert kept == [strong, weak]  # never partially filters

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 400), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                    min_size=1, max_size=5))
    def test_defaults_keep_every_l2_survivor_set(self, drawn):
        # Every L2 survivor scores at least tau_mean * sqrt(a_min) = 0.5 * sqrt(80),
        # about 4.47, above the default tau_case 2.0: L3 cannot act at the defaults.
        cfg = GateConfig()
        cands = [make_candidate(area, prob, overlap, i) for i, (area, prob, overlap) in enumerate(drawn)]
        survivors = [c for c in cands if gate_candidate(c, cfg).passed]
        assume(survivors)
        kept, verdict = gate_case(survivors, cfg)
        assert kept == survivors and verdict.passed


class TestGateMonotonicity:
    def test_raising_thresholds_never_grows_survivors(self):
        rng = np.random.default_rng(82)
        cands = [make_candidate(area=int(rng.integers(20, 300)),
                                mean_prob=float(rng.uniform(0.2, 0.95)),
                                overlap=float(rng.uniform(0, 1)), ordinal=i)
                 for i in range(40)]
        base = GateConfig()

        def survivors(cfg):
            passing = [c for c in cands if gate_candidate(c, cfg).passed]
            kept, _ = gate_case(passing, cfg)
            return {c.id for c in kept}

        s0 = survivors(base)
        for bump in (
            replace(base, geometric=replace(base.geometric, a_min=120)),
            replace(base, geometric=replace(base.geometric, tau_mean=0.7)),
            replace(base, geometric=replace(base.geometric, tau_intersect=0.3)),
            replace(base, geometric=replace(base.geometric, tau_case=5.0)),
        ):
            assert survivors(bump) <= s0
