import json

import numpy as np
import pytest

from segscreen.geometry import (
    AnatomyPlan,
    BoundingBox,
    bbox_of_mask,
    boxes_to_mask,
    build_rois,
    pad_bbox,
    scale_bbox,
    square_bbox,
)
from segscreen.grid import BinaryMask
from segscreen.pipeline import load_plan, plan_from_dict


def mask_with(frame, pixels):
    bits = np.zeros((frame[1], frame[0]), dtype=bool)
    for x, y in pixels:
        bits[y, x] = True
    return BinaryMask(bits)


class TestBboxOfMask:
    def test_single_pixel(self):
        m = mask_with((8, 8), [(3, 5)])
        assert bbox_of_mask(m).as_tuple() == (3, 5, 4, 6)

    def test_empty_mask_full_frame_fallback(self):
        m = BinaryMask.full(64, 64, False)
        assert bbox_of_mask(m).as_tuple() == (0, 0, 64, 64)

    def test_two_pixels(self):
        m = mask_with((16, 8), [(1, 1), (10, 4)])
        assert bbox_of_mask(m).as_tuple() == (1, 1, 11, 5)

    def test_tightness_on_random_masks(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            bits = rng.uniform(size=(12, 14)) < 0.1
            if not bits.any():
                continue
            box = bbox_of_mask(BinaryMask(bits))
            ys, xs = np.nonzero(bits)
            # contains every true pixel
            assert xs.min() >= box.x0 and xs.max() < box.x1
            assert ys.min() >= box.y0 and ys.max() < box.y1
            # shrinking any side excludes at least one true pixel
            assert (xs == box.x0).any() and (xs == box.x1 - 1).any()
            assert (ys == box.y0).any() and (ys == box.y1 - 1).any()


# Hand-constructed fixtures: (description, callable, expected box tuple).
GEOMETRY_FIXTURES = [
    ("pad 25mm at 1mm/px", lambda: pad_bbox(BoundingBox(30, 30, 60, 50), (25, 25), (1, 1), (200, 200)), (5, 5, 85, 75)),
    ("pad zero is identity", lambda: pad_bbox(BoundingBox(3, 4, 10, 12), (0, 0), (1, 1), (20, 20)), (3, 4, 10, 12)),
    ("pad ceil(10/3)=4px", lambda: pad_bbox(BoundingBox(10, 10, 20, 20), (10, 10), (3, 3), (100, 100)), (6, 6, 24, 24)),
    ("pad anisotropic spacing", lambda: pad_bbox(BoundingBox(30, 40, 50, 60), (25, 10), (1, 2), (300, 300)), (5, 35, 75, 65)),
    ("pad clamped at frame", lambda: pad_bbox(BoundingBox(2, 2, 10, 10), (5, 5), (1, 1), (20, 20)), (0, 0, 15, 15)),
    ("square already square", lambda: square_bbox(BoundingBox(5, 5, 15, 15), (100, 100)), (5, 5, 15, 15)),
    ("square expands height evenly", lambda: square_bbox(BoundingBox(10, 10, 30, 20), (100, 100)), (10, 5, 30, 25)),
    ("square shifted at frame edge", lambda: square_bbox(BoundingBox(0, 0, 100, 40), (100, 100)), (0, 0, 100, 100)),
    ("square odd expansion splits 2+3", lambda: square_bbox(BoundingBox(10, 10, 25, 20), (100, 100)), (10, 8, 25, 23)),
    ("square expands width", lambda: square_bbox(BoundingBox(10, 10, 20, 40), (100, 100)), (0, 10, 30, 40)),
    ("square shift near right edge", lambda: square_bbox(BoundingBox(90, 10, 100, 40), (100, 100)), (70, 10, 100, 40)),
    ("square truncated by short frame", lambda: square_bbox(BoundingBox(0, 10, 100, 20), (100, 50)), (0, 0, 100, 50)),
    ("scale identity", lambda: scale_bbox(BoundingBox(40, 40, 60, 60), 1.0, (100, 100)), (40, 40, 60, 60)),
    ("scale 1.2 widens 20->24", lambda: scale_bbox(BoundingBox(40, 40, 60, 60), 1.2, (100, 100)), (38, 38, 62, 62)),
    ("scale 0.8 shrinks 20->16", lambda: scale_bbox(BoundingBox(0, 0, 20, 20), 0.8, (100, 100)), (2, 2, 18, 18)),
    ("scale rounds half away from zero", lambda: scale_bbox(BoundingBox(0, 0, 5, 5), 1.1, (50, 50)), (0, 0, 6, 6)),
    ("scale floors side at 1px", lambda: scale_bbox(BoundingBox(10, 10, 12, 12), 0.2, (100, 100)), (10, 10, 11, 11)),
]


class TestGeometryFixtures:
    @pytest.mark.parametrize("name,build,expected", GEOMETRY_FIXTURES, ids=[f[0] for f in GEOMETRY_FIXTURES])
    def test_fixture(self, name, build, expected):
        assert build().as_tuple() == expected

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_bbox(BoundingBox(0, 0, 4, 4), 0.0, (10, 10))

    def test_scale_nesting(self):
        box = BoundingBox(30, 30, 50, 50)
        frame = (200, 200)
        prev = None
        for gamma in (0.6, 0.8, 1.0, 1.2, 1.5):
            cur = scale_bbox(box, gamma, frame)
            if prev is not None:
                assert (cur.x0 <= prev.x0 and cur.y0 <= prev.y0
                        and prev.x1 <= cur.x1 and prev.y1 <= cur.y1)
            prev = cur


class TestBuildRois:
    def test_degenerate_single_pixel(self):
        plan = AnatomyPlan(anchors=("a",), tumor_prompt="t", padding_mm=(0, 0),
                           scales=(1.0,), square=True)
        mask = mask_with((100, 100), [(50, 50)])
        boxes, union = build_rois(plan, [mask], (100, 100), (1.0, 1.0))
        assert [b.as_tuple() for b in boxes] == [(50, 50, 51, 51)]
        assert union.count == 1

    def test_two_disjoint_anchors(self):
        a = mask_with((40, 40), [(5, 5), (6, 5)])
        b = mask_with((40, 40), [(30, 20)])
        plan = AnatomyPlan(anchors=("a", "b"), tumor_prompt="t", padding_mm=(0, 0),
                           scales=(1.0,), square=False)
        boxes, union = build_rois(plan, [a, b], (40, 40), (1.0, 1.0))
        assert boxes[0].as_tuple() == (5, 5, 31, 21)
        assert union.count == 3
        assert union.count == np.count_nonzero(a.bits | b.bits)

    def test_default_scales_give_64_80_96(self):
        # 30x20 anchor box, 25mm padding at 1mm/px -> 80x70 -> squared 80 -> x0.8/1.0/1.2
        pixels = [(x, y) for x in range(100, 130) for y in (90, 109)]
        pixels += [(100, y) for y in range(90, 110)]
        mask = mask_with((400, 400), pixels)
        plan = AnatomyPlan(anchors=("a",), tumor_prompt="t")
        boxes, _ = build_rois(plan, [mask], (400, 400), (1.0, 1.0))
        assert [(b.width, b.height) for b in boxes] == [(64, 64), (80, 80), (96, 96)]

    def test_empty_anchors_fall_back_to_full_frame(self):
        plan = AnatomyPlan(anchors=("a",), tumor_prompt="t", padding_mm=(0, 0),
                           scales=(1.0,), square=False)
        boxes, union = build_rois(plan, [BinaryMask.full(32, 24, False)], (32, 24), (1.0, 1.0))
        assert union.is_empty()
        assert boxes[0].as_tuple() == (0, 0, 32, 24)

    def test_boxes_always_within_frame(self):
        rng = np.random.default_rng(11)
        plan = AnatomyPlan(anchors=("a",), tumor_prompt="t", padding_mm=(30, 15),
                           scales=(0.5, 1.0, 2.5), square=True)
        for _ in range(20):
            bits = rng.uniform(size=(48, 64)) < 0.02
            boxes, _ = build_rois(plan, [BinaryMask(bits)], (64, 48), (1.0, 2.0))
            for b in boxes:
                assert b.within((64, 48))

    def test_boxes_to_mask_counts_union(self):
        boxes = [BoundingBox(0, 0, 4, 4), BoundingBox(2, 2, 6, 6)]
        mask = boxes_to_mask(boxes, (8, 8))
        assert mask.count == 16 + 16 - 4


class TestPlanParsing:
    def make_plan_dict(self, **overrides):
        base = {
            "anchors": ["left kidney", "spleen"],
            "tumor_prompt": "kidney tumor",
            "roi": {"padding_mm": [25, 25], "scales": [0.8, 1.0, 1.2], "square": True},
            "rationale": "anchors are reliably visible",
            "anchor_threshold": 0.5,
        }
        base.update(overrides)
        return base

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(self.make_plan_dict()))
        plan = load_plan(path)
        assert plan.anchors == ("left kidney", "spleen")
        assert plan.scales == (0.8, 1.0, 1.2)
        assert plan.square and plan.anchor_threshold == 0.5

    def test_scalar_padding_broadcasts(self):
        plan = plan_from_dict(self.make_plan_dict(roi={"padding_mm": 10}))
        assert plan.padding_mm == (10.0, 10.0)

    def test_defaults_applied_when_roi_fields_missing(self):
        plan = plan_from_dict(self.make_plan_dict(roi={}))
        assert plan.padding_mm == (25.0, 25.0)
        assert plan.scales == (0.8, 1.0, 1.2)
        assert plan.square is True

    @pytest.mark.parametrize("field,value,match", [
        ("anchors", [], "anchors"),
        ("anchors", [42], "anchors"),
        ("tumor_prompt", "", "tumor_prompt"),
        ("roi", {"scales": []}, "scales"),
        ("roi", {"scales": [0.8, "x"]}, "scales"),
        ("roi", {"square": "yes"}, "square"),
        ("roi", {"padding_mm": [1, 2, 3]}, "padding_mm"),
        ("anchor_threshold", 1.5, "anchor_threshold"),
        ("rationale", 7, "rationale"),
    ])
    def test_field_errors_are_named(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            plan_from_dict(self.make_plan_dict(**{field: value}))

    @pytest.mark.parametrize("overrides,message", [
        ({"anchor_treshold": 0.9}, r"unknown plan fields \['anchor_treshold'\]"),
        ({"roi": {"padding": 10}}, r"unknown roi fields \['padding'\]"),
        ({"roi": {"anchor_threshold": 0.9}}, r"unknown roi fields \['anchor_threshold'\]"),
        ({"scales": [1.0]}, r"unknown plan fields \['scales'\]"),
    ])
    def test_unknown_keys_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=rf"^plan\.json: {message}$"):
            plan_from_dict(self.make_plan_dict(**overrides), source="plan.json")

    def test_missing_required_field_named(self):
        data = self.make_plan_dict()
        del data["anchors"]
        with pytest.raises(ValueError, match=r"^plan\.json: missing fields \['anchors'\]$"):
            plan_from_dict(data, source="plan.json")

    def test_padding_must_be_a_pair(self):
        with pytest.raises(ValueError, match="padding_mm must be a pair"):
            AnatomyPlan(anchors=("a",), tumor_prompt="t", padding_mm=(1.0, 2.0, 3.0))

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError, match="scales"):
            plan_from_dict(self.make_plan_dict(roi={"scales": [-1.0]}))

    def test_invalid_json_names_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="broken.json"):
            load_plan(path)
