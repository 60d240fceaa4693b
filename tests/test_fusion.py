import numpy as np
import pytest

from segscreen.fusion import VIEW_RULES, apply_view, fuse_supports, fuse_views, run_tta
from segscreen.geometry import BoundingBox
from segscreen.grid import ScalarGrid
from segscreen.segmentor import (
    Blob,
    ClutterSpec,
    FileBackend,
    SyntheticBackend,
    SyntheticSceneSpec,
    VIEW_KINDS,
    render_synthetic,
)

from oracles import fuse_by_definition


def random_grid(rng, w=9, h=7):
    return ScalarGrid(rng.uniform(size=(h, w)))


class TestApplyView:
    def test_identity(self):
        g = ScalarGrid(np.array([[0.1, 0.2, 0.3]]))
        assert np.array_equal(apply_view(g, "identity").values, g.values)

    def test_flip_lr_reverses_rows(self):
        g = ScalarGrid(np.array([[0.1, 0.2, 0.3]]))
        assert apply_view(g, "flip_lr").values.tolist() == [[0.3, 0.2, 0.1]]

    def test_flip_tb_reverses_columns(self):
        g = ScalarGrid(np.array([[0.1], [0.2], [0.3]]))
        assert apply_view(g, "flip_tb").values.tolist() == [[0.3], [0.2], [0.1]]

    @pytest.mark.parametrize("kind", VIEW_KINDS)
    def test_involution_bit_exact(self, kind):
        rng = np.random.default_rng(30)
        for _ in range(20):
            g = random_grid(rng)
            back = apply_view(apply_view(g, kind), kind)
            assert np.array_equal(back.values, g.values)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            apply_view(ScalarGrid(np.zeros((2, 2))), "rot90")


class TestFuseViews:
    def test_singleton_any_rule(self):
        rng = np.random.default_rng(33)
        g = random_grid(rng)
        for rule in ("max", "median", "mean"):
            assert np.array_equal(fuse_views([g], rule).values, g.values)

    def test_three_values_per_rule(self):
        maps = [ScalarGrid(np.array([[v]])) for v in (0.1, 0.5, 0.9)]
        assert fuse_views(maps, "max").values[0, 0] == pytest.approx(0.9)
        assert fuse_views(maps, "median").values[0, 0] == pytest.approx(0.5)
        assert fuse_views(maps, "mean").values[0, 0] == pytest.approx(0.5)

    def test_identical_maps_agree_under_all_rules(self):
        rng = np.random.default_rng(34)
        g = random_grid(rng)
        for rule in ("max", "median", "mean"):
            assert np.allclose(fuse_views([g, g, g], rule).values, g.values)

    def test_median_even_count_takes_lower_middle(self):
        maps = [ScalarGrid(np.array([[v]])) for v in (0.1, 0.2, 0.8, 0.9)]
        assert fuse_views(maps, "median").values[0, 0] == pytest.approx(0.2)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            fuse_views([], "max")

    def test_max_dominates_mean(self):
        rng = np.random.default_rng(35)
        maps = [random_grid(rng) for _ in range(3)]
        mx = fuse_views(maps, "max").values
        mean = fuse_views(maps, "mean").values
        assert np.all(mx >= mean)


def whole(grid):
    return BoundingBox(0, 0, grid.width, grid.height)


class TestFuseSupports:
    def test_empty_roi_list_returns_full(self):
        rng = np.random.default_rng(36)
        g = random_grid(rng)
        assert np.array_equal(fuse_supports(g, []).values, g.values)

    def test_roi_peak_survives(self):
        full = ScalarGrid(np.zeros((8, 8)))
        roi = np.zeros((4, 4))
        roi[2, 2] = 0.8
        fused = fuse_supports(full, [(BoundingBox(2, 2, 6, 6), ScalarGrid(roi))])
        assert fused.values[4, 4] == pytest.approx(0.8)
        assert full.values[4, 4] == 0.0  # the input map is not written to

    def test_superlevel_sets_contain_inputs(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            full = random_grid(rng)
            rois = [random_grid(rng) for _ in range(3)]
            fused = fuse_supports(full, [(whole(r), r) for r in rois])
            for tau in np.linspace(0.1, 0.9, 9):
                combined = fused.values >= tau
                for src in [full] + rois:
                    assert np.all(combined | ~(src.values >= tau))

    def test_box_outside_canvas_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            fuse_supports(ScalarGrid(np.zeros((4, 4))),
                          [(BoundingBox(3, 3, 5, 5), ScalarGrid(np.zeros((2, 2))))])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="crop is 2x2 but box is 3x2"):
            fuse_supports(ScalarGrid(np.zeros((4, 4))),
                          [(BoundingBox(0, 0, 3, 2), ScalarGrid(np.zeros((2, 2))))])


def synthetic_spec(blobs, frame=(64, 64), floor=0.05, clutter=ClutterSpec()):
    return SyntheticSceneSpec(
        frame=frame,
        organ_blobs=(Blob(frame[0] / 2, frame[1] / 2, 10, 0.9),),
        lesion_blobs=tuple(blobs),
        clutter=clutter,
        noise_floor=floor,
    )


def synthetic_backend(blobs, frame=(64, 64), floor=0.05):
    return SyntheticBackend({"img": synthetic_spec(blobs, frame, floor)})


def random_box(rng, frame):
    x0, x1 = sorted(rng.choice(frame[0] + 1, size=2, replace=False))
    y0, y1 = sorted(rng.choice(frame[1] + 1, size=2, replace=False))
    return BoundingBox(int(x0), int(y0), int(x1), int(y1))


class CountingFileBackend(FileBackend):
    def __init__(self, maps):
        super().__init__(maps)
        self.calls = 0

    def segment(self, request):
        self.calls += 1
        return super().segment(request)


class PerViewBackend:
    """Native-view backend that answers each view, and crops apart from the
    full frame, from its own map: like a model that is not flip-equivariant
    and sees a crop differently, so views and supports really differ."""

    reinfers_views = True

    def __init__(self, maps):
        self.maps = maps

    def segment(self, request):
        grid = self.maps[request.transform, request.crop is None]
        if request.crop is not None:
            c = request.crop
            grid = grid.crop(c.x0, c.y0, c.x1, c.y1)
        return apply_view(grid, request.transform)


class TestRunTta:
    def test_single_support_single_view_is_raw_output(self):
        rng = np.random.default_rng(38)
        stored = ScalarGrid(rng.uniform(size=(16, 16)))
        backend = FileBackend({("img", "tumor"): stored})
        for rule in VIEW_RULES:
            out = run_tta("img", "tumor", [], (16, 16), (1.0, 1.0), backend, rule)
            assert np.array_equal(out.values, stored.values)

    def test_blob_peak_preserved_by_max_rules(self):
        backend = synthetic_backend([Blob(32, 32, 5, 0.9)])
        boxes = [BoundingBox(16, 16, 48, 48)]
        out = run_tta("img", "tumor", boxes, (64, 64), (1.0, 1.0), backend)
        assert abs(float(out.values.max()) - 0.9) < 1e-6
        assert abs(out.values[32, 32] - 0.9) < 1e-6

    def test_symmetric_scene_unchanged_by_flips(self):
        # Blob at the exact frame center is invariant under both flips, so
        # fusing the flip views equals fusing the identity view alone.
        backend = synthetic_backend([Blob(31.5, 31.5, 6, 0.8)])
        spec = synthetic_spec([Blob(31.5, 31.5, 6, 0.8)])
        identity_only = FileBackend({("img", "tumor"): render_synthetic(spec, "tumor")})
        boxes = [BoundingBox(8, 8, 56, 56)]
        with_flips = run_tta("img", "tumor", boxes, (64, 64), (1.0, 1.0), backend, "max")
        no_flips = run_tta("img", "tumor", boxes, (64, 64), (1.0, 1.0), identity_only, "max")
        assert np.allclose(with_flips.values, no_flips.values)

    def test_file_backend_round_trip_matches_native(self):
        # A flip-symmetric map gives identical fusion through both the
        # view-agnostic file backend and native views (synthetic).
        rng = np.random.default_rng(39)
        base = rng.uniform(size=(16, 16))
        sym = (base + base[:, ::-1] + base[::-1, :] + base[::-1, ::-1]) / 4.0
        backend = FileBackend({("img", "tumor"): ScalarGrid(sym)})
        out = run_tta("img", "tumor", [BoundingBox(2, 2, 14, 14)], (16, 16), (1.0, 1.0), backend)
        assert np.allclose(out.values, sym)

    def test_lookup_error_carries_support_and_view(self):
        backend = FileBackend({("img", "tumor"): ScalarGrid(np.zeros((8, 8)))})
        with pytest.raises(KeyError, match=r"support full, view identity"):
            run_tta("img", "other prompt", [], (8, 8), (1.0, 1.0), backend)

    def test_output_carries_requested_spacing(self):
        backend = FileBackend({("img", "tumor"): ScalarGrid(np.zeros((8, 8)), (1.0, 1.0))})
        out = run_tta("img", "tumor", [BoundingBox(1, 1, 5, 5)], (8, 8), (0.5, 2.0), backend)
        assert out.spacing == (0.5, 2.0)

    def test_frame_mismatch_rejected(self):
        backend = FileBackend({("img", "tumor"): ScalarGrid(np.zeros((8, 8)))})
        with pytest.raises(ValueError, match="expected frame"):
            run_tta("img", "tumor", [], (8, 6), (1.0, 1.0), backend)

    def test_one_file_backend_query_per_support(self):
        backend = CountingFileBackend({("img", "tumor"): ScalarGrid(np.zeros((16, 16)))})
        boxes = [BoundingBox(2, 2, 10, 10), BoundingBox(1, 1, 12, 12), BoundingBox(0, 0, 14, 14)]
        run_tta("img", "tumor", boxes, (16, 16), (1.0, 1.0), backend)
        assert backend.calls == 1 + len(boxes)

    @pytest.mark.parametrize("rule", VIEW_RULES)
    def test_matches_definition_on_random_boxes(self, rule):
        # Native views: equal to per-view zero canvases max-fused across
        # supports, byte for byte. View-agnostic backend: equal to the same
        # definition, except that the mean of three identical maps can be
        # off by one ulp, where run_tta returns the stored map itself. The
        # synthetic backend is flip-equivariant and crops its full-frame
        # map, so its views and supports agree; the per-view backend makes
        # them differ.
        rng = np.random.default_rng(40)
        frame = (40, 32)
        for scene in range(12):
            blobs = [Blob(float(rng.uniform(0, frame[0])), float(rng.uniform(0, frame[1])),
                          float(rng.uniform(2, 8)), float(rng.uniform(0.3, 1.0)))
                     for _ in range(2)]
            spec = synthetic_spec(blobs, frame=frame,
                                  clutter=ClutterSpec(count=2, seed=scene))
            stored = render_synthetic(spec, "tumor")
            boxes = [random_box(rng, frame) for _ in range(3)]
            native = SyntheticBackend({"img": spec})
            agnostic = FileBackend({("img", "tumor"): stored})
            per_view = PerViewBackend({(kind, full): ScalarGrid(rng.uniform(size=(frame[1], frame[0])))
                                       for kind in VIEW_KINDS for full in (True, False)})
            for backend in (native, agnostic, per_view):
                out = run_tta("img", "tumor", boxes, frame, (1.0, 1.0), backend, rule)
                if backend is agnostic and rule == "mean":
                    want = stored.values
                else:
                    want = fuse_by_definition(backend, "img", "tumor", boxes, frame, rule)
                assert out.values.tobytes() == want.tobytes()
