import numpy as np
import pytest

import pagelayout.baselines
from pagelayout.baselines import ExtractParams, connected_components, detect_baselines, smooth, vertical_nms
from pagelayout.channels import ChannelMaps
from pagelayout.render import RenderParams, render_gt

from conftest import make_block, make_line, make_page
from oracles import box_mean_oracle, connected_components_oracle, detect_fg_oracle, fit_spline_oracle, vertical_nms_oracle


class TestSmooth:
    def test_constant_map_unchanged(self):
        m = np.full((8, 8), 0.5)
        assert np.array_equal(smooth(m, 3), m)

    def test_hot_pixel_spreads(self):
        m = np.zeros((9, 9))
        m[4, 4] = 1.0
        out = smooth(m, 3)
        assert np.allclose(out[3:6, 3:6], 1 / 9)
        assert out[4, 6] == 0.0

    def test_size_one_identity(self):
        rng = np.random.default_rng(0)
        m = rng.uniform(size=(6, 6))
        assert np.array_equal(smooth(m, 1), m)

    def test_matches_direct_convolution_oracle(self):
        rng = np.random.default_rng(1)
        for size in (3, 5):
            m = rng.uniform(size=(10, 12))
            assert np.allclose(smooth(m, size), box_mean_oracle(m, size), atol=1e-12)

    def test_output_within_input_range(self):
        rng = np.random.default_rng(2)
        m = rng.uniform(0.2, 0.9, (16, 16))
        out = smooth(m, 5)
        assert out.min() >= m.min() - 1e-12 and out.max() <= m.max() + 1e-12


class TestVerticalNms:
    def test_column_example(self):
        col = np.array([0.0, 0.2, 0.9, 0.4, 0.0]).reshape(-1, 1)
        out = vertical_nms(col, 3)
        assert np.array_equal(out.ravel(), [0.0, 0.0, 0.9, 0.0, 0.0])

    def test_strictly_increasing_column(self):
        col = np.arange(1, 8, dtype=float).reshape(-1, 1)
        out = vertical_nms(col, 7)
        assert np.array_equal(out.ravel(), [0, 0, 0, 0, 0, 0, 7])

    def test_ties_survive(self):
        col = np.full((6, 1), 0.7)
        out = vertical_nms(col, 3)
        assert np.array_equal(out, col)

    def test_matches_sliding_window_oracle(self):
        # windows taller than the frame, and plateaus whose ties must survive
        rng = np.random.default_rng(3)
        for size in (1, 3, 5, 7, 9, 15, 31):
            for h in range(1, 25):
                w = int(rng.integers(1, 6))
                noise = rng.uniform(size=(h, w))
                plateaus = rng.choice([0.0, 0.3, 0.5, 1.0], size=(h, w))
                mixed = np.where(rng.uniform(size=(h, w)) < 0.5, plateaus, noise)
                for m in (noise, plateaus, mixed):
                    for dtype in (np.float32, np.float64):
                        a = m.astype(dtype)
                        assert np.array_equal(vertical_nms(a, size), vertical_nms_oracle(a, size)), (size, h, dtype)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        m = rng.uniform(size=(20, 10))
        once = vertical_nms(m, 7)
        assert np.array_equal(vertical_nms(once, 7), once)

    def test_suppression_only_removes(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(size=(15, 9))
        out = vertical_nms(m, 5)
        assert ((out > 0) <= (m > 0)).all()


class TestConnectedComponents:
    def to_partition(self, comps):
        return {frozenset(zip(map(int, rows), map(int, cols))) for rows, cols in comps}

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            fg = rng.uniform(size=(rng.integers(4, 32), rng.integers(4, 32))) < 0.2
            got = self.to_partition(connected_components(fg, 5, 9))
            want = connected_components_oracle(fg, 5, 9)
            assert got == want

    def test_other_window_sizes(self):
        rng = np.random.default_rng(7)
        for cc_w, cc_h in [(1, 3), (3, 3), (7, 5), (5, 1), (4, 6), (6, 4), (1, 9), (1, 1)]:
            for shape in [(12, 12), (1, 12), (12, 1)]:
                for _ in range(10):
                    fg = rng.uniform(size=shape) < 0.3
                    got = self.to_partition(connected_components(fg, cc_w, cc_h))
                    assert got == connected_components_oracle(fg, cc_w, cc_h)
            fg = np.ones((7, 9), bool)
            got = self.to_partition(connected_components(fg, cc_w, cc_h))
            assert got == connected_components_oracle(fg, cc_w, cc_h)

    def test_output_order(self):
        """Components by (top row, left column), pixels in raster order."""
        rng = np.random.default_rng(8)
        for _ in range(30):
            fg = rng.uniform(size=(24, 24)) < 0.15
            comps = connected_components(fg, 5, 9)
            keys = [(int(rows.min()), int(cols.min())) for rows, cols in comps]
            assert keys == sorted(keys)
            for rows, cols in comps:
                raster = rows * fg.shape[1] + cols
                assert (np.diff(raster) > 0).all()
                assert rows[0] == rows.min()

    def test_bridges_small_gaps(self):
        fg = np.zeros((3, 10), bool)
        fg[1, [0, 1, 3, 4]] = True  # one empty column: |dx| = 2, bridged
        comps = connected_components(fg, 5, 9)
        assert len(comps) == 1

    def test_splits_wide_gaps(self):
        fg = np.zeros((3, 10), bool)
        fg[1, [0, 1, 4, 5]] = True  # two empty columns: |dx| = 3, split
        assert len(connected_components(fg, 5, 9)) == 2


class TestDetectBaselines:
    def test_all_zero_maps_empty(self):
        assert detect_baselines(ChannelMaps.zeros(32, 32)) == []

    def test_clean_rendered_line_round_trip(self):
        line = make_line("l0", 5, 44, 20, 10.0, 3.0)
        page = make_page([make_block("b0", [line])], height=40, width=50)
        maps = render_gt(page, RenderParams())
        found = detect_baselines(maps)
        assert len(found) == 1
        spline = found[0]
        assert np.allclose(spline.points[:, 1], 20.0, atol=1.0)
        # ends retreat by at most endpoint_radius + 1 px from the GT ends
        assert abs(spline.points[0, 0] - 5) <= 4.0
        assert abs(spline.points[-1, 0] - 44) <= 4.0
        assert 2 <= len(spline.points) <= 10

    def test_two_parallel_lines_with_shared_end_region(self):
        l0 = make_line("l0", 5, 44, 14, 6.0, 2.0)
        l1 = make_line("l1", 5, 44, 26, 6.0, 2.5)
        page = make_page([make_block("b0", [l0]), make_block("b1", [l1])], height=40, width=50)
        maps = render_gt(page)
        assert len(detect_baselines(maps)) == 2

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(8)
        base = rng.uniform(0, 1, (24, 24)).astype(np.float32)
        z = np.zeros((24, 24), np.float32)
        maps = ChannelMaps(base, z, z, z, z)
        counts = []
        for thr in (0.1, 0.3, 0.5, 0.7):
            response = np.maximum(vertical_nms(smooth(maps.base, 3), 7) - maps.end, 0.0)
            counts.append(int((response >= thr).sum()))
        assert counts == sorted(counts, reverse=True)

    def test_spline_invariants_on_noise(self):
        rng = np.random.default_rng(9)
        base = (rng.uniform(0, 1, (48, 64)) > 0.82).astype(np.float32)
        z = np.zeros((48, 64), np.float32)
        maps = ChannelMaps(base, z, z, z, z)
        for spline in detect_baselines(maps):
            assert 2 <= len(spline.points) <= 10
            assert (np.diff(spline.points[:, 0]) > 0).all()

    def test_min_length_filter(self):
        base = np.zeros((16, 16), np.float32)
        base[8, 3:6] = 1.0  # 3 px wide, below the 5 px minimum
        z = np.zeros((16, 16), np.float32)
        maps = ChannelMaps(base, z, z, z, z)
        assert detect_baselines(maps) == []

    def test_params_validated(self):
        with pytest.raises(ValueError):
            ExtractParams(smooth_size=2)
        with pytest.raises(ValueError):
            ExtractParams(nms_size=4)
        with pytest.raises(ValueError):
            ExtractParams(threshold=1.5)


class TestInPlaceResponse:
    """detect_baselines runs smooth, suppression and end subtraction in one reused frame; its
    foreground equals the expression with a fresh full-frame temporary per step."""

    @staticmethod
    def maps(seed, end_over_base=False):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0, 1, (40, 56)) ** 2
        base[8:14, 4:40] = 1.0  # a plateau that survives threshold 1.0
        base[24:27, 10:50] = rng.choice([0.25, 0.5, 1.0])  # exact ties for the suppression
        end = rng.uniform(0, 1, (40, 56)) * (rng.uniform(0, 1, (40, 56)) < 0.2)
        if end_over_base:
            end[20:32, :] = 1.0  # at or above every smoothed base value
        z = np.zeros((40, 56), np.float32)
        return ChannelMaps(base, end, z, z, z)

    @pytest.mark.parametrize(
        "params, end_over_base",
        [
            (ExtractParams(), False),
            (ExtractParams(threshold=0.0), False),
            (ExtractParams(threshold=1.0), False),
            (ExtractParams(smooth_size=1), False),
            (ExtractParams(nms_size=1), False),
            (ExtractParams(smooth_size=5, nms_size=3, threshold=0.2), True),
            (ExtractParams(), True),
        ],
    )
    def test_foreground_equals_full_frame_expression(self, monkeypatch, params, end_over_base):
        seen = []

        def capture(fg, *args):
            seen.append(fg.copy())
            return connected_components(fg, *args)

        monkeypatch.setattr(pagelayout.baselines, "connected_components", capture)
        for seed in range(3):
            maps = self.maps(seed, end_over_base)
            detect_baselines(maps, params)
            want = detect_fg_oracle(maps, params)
            assert seen[-1].dtype == bool and np.array_equal(seen[-1], want)
            assert want.any()
            if params.threshold == 0.0:
                assert want.all()
            if end_over_base:
                assert not want[20:32].any()

    def test_out_receives_the_result(self):
        maps = self.maps(0)
        buf = smooth(maps.base, 3)
        want = vertical_nms(buf, 7)
        assert vertical_nms(buf, 7, out=buf) is buf
        assert np.array_equal(buf, want)


class TestFitSpline:
    def test_batch_equals_each_component_alone(self):
        """One bincount over (component, bin) keys gives every component's fit to the bit."""
        rng = np.random.default_rng(21)
        fitted = 0
        for _ in range(60):
            fg = rng.uniform(0, 1, (40, 90)) < rng.uniform(0.02, 0.4)
            comps = [c for c in connected_components(fg, 5, 9) if np.ptp(c[1]) >= 1]
            max_points = int(rng.choice([1, 2, 3, 10, 40]))
            got = pagelayout.baselines._fit_spline(comps, max_points)
            want = [fit_spline_oracle(r.astype(np.float64), c.astype(np.float64), max_points) for r, c in comps]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g.points, w.points)
            fitted += len(comps)
        assert fitted > 300
        assert pagelayout.baselines._fit_spline([], 10) == []
