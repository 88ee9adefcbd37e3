import numpy as np
import pytest

from pagelayout.layout import PageLayout
from pagelayout.render import RenderParams, render_gt, render_orientation_gt
from pagelayout.synth import SynthConfig, generate

from conftest import make_block, make_line, make_page
from oracles import polygon_pixels_oracle, render_orientation_oracle


def segment_distance(px, py, x0, y0, x1, y1):
    dx, dy = x1 - x0, y1 - y0
    l2 = dx * dx + dy * dy
    t = 0.0 if l2 == 0 else max(0.0, min(1.0, ((px - x0) * dx + (py - y0) * dy) / l2))
    return np.hypot(px - (x0 + t * dx), py - (y0 + t * dy))


class TestRenderGt:
    def test_empty_layout_all_zero(self):
        maps = render_gt(PageLayout("empty", 16, 16, []))
        for arr in maps.channels().values():
            assert not arr.any()

    def test_single_line_against_direct_rasterization(self):
        # one horizontal baseline y=14, x in [5, 20], ascender 12, descender 4
        line = make_line("l0", 5, 20, 14, 12.0, 4.0)
        page = make_page([make_block("b0", [line])], height=32, width=32)
        maps = render_gt(page, RenderParams())
        for r in range(32):
            for c in range(32):
                d = segment_distance(c, r, 5, 14, 20, 14)
                assert maps.base[r, c] == (1.0 if d <= 1.5 else 0.0), (r, c)
        fg = maps.base == 1.0
        assert np.array_equal(maps.asc[fg], np.full(fg.sum(), 12.0, np.float32))
        assert np.array_equal(maps.des[fg], np.full(fg.sum(), 4.0, np.float32))
        assert not maps.asc[~fg].any()
        # endpoint disks centered at the baseline ends
        for r in range(32):
            for c in range(32):
                d = min(np.hypot(c - 5, r - 14), np.hypot(c - 20, r - 14))
                assert maps.end[r, c] == (1.0 if d <= 3.0 else 0.0), (r, c)

    def test_block_boundary_traces_outline_only(self, simple_page):
        maps = render_gt(simple_page)
        block = simple_page.blocks[0]
        # boundary pixels exist
        assert maps.block.sum() > 0
        # the galley between the two lines is boundary-free: probe midway
        # between line 0's descender line and line 1's ascender line
        y_mid = 23.6  # between 20+3 and 32-8.5
        xs = np.arange(20, 70)
        assert not maps.block[int(round(y_mid)), xs].any()

    def test_masked_height_consistency_generated(self):
        layout = generate(SynthConfig(seed=5, page_size=(256, 320)))
        maps = render_gt(layout)
        heights = {round(ln.ascender, 4) for ln in layout.lines()}
        fg = maps.base == 1.0
        got = {round(float(v), 4) for v in np.unique(maps.asc[fg])}
        assert got <= {round(float(np.float32(h)), 4) for h in heights}


class TestRenderOrientation:
    def test_horizontal_line(self):
        line = make_line("l0", 5, 25, 12, 6.0, 2.0)
        page = make_page([make_block("b0", [line])], height=24, width=32)
        omaps = render_orientation_gt(page)
        inside = (omaps.ox != 0) | (omaps.oy != 0)
        assert inside.any()
        assert np.allclose(omaps.ox[inside], 1.0)
        assert np.allclose(omaps.oy[inside], 0.0)

    def test_vertical_line(self):
        from pagelayout.blocks import polygon_from_baseline
        from pagelayout.geometry import Polyline
        from pagelayout.layout import TextBlock, TextLine

        pts = np.array([[12.0, 4.0], [12.0, 26.0]])
        line = TextLine("l0", Polyline(pts), 6.0, 2.0, polygon_from_baseline(pts, 6.0, 2.0))
        page = make_page([TextBlock("b0", [line], line.polygon)], height=32, width=24)
        omaps = render_orientation_gt(page)
        inside = (omaps.ox != 0) | (omaps.oy != 0)
        assert np.allclose(omaps.ox[inside], 0.0)
        assert np.allclose(omaps.oy[inside], 1.0)

    def test_tilted_line_direction(self):
        from pagelayout.blocks import polygon_from_baseline
        from pagelayout.geometry import Polyline
        from pagelayout.layout import TextBlock, TextLine

        ang = np.deg2rad(30)
        pts = np.array([[8.0, 10.0], [8.0 + 40 * np.cos(ang), 10.0 + 40 * np.sin(ang)]])
        line = TextLine("l0", Polyline(pts), 5.0, 2.0, polygon_from_baseline(pts, 5.0, 2.0))
        page = make_page([TextBlock("b0", [line], line.polygon)], height=48, width=56)
        omaps = render_orientation_gt(page)
        inside = (omaps.ox != 0) | (omaps.oy != 0)
        assert np.allclose(omaps.ox[inside], np.cos(ang), atol=1e-3)
        assert np.allclose(omaps.oy[inside], np.sin(ang), atol=1e-3)

    def test_support_is_the_polygon_fill(self):
        from pagelayout.blocks import polygon_from_baseline
        from pagelayout.geometry import Polyline
        from pagelayout.layout import TextBlock, TextLine

        pts = np.array([[17.3, 21.6], [40.2, 30.9], [52.7, 26.4]])
        line = TextLine("l0", Polyline(pts), 6.5, 2.5, polygon_from_baseline(pts, 6.5, 2.5))
        page = make_page([TextBlock("b0", [line], line.polygon)], height=48, width=64)
        omaps = render_orientation_gt(page)
        inside = (omaps.ox != 0) | (omaps.oy != 0)
        assert np.array_equal(inside, polygon_pixels_oracle(line.polygon.ring, (48, 64)))

    def test_unit_norm_at_nonzero_pixels(self):
        layout = generate(SynthConfig(seed=2, page_size=(256, 320), vertical_line_prob=1.0))
        omaps = render_orientation_gt(layout)
        inside = (omaps.ox != 0) | (omaps.oy != 0)
        norms = np.hypot(omaps.ox[inside].astype(np.float64), omaps.oy[inside].astype(np.float64))
        assert np.allclose(norms, 1.0, atol=1e-3)

    def test_zero_outside_all_polygons(self, simple_page):
        omaps = render_orientation_gt(simple_page)
        assert omaps.ox[0, 0] == 0 and omaps.oy[0, 0] == 0
        assert not omaps.ox[60:, :].any()

    def test_matches_former_nearest_segment_loop(self):
        for vp in (0.3, 1.0):
            for seed in range(12):
                layout = generate(SynthConfig(seed=seed, vertical_line_prob=vp, baseline_jitter=seed % 3))
                omaps = render_orientation_gt(layout)
                ox, oy = render_orientation_oracle(layout)
                assert np.array_equal(omaps.ox, ox) and np.array_equal(omaps.oy, oy), (vp, seed)
