import numpy as np
import pytest

from pagelayout.blocks import polygon_from_baseline
from pagelayout.channels import OrientationMaps, rotate_maps
from pagelayout.geometry import Polyline, polygon_iou
from pagelayout.layout import TextLine
from pagelayout.metrics import evaluate
from pagelayout.orient import (
    angular_distance,
    detect_multi_orientation,
    estimate_line_angle,
    rotate_layout,
)
from pagelayout.render import render_gt, render_orientation_gt
from pagelayout.synth import SynthConfig, generate

from conftest import make_line


def omaps_const(ox, oy, h=48, w=64):
    return OrientationMaps(np.full((h, w), ox, np.float32), np.full((h, w), oy, np.float32))


def maps_by_turn_for(layout):
    maps = render_gt(layout)
    return {0: maps, 1: rotate_maps(maps, 1), 3: rotate_maps(maps, 3)}


class TestAngularDistance:
    def test_zero(self):
        assert angular_distance(0, 0) == 0

    def test_wraparound(self):
        assert angular_distance(350, 10) == 20

    def test_opposite(self):
        assert angular_distance(90, 270) == 180

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.uniform(-180, 180, 2)
            assert angular_distance(a, b) == pytest.approx(angular_distance(b, a))
            assert 0 <= angular_distance(a, b) <= 180


class TestEstimateLineAngle:
    def test_horizontal_field(self):
        line = make_line("l", 5, 50, 20, 8.0, 3.0)
        est = estimate_line_angle(line.polygon, omaps_const(1.0, 0.0))
        assert est.angle_deg == pytest.approx(0.0)

    def test_vertical_field(self):
        line = make_line("l", 5, 50, 20, 8.0, 3.0)
        est = estimate_line_angle(line.polygon, omaps_const(0.0, 1.0))
        assert est.angle_deg == pytest.approx(90.0)

    def test_median_majority(self):
        # just over half the polygon pixels carry (0.6, 0.8)
        line = make_line("l", 5, 60, 20, 8.0, 3.0)
        ox = np.full((48, 64), 1.0, np.float32)
        oy = np.zeros((48, 64), np.float32)
        ox[:, 31:] = 0.6
        oy[:, 31:] = 0.8
        est = estimate_line_angle(line.polygon, OrientationMaps(ox, oy))
        assert est.x_med == pytest.approx(0.6)
        assert est.y_med == pytest.approx(0.8)
        assert est.angle_deg == pytest.approx(53.13, abs=0.01)

    def test_empty_polygon_rejected(self):
        pts = np.array([[500.0, 500.0], [600.0, 500.0]])
        line = TextLine("l", Polyline(pts), 5.0, 2.0, polygon_from_baseline(pts, 5.0, 2.0))
        with pytest.raises(ValueError, match="empty polygon"):
            estimate_line_angle(line.polygon, omaps_const(1.0, 0.0))


class TestDetectMultiOrientation:
    def test_horizontal_page_matches_single_orientation(self):
        from pagelayout.blocks import extract_page

        layout = generate(SynthConfig(seed=4, page_size=(384, 512)))
        maps = render_gt(layout)
        omaps = render_orientation_gt(layout)
        multi = detect_multi_orientation(maps_by_turn_for(layout), omaps)
        single = extract_page(maps)
        scores = evaluate(multi, single)
        assert scores.baseline[2] == pytest.approx(1.0, abs=1e-6)
        assert scores.line[2] == pytest.approx(1.0, abs=1e-6)

    def test_vertical_line_recovered_once(self):
        layout = generate(SynthConfig(seed=1, page_size=(448, 512), vertical_line_prob=1.0))
        omaps = render_orientation_gt(layout)
        pred = detect_multi_orientation(maps_by_turn_for(layout), omaps)
        scores = evaluate(pred, layout)
        assert scores.baseline[2] > 0.97
        lines = pred.lines()
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                assert polygon_iou(lines[i].polygon, lines[j].polygon) <= 0.5

    def test_boundary_angle_retained(self):
        # a 45-degree orientation field sits exactly at the filter threshold;
        # the line must be retained (boundary kept), and the dedup invariant
        # must still hold across whatever the rotated passes contribute
        line = make_line("l", 10, 52, 24, 8.0, 3.0)
        from conftest import make_block, make_page

        page = make_page([make_block("b0", [line])], height=48, width=64)
        s = float(np.sqrt(0.5))
        omaps = omaps_const(s, s)
        pred = detect_multi_orientation(maps_by_turn_for(page), omaps)
        lines = pred.lines()
        assert any(polygon_iou(ln.polygon, line.polygon) > 0.7 for ln in lines)
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                assert polygon_iou(lines[i].polygon, lines[j].polygon) <= 0.5

    def test_upside_down_text_discarded_everywhere(self):
        line = make_line("l", 10, 52, 24, 8.0, 3.0)
        from conftest import make_block, make_page

        page = make_page([make_block("b0", [line])], height=48, width=64)
        pred = detect_multi_orientation(maps_by_turn_for(page), omaps_const(-1.0, 0.0))
        assert pred.lines() == []

    def test_rotation_equivariance(self):
        layout = generate(SynthConfig(seed=6, page_size=(384, 512)))
        omaps = render_orientation_gt(layout)
        out = detect_multi_orientation(maps_by_turn_for(layout), omaps)

        rot_layout = rotate_layout(layout, 1)
        rot_omaps = render_orientation_gt(rot_layout)
        rot_out = detect_multi_orientation(maps_by_turn_for(rot_layout), rot_omaps)

        scores = evaluate(rot_out, rotate_layout(out, 1))
        assert scores.baseline[2] > 0.999
        assert scores.line[2] == pytest.approx(1.0, abs=1e-6)

    def test_shape_validation(self):
        layout = generate(SynthConfig(seed=2, page_size=(384, 512)))
        maps = render_gt(layout)
        omaps = render_orientation_gt(layout)
        with pytest.raises(ValueError, match="turns 0, 1 and 3"):
            detect_multi_orientation({0: maps}, omaps)
        with pytest.raises(ValueError, match="rotation"):
            detect_multi_orientation({0: maps, 1: maps, 3: maps}, omaps)
