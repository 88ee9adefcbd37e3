import math

import numpy as np
import pytest

from pagelayout.blocks import polygon_from_baseline
from pagelayout.channels import OrientationMaps, rotate_maps
from pagelayout.geometry import Polyline, polygon_iou
from pagelayout.layout import LayoutError, TextLine, save_layout
from pagelayout.metrics import evaluate
from pagelayout.orient import (
    _orientation_gate,
    angular_distance,
    detect_multi_orientation,
    estimate_line_angle,
    rotate_layout,
)
from pagelayout.render import render_gt, render_orientation_gt
from pagelayout.synth import SynthConfig, generate

from conftest import make_block, make_line, make_page
from oracles import detect_multi_orientation_oracle


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

    def test_rotate_layout_rejects_a_baseline_in_the_last_pixel_column(self):
        """Pixel-centre quarter turns map x = 95.5 on a 96 px wide page to -0.5."""
        page = make_page([make_block("b0", [make_line("l0", 8, 95.5, 20, 10.0, 3.0)])], height=64, width=96)
        for turns in (1, 2):
            with pytest.raises(LayoutError, match=r"line 'l0'\.baseline"):
                rotate_layout(page, turns)

    @pytest.mark.parametrize("turns", [1, 2, 3])
    def test_rotate_layout_round_trip_inside_pixel_centres(self, simple_page, turns):
        h, w = simple_page.size
        for line in simple_page.lines():
            for points in (line.baseline.points, line.polygon.ring):
                assert points.min() >= 0 and points[:, 0].max() <= w - 1 and points[:, 1].max() <= h - 1
        back = rotate_layout(rotate_layout(simple_page, turns), 4 - turns)
        assert save_layout(back) == save_layout(simple_page)

    def test_shape_validation(self):
        layout = generate(SynthConfig(seed=2, page_size=(384, 512)))
        maps = render_gt(layout)
        omaps = render_orientation_gt(layout)
        with pytest.raises(ValueError, match="turns 0, 1 and 3"):
            detect_multi_orientation({0: maps}, omaps)
        with pytest.raises(ValueError, match="rotation"):
            detect_multi_orientation({0: maps, 1: maps, 3: maps}, omaps)


def _block_keys(layout):
    """Each block's line geometry and outline, without the ids."""
    return [
        (
            [(ln.baseline.points.tobytes(), ln.polygon.ring.tobytes(), ln.ascender, ln.descender) for ln in b.lines],
            b.polygon.ring.tobytes(),
        )
        for b in layout.blocks
    ]


class TestOrientationGate:
    """Gating each frame's ``base`` by the orientation field only drops lines the filter would not keep."""

    def test_gate_keeps_frames_within_45_degrees(self):
        s = float(np.float32(np.sqrt(0.5)))
        c40, s40 = math.cos(math.radians(40)), math.sin(math.radians(40))
        cases = {  # (ox, oy) -> turns whose frame keeps the pixel
            (1.0, 0.0): {0},
            (0.0, 1.0): {1},
            (0.0, -1.0): {3},
            (-1.0, 0.0): set(),
            (s, s): {0, 1},
            (s, -s): {0, 3},
            (-s, s): {1},
            (-s, -s): {3},
            (c40, s40): {0},
            (s40, c40): {1},
            (-s40, -c40): {3},
            (0.0, 0.0): {0, 1, 3},
            (-0.3, 0.39): {0, 1, 3},  # |o| < 0.5: undefined
        }
        ox = np.array([[v[0] for v in cases]], np.float32)
        oy = np.array([[v[1] for v in cases]], np.float32)
        gate = _orientation_gate(OrientationMaps(ox, oy))
        assert sorted(gate) == [0, 1, 3]
        for k, want in enumerate(cases.values()):
            assert {t for t in gate if gate[t][0, k]} == want

    def test_undefined_pixels_are_kept(self):
        # a band of weak (|o| < 0.5), perpendicular orientation across the
        # baseline: turn 0 must still detect the whole line, which gating the
        # band away would cut in two
        line = make_line("l", 8, 120, 30, 8.0, 3.0)
        from conftest import make_block, make_page

        page = make_page([make_block("b0", [line])], height=64, width=128)
        gt = render_orientation_gt(page)
        ox, oy = gt.ox.copy(), gt.oy.copy()
        ox[:, 60:70], oy[:, 60:70] = 0.0, 0.45
        pred = detect_multi_orientation(maps_by_turn_for(page), OrientationMaps(ox, oy))
        xs = [ln.baseline.points[:, 0] for ln in pred.lines()]
        assert [12.0, 116.0] in [[x.min(), x.max()] for x in xs]

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_ungated_oracle(self, seed):
        layout = generate(SynthConfig(seed=seed, vertical_line_prob=0.3))
        frames, omaps = maps_by_turn_for(layout), render_orientation_gt(layout)
        want = save_layout(detect_multi_orientation_oracle(frames, omaps))
        assert save_layout(detect_multi_orientation(frames, omaps)) == want

    def test_zero_field_gates_nothing(self):
        layout = generate(SynthConfig(seed=1, vertical_line_prob=0.3))
        frames = maps_by_turn_for(layout)
        zero = OrientationMaps(np.zeros(layout.size, np.float32), np.zeros(layout.size, np.float32))
        pred = detect_multi_orientation(frames, zero)
        assert pred.lines()
        assert save_layout(pred) == save_layout(detect_multi_orientation_oracle(frames, zero))

    @pytest.mark.parametrize("prob, seed", [(0.3, 20), (1.0, 2), (1.0, 20)])
    def test_drops_one_spurious_fragment(self, prob, seed):
        layout = generate(SynthConfig(seed=seed, vertical_line_prob=prob))
        frames, omaps = maps_by_turn_for(layout), render_orientation_gt(layout)
        gated = detect_multi_orientation(frames, omaps)
        ungated = detect_multi_orientation_oracle(frames, omaps)
        want = _block_keys(ungated)
        (dropped,) = [k for k, key in enumerate(want) if key not in _block_keys(gated)]
        assert _block_keys(gated) == want[:dropped] + want[dropped + 1 :]
        (fragment,) = ungated.blocks[dropped].lines
        xs = fragment.baseline.points[:, 0]
        assert xs.max() - xs.min() + 1 == 5
        if (prob, seed) == (1.0, 2):
            ends = fragment.baseline.points[[0, -1]]
            assert np.array_equal(np.rint(ends), [[630, 172], [634, 163]])
        before, after = evaluate(ungated, layout), evaluate(gated, layout)
        assert before.line[2] == pytest.approx(0.99, abs=0.005) and after.line[2] == 1.0
        assert before.block[2] == pytest.approx(0.952, abs=0.0005) and after.block[2] == 1.0
