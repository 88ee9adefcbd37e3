import numpy as np
import pytest

from pagelayout.geometry import Polygon, Polyline
from pagelayout.layout import PageLayout
from pagelayout.metrics import build_report, evaluate, f_value, match_baselines, match_polygons
from pagelayout.synth import SynthConfig, generate

from conftest import make_block, make_line, make_page
from oracles import coverage_oracle, greedy_match_oracle, rect_iou_oracle


def rect(x0, y0, x1, y1):
    return Polygon([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


class TestMatchBaselines:
    def test_identical_sets(self):
        lines = [Polyline([[0, 5], [40, 5]]), Polyline([[0, 20], [40, 20]])]
        assert match_baselines(lines, lines, tolerance=2.0) == (1.0, 1.0, 1.0)

    def test_empty_pred_nonempty_gt(self):
        gt = [Polyline([[0, 5], [40, 5]])]
        p, r, f = match_baselines([], gt, tolerance=2.0)
        assert (p, r, f) == (1.0, 0.0, 0.0)

    def test_both_empty_perfect(self):
        assert match_baselines([], [], tolerance=2.0) == (1.0, 1.0, 1.0)

    def test_half_covered_line(self):
        # gt 100 px, pred covers [0, 50]: 1 px sampling puts 101 points on
        # the gt, of which the 51 at x <= 50 are covered
        gt = [Polyline([[0, 10], [100, 10]])]
        pred = [Polyline([[0, 10], [50, 10]])]
        p, r, f = match_baselines(pred, gt, tolerance=0.25)
        assert p == 1.0
        assert r == pytest.approx(51 / 101)
        assert f == pytest.approx(f_value(1.0, 51 / 101))

    def test_tolerance_widens_coverage(self):
        gt = [Polyline([[0, 10], [100, 10]])]
        pred = [Polyline([[0, 13], [100, 13]])]  # 3 px below
        assert match_baselines(pred, gt, tolerance=2.0)[2] == 0.0
        assert match_baselines(pred, gt, tolerance=3.0)[2] == 1.0  # exactly at the tolerance
        assert match_baselines(pred, gt, tolerance=4.0)[2] == 1.0

    def test_matches_coverage_oracle_on_random_polylines(self):
        rng = np.random.default_rng(7)

        def random_line():
            x0, y0 = rng.uniform(-10, 90, 2)
            length = rng.uniform(1.5, 60)
            kind = rng.integers(4)
            if kind == 0:  # horizontal
                pts = [[x0, y0], [x0 + length, y0]]
            elif kind == 1:  # vertical
                pts = [[x0, y0], [x0, y0 + length]]
            elif kind == 2:  # diagonal
                a = rng.uniform(0, 2 * np.pi)
                pts = [[x0, y0], [x0 + length * np.cos(a), y0 + length * np.sin(a)]]
            else:  # multi-point
                pts = np.array([x0, y0]) + np.cumsum(rng.uniform(-15, 15, (int(rng.integers(3, 7)), 2)), axis=0)
            return Polyline(pts)

        for _ in range(100):
            gt = [random_line() for _ in range(int(rng.integers(1, 6)))]
            tol = float(rng.uniform(0.5, 12.0))
            # half near-copies of gt lines, half unrelated lines
            pred = [
                Polyline(g.points + rng.uniform(-1.5 * tol, 1.5 * tol, 2)) if rng.uniform() < 0.5 else random_line()
                for g in gt
            ]
            p, r, _ = match_baselines(pred, gt, tol)
            pred_pts = [line.points for line in pred]
            gt_pts = [line.points for line in gt]
            assert p == coverage_oracle(pred_pts, gt_pts, tol)
            assert r == coverage_oracle(gt_pts, pred_pts, tol)


class TestMatchPolygons:
    def test_identical(self):
        polys = [rect(0, 0, 10, 10), rect(20, 0, 30, 10)]
        assert match_polygons(polys, polys) == (1.0, 1.0, 1.0)

    def test_one_pred_two_gt_matches_best(self):
        pred = [rect(0, 0, 10, 10)]
        gt = [rect(0, 0, 10, 9), rect(0, 0, 10, 8)]  # IoU 0.9 and 0.8
        p, r, f = match_polygons(pred, gt)
        assert (p, r) == (1.0, 0.5)

    def test_all_below_threshold(self):
        pred = [rect(0, 0, 10, 10)]
        gt = [rect(6, 0, 16, 10)]  # IoU = 4/16 = 0.25
        assert match_polygons(pred, gt) == (0.0, 0.0, 0.0)

    def test_strictly_above_threshold_required(self):
        pred = [rect(0, 0, 10, 7)]
        gt = [rect(0, 0, 10, 10)]  # IoU exactly 0.7
        assert match_polygons(pred, gt, iou_threshold=0.7)[0] == 0.0

    def test_empty_conventions(self):
        assert match_polygons([], [rect(0, 0, 1, 1)]) == (1.0, 0.0, 0.0)
        assert match_polygons([rect(0, 0, 1, 1)], []) == (0.0, 1.0, 0.0)
        assert match_polygons([], []) == (1.0, 1.0, 1.0)

    def test_greedy_matches_oracle_on_random_rects(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            def rand_rects(k):
                out = []
                for _ in range(k):
                    x0, y0 = rng.uniform(0, 30, 2)
                    out.append(rect(x0, y0, x0 + rng.uniform(3, 12), y0 + rng.uniform(3, 12)))
                return out

            pred = rand_rects(int(rng.integers(1, 6)))
            gt = rand_rects(int(rng.integers(1, 6)))
            iou = np.zeros((len(pred), len(gt)))
            for i, a in enumerate(pred):
                for j, b in enumerate(gt):
                    iou[i, j] = rect_iou_oracle((*a.ring.min(axis=0), *a.ring.max(axis=0)), (*b.ring.min(axis=0), *b.ring.max(axis=0)))
            tp = greedy_match_oracle(iou, 0.7)
            p, r, _ = match_polygons(pred, gt)
            assert p == pytest.approx(tp / len(pred))
            assert r == pytest.approx(tp / len(gt))

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        pred = [rect(i * 12, 0, i * 12 + 10, 10) for i in range(5)]
        gt = [rect(i * 12 + 1, 0, i * 12 + 10, 10) for i in range(5)]
        ref = match_polygons(pred, gt)
        for _ in range(5):
            p2 = [pred[i] for i in rng.permutation(5)]
            g2 = [gt[i] for i in rng.permutation(5)]
            assert match_polygons(p2, g2) == ref


class TestEvaluate:
    def test_perfect_self_score(self, simple_page):
        scores = evaluate(simple_page, simple_page)
        assert scores.baseline == (1.0, 1.0, 1.0)
        assert scores.line == (1.0, 1.0, 1.0)
        assert scores.block == (1.0, 1.0, 1.0)

    def test_missing_block_halves_recall(self):
        b0 = make_block("b0", [make_line("l0", 5, 80, 20, 8.0, 3.0)])
        b1 = make_block("b1", [make_line("l1", 5, 80, 60, 8.0, 3.0)])
        gt = make_page([b0, b1])
        pred = make_page([make_block("b0", [make_line("l0", 5, 80, 20, 8.0, 3.0)])])
        scores = evaluate(pred, gt)
        assert scores.block[1] == 0.5

    def test_size_mismatch_rejected(self, simple_page):
        other = make_page([], height=32, width=32)
        with pytest.raises(ValueError, match="size mismatch"):
            evaluate(other, simple_page)

    def test_removing_false_positive_raises_precision(self):
        gt = make_page([make_block("b0", [make_line("l0", 5, 80, 20, 8.0, 3.0)])])
        good = make_line("l0", 5, 80, 20, 8.0, 3.0)
        junk = make_line("junk", 5, 40, 100, 5.0, 2.0)
        with_junk = make_page([make_block("b0", [good]), make_block("b1", [junk])])
        without = make_page([make_block("b0", [good])])
        s_with = evaluate(with_junk, gt)
        s_without = evaluate(without, gt)
        assert s_without.baseline[0] > s_with.baseline[0]
        assert s_without.baseline[1] == s_with.baseline[1]
        assert s_without.block[0] > s_with.block[0]

    def test_aggregate_is_mean_of_pages(self):
        rows = []
        for seed in range(20):
            layout = generate(SynthConfig(seed=seed, page_size=(384, 512)))
            rows.append(evaluate(layout, layout))
        report = build_report(rows)
        for name in ("baseline", "line", "block"):
            vals = [getattr(r, name) for r in rows]
            assert report.aggregate[name]["precision"] == pytest.approx(np.mean([v[0] for v in vals]), abs=1e-9)
            assert report.aggregate[name]["recall"] == pytest.approx(np.mean([v[1] for v in vals]), abs=1e-9)
            assert report.aggregate[name]["f"] == pytest.approx(np.mean([v[2] for v in vals]), abs=1e-9)

    def test_generator_pages_score_perfectly_against_themselves(self):
        for seed in range(10):
            layout = generate(SynthConfig(seed=seed, page_size=(384, 512), vertical_line_prob=0.5))
            scores = evaluate(layout, layout)
            assert scores.baseline == (1.0, 1.0, 1.0)
            assert scores.line == (1.0, 1.0, 1.0)
            assert scores.block == (1.0, 1.0, 1.0)
