import math
import tracemalloc

import numpy as np
import pytest

import pagelayout._raster
import pagelayout.geometry
import pagelayout.metrics
from pagelayout.blocks import extract_page, polygon_from_baseline
from pagelayout.channels import rotate_maps
from pagelayout.geometry import Polygon, Polyline, polygon_iou
from pagelayout.layout import PageLayout
from pagelayout.metrics import build_report, evaluate, f_value, match_baselines, match_polygons
from pagelayout.orient import detect_multi_orientation
from pagelayout.render import render_gt, render_orientation_gt
from pagelayout.synth import SynthConfig, corrupt, generate

from conftest import make_block, make_line, make_page
from oracles import coverage_oracle, evaluate_oracle, greedy_match_oracle, rect_iou_oracle


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
        """Baselines and polygons score the three empty cases alike: no predictions P=1, no ground truth R=1,
        both empty F=1, the rest 0."""
        line, poly = Polyline([[0, 5], [40, 5]]), rect(0, 0, 1, 1)
        for n_pred, n_gt, want in ((0, 1, (1.0, 0.0, 0.0)), (1, 0, (0.0, 1.0, 0.0)), (0, 0, (1.0, 1.0, 1.0))):
            got = match_baselines([line] * n_pred, [line] * n_gt, tolerance=2.0), match_polygons([poly] * n_pred, [poly] * n_gt)
            assert got == (want, want)
            assert all(type(v) is float for scores in got for v in scores)

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

        # non-rectangular line polygons, half of them near-copies: the scores
        # equal greedy matching over per-pair scalar polygon_iou results
        def line_poly():
            n = int(rng.integers(2, 6))
            base = np.stack([np.cumsum(rng.uniform(3, 15, n)), 20 + np.cumsum(rng.uniform(-4, 4, n))], axis=1)
            return polygon_from_baseline(base + rng.uniform(0, 30, 2), rng.uniform(3, 12), rng.uniform(0, 5))

        for _ in range(60):
            gt = [line_poly() for _ in range(int(rng.integers(1, 7)))]
            pred = [
                Polygon(g.ring + rng.uniform(-1.5, 1.5, 2)) if rng.uniform() < 0.5 else line_poly() for g in gt
            ][: int(rng.integers(1, len(gt) + 1))]
            iou = np.array([[polygon_iou(a, b) for b in gt] for a in pred])
            for threshold in (0.3, 0.5, 0.7):
                tp = greedy_match_oracle(iou, threshold)
                assert match_polygons(pred, gt, threshold) == (tp / len(pred), tp / len(gt), f_value(tp / len(pred), tp / len(gt)))

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        pred = [rect(i * 12, 0, i * 12 + 10, 10) for i in range(5)]
        gt = [rect(i * 12 + 1, 0, i * 12 + 10, 10) for i in range(5)]
        ref = match_polygons(pred, gt)
        for _ in range(5):
            p2 = [pred[i] for i in rng.permutation(5)]
            g2 = [gt[i] for i in rng.permutation(5)]
            assert match_polygons(p2, g2) == ref


def score_bits(scores):
    """Every P/R/F value of a ``PageScores`` as its exact bits."""
    return [v.hex() for prf in (scores.baseline, scores.line, scores.block) for v in prf]


def scored_pages(kind, seeds):
    """(prediction, ground truth) of clean, noisy (criterion-2 corruption) or multi-orientation pages."""
    for seed in seeds:
        if kind == "multi":
            gt = generate(SynthConfig(seed=seed, vertical_line_prob=0.3))
            maps = render_gt(gt)
            frames = {0: maps, 1: rotate_maps(maps, 1), 3: rotate_maps(maps, 3)}
            yield detect_multi_orientation(frames, render_orientation_gt(gt)), gt
        else:
            gt = generate(SynthConfig(seed=seed))
            maps = render_gt(gt)
            if kind == "noisy":
                maps = corrupt(maps, noise_sigma=0.1, blur_size=3, dropout_prob=0.05, rng_seed=seed)
            yield extract_page(maps), gt


@pytest.fixture(scope="module")
def page_pairs():
    return {kind: list(scored_pages(kind, range(10))) for kind in ("clean", "noisy", "multi")}


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

    @pytest.mark.parametrize("kind", ["clean", "noisy", "multi"])
    def test_matches_per_item_oracle(self, page_pairs, kind):
        """All-pairs coverage and one pairwise IoU call per level score every page as the per-segment
        and per-prediction loops did, to the bit."""
        for pred, gt in page_pairs[kind]:
            assert score_bits(evaluate(pred, gt)) == score_bits(evaluate_oracle(pred, gt))
            assert score_bits(evaluate(gt, pred, 0.3)) == score_bits(evaluate_oracle(gt, pred, 0.3))

    def test_small_chunks_equal_one_chunk(self, page_pairs, monkeypatch):
        """Coverage pairs, sampled polylines and kernel pairs in many chunks give the one-chunk scores."""
        pairs = page_pairs["noisy"][:3] + page_pairs["multi"][:3]
        want = [score_bits(evaluate(pred, gt)) for pred, gt in pairs]
        monkeypatch.setattr(pagelayout.geometry, "_BATCH_ELEMENTS", 300)
        chunk_counts, distance_calls = [], []
        chunks, distance = pagelayout.geometry._chunks, pagelayout.metrics._segment_distance

        def counted_chunks(sizes):
            ranges = list(chunks(sizes))
            chunk_counts.append(len(ranges))
            return ranges

        def counted_distance(*args):
            distance_calls.append(1)
            return distance(*args)

        monkeypatch.setattr(pagelayout.geometry, "_chunks", counted_chunks)
        monkeypatch.setattr(pagelayout._raster, "_chunks", counted_chunks)
        monkeypatch.setattr(pagelayout.metrics, "_segment_distance", counted_distance)
        assert [score_bits(evaluate(pred, gt)) for pred, gt in pairs] == want
        assert max(chunk_counts) > 10  # the kernel and the sampler ran in many chunks
        assert len(distance_calls) > 10 * 2 * len(pairs)  # and so did coverage

    def test_memory_stays_flat_on_a_large_page(self):
        """A page of 2,400 short lines, each touching the boxes of its eight neighbours, scores against
        itself with a bounded traced peak (the chunked kernel and coverage), not a timed one."""
        blocks = []
        for b in range(8):
            x0, y0 = 20 + 310 * (b % 2), 20 + 230 * (b // 2)
            lines = [
                make_line(f"b{b}r{row}k{k}", x0 + 28 * k, x0 + 28 * (k + 1), y0 + 7 * row, 5.0, 2.0)
                for row in range(30)
                for k in range(10)
            ]
            blocks.append(make_block(f"b{b}", lines))
        page = make_page(blocks, height=960, width=660)
        assert len(page.lines()) == 2400
        tracemalloc.start()
        try:
            scores = evaluate(page, page)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.baseline == scores.line == scores.block == (1.0, 1.0, 1.0)
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestValidatedDomains:
    @pytest.mark.parametrize("threshold", [-0.1, 1.0 + 1e-9, math.nan, math.inf, -math.inf])
    def test_iou_threshold_outside_unit_interval_raises(self, threshold):
        touching, apart = [rect(10, 0, 20, 10)], [rect(50, 50, 60, 60)]
        for gt in (touching, apart, []):
            with pytest.raises(ValueError, match=r"iou_threshold must lie in \[0, 1\]"):
                match_polygons([rect(0, 0, 10, 10)], gt, threshold)
        with pytest.raises(ValueError, match="iou_threshold"):
            match_polygons([], [], threshold)

    def test_unit_interval_ends_are_accepted(self):
        a, b = rect(0, 0, 10, 10), rect(10, 0, 20, 10)  # boxes touch, IoU 0
        assert match_polygons([a], [b], 0.0) == match_polygons([a], [rect(50, 50, 60, 60)], 0.0) == (0.0, 0.0, 0.0)
        assert match_polygons([a], [a], 0.0) == (1.0, 1.0, 1.0)
        assert match_polygons([a], [a], 1.0) == (0.0, 0.0, 0.0)  # IoU 1 is not above 1

    @pytest.mark.parametrize("tolerance", [-0.5, math.nan, math.inf])
    def test_bad_baseline_tolerance_raises(self, tolerance):
        lines = [Polyline([[0, 5], [40, 5]])]
        for pred, gt in ((lines, lines), ([], lines), ([], [])):
            with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
                match_baselines(pred, gt, tolerance)

    def test_zero_tolerance_is_accepted(self):
        lines = [Polyline([[0, 5], [40, 5]])]
        assert match_baselines(lines, lines, 0.0) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, math.nan])
    def test_evaluate_rejects_the_threshold(self, simple_page, threshold):
        with pytest.raises(ValueError, match="iou_threshold"):
            evaluate(simple_page, simple_page, threshold)
