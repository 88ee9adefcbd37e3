import math

import numpy as np
import pytest

import pagelayout.blocks
import pagelayout.geometry
import pagelayout.orient
from pagelayout.blocks import (
    BlockParams,
    _drop_self_intersections,
    adjacency_penalty,
    cluster_blocks,
    extract_page,
    line_polygon,
    merge_block_lines,
    nearest_rank_percentile,
    polygon_from_baseline,
)
from pagelayout.channels import ChannelMaps, rotate_maps
from pagelayout.geometry import Polyline
from pagelayout.layout import TextBlock, TextLine, baseline_midpoint, load_layout, save_layout
from pagelayout.orient import detect_multi_orientation
from pagelayout.render import render_gt, render_orientation_gt
from pagelayout.synth import SynthConfig, corrupt, generate

from conftest import make_block, make_line, make_page
from oracles import (
    adjacency_penalty_oracle,
    closure_partition_oracle,
    detect_multi_orientation_oracle,
    drop_self_intersections_oracle,
    merge_fixpoint_oracle,
    percentile_oracle,
)


def maps_with(base=None, asc=None, des=None, block=None, h=48, w=64):
    z = lambda: np.zeros((h, w), np.float32)
    return ChannelMaps(
        z() if base is None else base.astype(np.float32),
        z(),
        z() if asc is None else asc.astype(np.float32),
        z() if des is None else des.astype(np.float32),
        z() if block is None else block.astype(np.float32),
    )


class TestPercentile:
    def test_hand_example(self):
        # nearest rank: ceil(0.75 * 4) = 3rd smallest
        assert nearest_rank_percentile([10, 10, 10, 20], 75) == 10

    def test_single_value(self):
        assert nearest_rank_percentile([7.5], 75) == 7.5

    def test_full_range(self):
        assert nearest_rank_percentile([1, 2, 3], 100) == 3
        assert nearest_rank_percentile([1, 2, 3], 0) == 1

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            vals = rng.uniform(0, 30, rng.integers(1, 20))
            pct = int(rng.integers(0, 101))
            assert nearest_rank_percentile(vals, pct) == percentile_oracle(vals, pct)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nearest_rank_percentile([], 75)


class TestLinePolygon:
    def test_constant_heights_give_band(self):
        asc = np.full((48, 64), 12.0)
        des = np.full((48, 64), 4.0)
        maps = maps_with(asc=asc, des=des)
        baseline = Polyline([[5.0, 20.0], [40.0, 20.0]])
        line = line_polygon(baseline, maps, line_id="t")
        assert line.ascender == 12.0
        assert line.descender == 4.0
        x0, y0, x1, y1 = line.polygon.bounds()
        assert y0 == pytest.approx(8.0)
        assert y1 == pytest.approx(24.0)

    def test_percentile_rule_on_sampled_heights(self):
        asc = np.zeros((48, 64))
        asc[20, :] = 10.0
        asc[20, 30:40] = 20.0  # < 25% of the samples
        maps = maps_with(asc=asc, des=np.full((48, 64), 2.0))
        line = line_polygon(Polyline([[0.0, 20.0], [63.0, 20.0]]), maps, line_id="t")
        assert line.ascender == 10.0

    def test_tilted_sides_perpendicular(self):
        asc = np.full((64, 64), 8.0)
        maps = maps_with(asc=asc, des=np.full((64, 64), 3.0), h=64, w=64)
        baseline = Polyline([[5.0, 40.0], [45.0, 20.0]])
        line = line_polygon(baseline, maps, line_id="t")
        ring = line.polygon.ring
        d = baseline.points[1] - baseline.points[0]
        d = d / np.hypot(*d)
        side = ring[0] - baseline.points[0]
        assert abs(np.dot(side, d)) < 1e-6 * np.hypot(*side)

    def test_out_of_bounds_baseline(self):
        maps = maps_with()
        with pytest.raises(ValueError, match="out of bounds"):
            line_polygon(Polyline([[500.0, 500.0], [600.0, 500.0]]), maps, line_id="t")

    def test_ascender_clamped_to_model_minimum(self):
        maps = maps_with()  # all-zero height channels
        line = line_polygon(Polyline([[5.0, 20.0], [40.0, 20.0]]), maps, line_id="t")
        assert line.ascender == 1.0


class TestAdjacencyPenalty:
    def make_pair(self):
        upper = make_line("u", 5, 50, 16, 8.0, 4.0)
        lower = make_line("v", 5, 50, 30, 9.0, 3.0)
        return upper, lower

    def test_zero_channel_zero_penalty(self):
        upper, lower = self.make_pair()
        assert adjacency_penalty(upper, lower, maps_with(), BlockParams()) == (0.0, 0.0)

    def test_full_channel_gives_thickness(self):
        upper, lower = self.make_pair()
        block = np.ones((48, 64))
        p_up, p_low = adjacency_penalty(upper, lower, maps_with(block=block), BlockParams())
        # 3 rows of ones per strip column
        assert p_up == pytest.approx(3.0)
        assert p_low == pytest.approx(3.0)

    def test_non_overlapping_lines_rejected(self):
        a = make_line("a", 0, 20, 16, 6.0, 2.0)
        b = make_line("b", 30, 50, 30, 6.0, 2.0)
        with pytest.raises(ValueError, match="not neighbours"):
            adjacency_penalty(a, b, maps_with(), BlockParams())

    def test_monotone_in_block_channel(self):
        rng = np.random.default_rng(1)
        upper, lower = self.make_pair()
        low = rng.uniform(0, 0.4, (48, 64))
        high = np.clip(low + rng.uniform(0, 0.5, (48, 64)), 0, 1)
        p_low_ch = adjacency_penalty(upper, lower, maps_with(block=low), BlockParams())
        p_high_ch = adjacency_penalty(upper, lower, maps_with(block=high), BlockParams())
        assert p_high_ch[0] >= p_low_ch[0] and p_high_ch[1] >= p_low_ch[1]

    def test_rendered_boundary_between_lines_exceeds_threshold(self):
        # two blocks rendered with a boundary between them; probe the pair
        # spanning the boundary
        u = make_line("u", 5, 58, 14, 6.0, 3.0)
        v = make_line("v", 9, 54, 26, 7.0, 2.0)
        page = make_page([make_block("b0", [u]), make_block("b1", [v])], height=48, width=64)
        maps = render_gt(page)
        p_up, p_low = adjacency_penalty(u, v, maps, BlockParams())
        assert p_up > 0.3 and p_low > 0.3


class TestClusterBlocks:
    def test_no_lines_no_blocks(self):
        assert cluster_blocks([], maps_with(), BlockParams()) == []

    def test_two_stacked_lines_one_block(self):
        l0 = make_line("l0", 5, 50, 16, 8.0, 3.0)
        l1 = make_line("l1", 8, 53, 26, 6.5, 3.5)
        blocks = cluster_blocks([l0, l1], maps_with(), BlockParams())
        assert len(blocks) == 1
        assert [ln.id for ln in blocks[0].lines] == ["l0", "l1"]

    def test_touching_intervals_are_not_neighbours(self):
        from pagelayout.blocks import _neighbours, _x_interval

        left = make_line("l0", 5, 30, 16, 8.0, 3.0)
        for x0, together in ((30, False), (29.5, True)):  # touching, then overlapping by half a pixel
            right = make_line("l1", x0, 55, 20, 8.0, 3.0)
            args = (_x_interval(left), _x_interval(right), 16.0, 20.0)
            assert _neighbours(left, right, maps_with(), BlockParams(), *args) == together
            assert len(cluster_blocks([left, right], maps_with(), BlockParams())) == (1 if together else 2)

    def test_chain_split_by_rendered_boundary(self):
        # lines 1-2 in one block, line 3 in another; all consecutive pairs
        # satisfy the distance rule, so only the rendered boundary between
        # 2 and 3 forces the split there
        l1 = make_line("l1", 5, 120, 12, 6.0, 2.0)
        l2 = make_line("l2", 9, 116, 19.5, 5.0, 3.0)
        l3 = make_line("l3", 5, 120, 27.5, 4.5, 4.0)
        page = make_page([make_block("b0", [l1, l2]), make_block("b1", [l3])], height=48, width=128)
        maps = render_gt(page)
        blocks = cluster_blocks([l1, l2, l3], maps, BlockParams())
        groups = {frozenset(ln.id for ln in b.lines) for b in blocks}
        assert groups == {frozenset({"l1", "l2"}), frozenset({"l3"})}

    def test_partition_property(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            lines = []
            for i in range(int(rng.integers(1, 8))):
                x0 = float(rng.uniform(0, 20))
                y = 8 + 11 * i
                lines.append(make_line(f"l{i}", x0, x0 + 35, y, 6.0, 2.0))
            blocks = cluster_blocks(lines, maps_with(), BlockParams())
            got = sorted(ln.id for b in blocks for ln in b.lines)
            assert got == sorted(ln.id for ln in lines)

    def test_matches_transitive_closure_oracle(self):
        rng = np.random.default_rng(3)
        params = BlockParams()
        for _ in range(20):
            n = int(rng.integers(2, 10))
            lines = []
            for i in range(n):
                x0 = float(rng.uniform(0, 30))
                y = float(rng.uniform(5, 42))
                lines.append(make_line(f"l{i}", x0, x0 + rng.uniform(15, 30), y, 5.0, 2.0))
            block_ch = (rng.uniform(0, 1, (48, 64)) > 0.8).astype(np.float64)
            maps = maps_with(block=block_ch)
            from pagelayout.blocks import _neighbours, _x_interval

            adj = np.zeros((n, n), dtype=bool)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        adj[i, j] = _neighbours(
                            lines[i],
                            lines[j],
                            maps,
                            params,
                            _x_interval(lines[i]),
                            _x_interval(lines[j]),
                            baseline_midpoint(lines[i].baseline)[1],
                            baseline_midpoint(lines[j].baseline)[1],
                        )
            want = {
                frozenset(f"l{i}" for i in comp) for comp in closure_partition_oracle(adj)
            }
            got = {frozenset(ln.id for ln in b.lines) for b in cluster_blocks(lines, maps, params)}
            assert got == want

    def test_order_invariance(self):
        rng = np.random.default_rng(4)
        lines = [make_line(f"l{i}", 5 + i, 40 + i, 10 + 9 * i, 5.0, 2.0) for i in range(6)]
        maps = maps_with()
        ref = {frozenset(ln.id for ln in b.lines) for b in cluster_blocks(lines, maps, BlockParams())}
        for _ in range(5):
            perm = [lines[i] for i in rng.permutation(len(lines))]
            got = {frozenset(ln.id for ln in b.lines) for b in cluster_blocks(perm, maps, BlockParams())}
            assert got == ref


class TestMergeBlockLines:
    def test_single_line_unchanged(self):
        block = make_block("b0", [make_line("l0", 5, 50, 16, 8.0, 3.0)])
        assert merge_block_lines(block, BlockParams()) is block

    def test_collinear_fragments_merge(self):
        h = 8.0 + 3.0
        gap = 0.5 * h
        f0 = make_line("f0", 5, 30, 16, 8.0, 3.0)
        f1 = make_line("f1", 30 + gap, 60, 16, 8.0, 3.0)
        block = make_block("b0", [f0, f1])
        merged = merge_block_lines(block, BlockParams())
        assert len(merged.lines) == 1
        line = merged.lines[0]
        assert line.id == "f0"
        assert line.baseline.points[0, 0] == pytest.approx(5.0)
        assert line.baseline.points[-1, 0] == pytest.approx(60.0)
        assert len(line.baseline.points) <= 10

    def test_merged_baseline_honours_max_control_points(self):
        f0 = make_line("f0", 5, 30, 16, 8.0, 3.0)
        f1 = make_line("f1", 35, 60, 16, 8.0, 3.0)
        merged = merge_block_lines(make_block("b0", [f0, f1]), BlockParams(), max_control_points=3)
        assert len(merged.lines) == 1
        assert len(merged.lines[0].baseline.points) <= 3

    def test_stacked_lines_never_merge(self):
        l0 = make_line("l0", 5, 50, 16, 8.0, 3.0)
        l1 = make_line("l1", 5, 50, 26, 6.5, 3.5)
        block = make_block("b0", [l0, l1])
        merged = merge_block_lines(block, BlockParams())
        assert len(merged.lines) == 2

    def test_fixpoint_idempotent(self):
        frags = [make_line(f"f{i}", 5 + 18 * i, 18 + 18 * i, 16, 6.0, 2.0) for i in range(3)]
        block = make_block("b0", frags)
        once = merge_block_lines(block, BlockParams())
        twice = merge_block_lines(once, BlockParams())
        assert len(once.lines) == 1
        assert len(twice.lines) == len(once.lines)

    def test_wide_gap_not_merged(self):
        f0 = make_line("f0", 5, 20, 16, 6.0, 2.0)
        f1 = make_line("f1", 40, 60, 16, 6.0, 2.0)  # gap 20 > 1.0 * 8
        block = make_block("b0", [f0, f1])
        assert len(merge_block_lines(block, BlockParams()).lines) == 2


def fragment_chain_block(rng, n):
    """Fragments of 1-3 text rows, some tilted or with several control points, some sharing a left x."""
    rows = 20 + 30 * np.arange(int(rng.integers(1, 4)))
    starts = np.round(rng.uniform(5, 300, n))
    for k in range(1, n):
        if rng.uniform() < 0.25:
            starts[k] = starts[int(rng.integers(k))]  # equal left x
    lines = []
    for k, x0 in enumerate(starts):
        y = rows[int(rng.integers(len(rows)))] + rng.uniform(-2, 2)
        xs = np.linspace(x0, x0 + rng.uniform(4, 60), int(rng.integers(2, 6)))
        pts = np.stack([xs, y + rng.uniform(-1.5, 1.5) * np.linspace(0, 1, len(xs))], axis=1)
        asc, des = float(rng.uniform(4, 9)), float(rng.uniform(1, 4))
        lines.append(TextLine(f"f{k:02d}", Polyline(pts), asc, des, polygon_from_baseline(pts, asc, des)))
    return make_block("b0", lines)


class TestMergeFixpointOracle:
    @pytest.mark.parametrize("max_control_points", [3, 10])
    def test_matches_restart_scan_on_fragment_chains(self, max_control_points):
        rng = np.random.default_rng(40 + max_control_points)
        params = [BlockParams(), BlockParams(merge_y_tolerance=1.0, merge_x_gap=2.0)]
        merges = 0
        for trial in range(40):
            block = fragment_chain_block(rng, int(rng.integers(2, 31)))
            p = params[trial % 2]
            got = merge_block_lines(block, p, max_control_points)
            want = merge_fixpoint_oracle(block, p, max_control_points)
            assert save_layout(make_page([make_block(got.id, got.lines)], 160, 420)) == save_layout(
                make_page([want], 160, 420)
            )
            merges += len(block.lines) - len(got.lines)
        assert merges > 100


class TestExtractPage:
    def test_round_trip_simple_page(self, simple_page):
        maps = render_gt(simple_page)
        pred = extract_page(maps, page_id="pred")
        assert len(pred.blocks) == 1
        assert len(pred.lines()) == 2
        for got, want in zip(pred.lines(), simple_page.lines()):
            assert got.ascender == pytest.approx(want.ascender, abs=1e-3)
            assert got.descender == pytest.approx(want.descender, abs=1e-3)

    def test_zero_maps_give_empty_layout(self):
        pred = extract_page(ChannelMaps.zeros(32, 32))
        assert pred.blocks == []

    def test_wavy_line_at_page_edge_is_clipped(self):
        # the ascender side pokes above y = 0; clamping the ring vertex by
        # vertex used to cut the baseline out of its own polygon
        base, asc, des = (np.zeros((64, 128), np.float32) for _ in range(3))
        for x in range(12, 104):
            y = round(2 + math.sin(2 * math.pi * x / 20))
            base[y, x], asc[y, x], des[y, x] = 1.0, 10.0, 3.0
        pred = extract_page(maps_with(base, asc, des, h=64, w=128))
        assert len(pred.lines()) == 1
        for arr in (pred.blocks[0].polygon.ring, pred.lines()[0].polygon.ring, pred.lines()[0].baseline.points):
            assert (arr >= 0).all() and (arr[:, 0] <= 128).all() and (arr[:, 1] <= 64).all()
        data = save_layout(pred)
        assert save_layout(load_layout(data)) == data


class TestEachBlockBuiltOnce:
    """Each output block is outlined and checked once, not rebuilt per stage."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"block_polygon": 0, "TextBlock": 0}
        block_polygon = pagelayout.blocks.block_polygon
        post_init = TextBlock.__post_init__

        def counted_block_polygon(lines):
            calls["block_polygon"] += 1
            return block_polygon(lines)

        def counted_post_init(block):
            calls["TextBlock"] += 1
            post_init(block)

        monkeypatch.setattr(pagelayout.blocks, "block_polygon", counted_block_polygon)
        monkeypatch.setattr(TextBlock, "__post_init__", counted_post_init)
        return calls

    def test_noisy_pages(self, counts):
        merges = 0
        for seed in range(4):
            maps = corrupt(render_gt(generate(SynthConfig(seed=seed))), 0.1, 3, 0.05, rng_seed=seed)
            counts.update(block_polygon=0, TextBlock=0)
            pred = extract_page(maps)
            assert counts == {"block_polygon": len(pred.blocks), "TextBlock": len(pred.blocks)}
            merges += len(extract_page(maps, merge=False).lines()) - len(pred.lines())
        assert merges > 0

    def test_multi_orientation_pages(self, counts):
        for seed in range(2):
            layout = generate(SynthConfig(seed=seed, vertical_line_prob=0.3))
            maps, omaps = render_gt(layout), render_orientation_gt(layout)
            frames = {0: maps, 1: rotate_maps(maps, 1), 3: rotate_maps(maps, 3)}
            counts.update(TextBlock=0)
            pred = detect_multi_orientation(frames, omaps)
            assert pred.blocks and counts["TextBlock"] == len(pred.blocks)


def kinked_line(rng, line_id, h=48, w=64):
    """A line on a random multi-point baseline; tall heights on sharp kinks get cleaned or hulled polygons."""
    n = int(rng.integers(2, 7))
    x0 = rng.uniform(-8, w - 10)
    xs = np.sort(x0 + rng.uniform(0, rng.uniform(6, 50), n))
    xs[1:] += np.arange(1, n) * 1e-3  # distinct points
    ys = rng.uniform(-4, h + 4) + rng.uniform(-1, 1, n) * rng.choice([0.5, 3.0, 12.0])
    pts = np.stack([xs, ys], axis=1)
    asc, des = float(rng.uniform(1, 14)), float(rng.choice([0.0, rng.uniform(0, 7)]))
    return TextLine(line_id, Polyline(pts), asc, des, polygon_from_baseline(pts, asc, des))


class TestDropSelfIntersectionsOracle:
    """The incremental crossing-matrix cleaner equals the rescan-every-pair loop exactly."""

    @staticmethod
    def rings(rng):
        for _ in range(120):
            n = int(rng.integers(4, 16))
            yield rng.uniform(0, 10, (n, 2))  # random polygons, mostly self-intersecting
            yield rng.integers(0, 4, (n, 2)).astype(float)  # collinear and touching vertices
            # a band around a kinked polyline whose jittered top side folds over itself
            k = int(rng.integers(3, 9))
            pts = np.stack([np.cumsum(rng.uniform(0.2, 3, k)), rng.uniform(-3, 3, k)], axis=1)
            normal = rng.uniform(2, 8)
            top = pts + [0.0, -normal] + rng.uniform(-2, 2, (k, 2))
            bottom = pts + [0.0, rng.uniform(0, 4)]
            yield np.vstack([top, bottom[::-1]])
            # stars {m/q}: the polygon through every q-th of m points on a circle
            m = int(rng.integers(5, 12))
            q = int(rng.integers(2, (m + 1) // 2))
            ang = 2 * np.pi * q * np.arange(m) / m + rng.uniform(0, 1)
            rad = rng.uniform(2, 6) * (1 + 0.2 * rng.uniform(-1, 1, m))
            yield np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)

    def test_matches_rescan_loop(self):
        rng = np.random.default_rng(31)
        dropped = 0
        for ring in self.rings(rng):
            got = _drop_self_intersections(ring)
            want = drop_self_intersections_oracle(ring)
            assert got.shape == want.shape and np.array_equal(got, want)
            dropped += len(ring) - len(got)
        assert dropped > 1000

    def test_kinked_line_polygons(self):
        rng = np.random.default_rng(32)
        cleaned = 0
        for _ in range(300):
            line = kinked_line(rng, "l")
            pts = line.baseline.points
            normals = pagelayout.geometry._vertex_up_normals(pts)
            ring = np.vstack([pts + line.ascender * normals, (pts + -line.descender * normals)[::-1]])
            got = _drop_self_intersections(ring)
            assert np.array_equal(got, drop_self_intersections_oracle(ring))
            cleaned += len(got) < len(ring)
        assert cleaned > 20


class TestAdjacencyPenaltyOracle:
    """Penalties from each line's shared chains equal offsetting both baselines afresh per pair."""

    def test_matches_per_pair_offsets(self):
        rng = np.random.default_rng(33)
        params = (BlockParams(), BlockParams(penalty_area_thickness=1.0), BlockParams(penalty_area_thickness=6.5))
        compared = 0
        for trial in range(60):
            lines = [kinked_line(rng, f"l{i}") for i in range(int(rng.integers(2, 9)))]
            maps = maps_with(block=rng.uniform(0, 1, (48, 64)) * (rng.uniform(0, 1, (48, 64)) < 0.6))
            for a in lines:  # every line takes part in many pairs, as upper and as lower
                for b in lines:
                    if a is b:
                        continue
                    p = params[trial % 3]
                    try:
                        want = adjacency_penalty_oracle(a, b, maps, p)
                    except ValueError:
                        with pytest.raises(ValueError, match="not neighbours"):
                            adjacency_penalty(a, b, maps, p)
                        continue
                    assert adjacency_penalty(a, b, maps, p) == want
                    compared += 1
        assert compared > 500

    def test_hulled_and_cleaned_lines_use_their_baseline_offsets(self):
        rng = np.random.default_rng(34)
        maps = maps_with(block=rng.uniform(0, 1, (48, 64)))
        checked = 0
        while checked < 30:
            line = kinked_line(rng, "k")
            pts = line.baseline.points
            if len(line.polygon.ring) == 2 * len(pts):
                continue  # an uncleaned ring
            other = make_line("o", line.polygon.bounds()[0], line.polygon.bounds()[2], 24.0, 5.0, 2.0)
            for upper, lower in ((line, other), (other, line)):
                try:
                    want = adjacency_penalty_oracle(upper, lower, maps, BlockParams())
                except ValueError:
                    continue
                assert adjacency_penalty(upper, lower, maps, BlockParams()) == want
                checked += 1


class TestEachLineBuiltOnce:
    """Per-line geometry is built once per line, not once per stage or per pair."""

    def test_multi_orientation_text_lines(self, monkeypatch):
        counts = {"TextLine": 0, "candidates": 0}
        post_init = TextLine.__post_init__
        estimate = pagelayout.orient.estimate_line_angle

        def counted_post_init(line):
            counts["TextLine"] += 1
            post_init(line)

        def counted_estimate(*args):
            counts["candidates"] += 1
            return estimate(*args)

        for seed in (0, 2):
            layout = generate(SynthConfig(seed=seed, vertical_line_prob=0.3))
            maps, omaps = render_gt(layout), render_orientation_gt(layout)
            frames = {0: maps, 1: rotate_maps(maps, 1), 3: rotate_maps(maps, 3)}
            with monkeypatch.context() as m:
                m.setattr(TextLine, "__post_init__", counted_post_init)
                m.setattr(pagelayout.orient, "estimate_line_angle", counted_estimate)
                counts.update(TextLine=0, candidates=0)
                pred = detect_multi_orientation(frames, omaps)
            assert counts["candidates"] >= len(pred.lines()) > 0
            assert counts["TextLine"] <= counts["candidates"] + len(pred.lines())
            gated = counts["candidates"]
            with monkeypatch.context() as m:
                m.setattr(pagelayout.orient, "estimate_line_angle", counted_estimate)
                counts.update(candidates=0)
                detect_multi_orientation_oracle(frames, omaps)
            assert gated < counts["candidates"]

    def test_up_normals_per_polygon_and_line_not_per_pair(self, monkeypatch):
        normals = pagelayout.geometry._vertex_up_normals
        polygon = pagelayout.blocks.polygon_from_baseline
        penalty = pagelayout.blocks.adjacency_penalty
        counts = {"normals": 0, "polygons": 0, "pairs": 0}
        paired = {}  # lines whose chains a penalty read, by identity

        def counted_normals(points):
            counts["normals"] += 1
            return normals(points)

        def counted_polygon(*args):
            counts["polygons"] += 1
            return polygon(*args)

        def counted_penalty(upper, lower, maps, params=None):
            result = penalty(upper, lower, maps, params)
            counts["pairs"] += 1
            paired.update({id(upper): upper, id(lower): lower})
            return result

        for seed in range(2):
            maps = corrupt(render_gt(generate(SynthConfig(seed=seed))), 0.1, 3, 0.05, rng_seed=seed)
            with monkeypatch.context() as m:
                m.setattr(pagelayout.geometry, "_vertex_up_normals", counted_normals)
                m.setattr(pagelayout.blocks, "polygon_from_baseline", counted_polygon)
                m.setattr(pagelayout.blocks, "adjacency_penalty", counted_penalty)
                counts.update(normals=0, polygons=0, pairs=0)
                paired.clear()
                extract_page(maps)
            assert counts["pairs"] > len(paired) > 0
            assert counts["normals"] == counts["polygons"] + len(paired)
