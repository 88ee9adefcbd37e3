import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pagelayout.blocks
import pagelayout.geometry
import pagelayout.layout
import pagelayout.orient
from pagelayout._raster import polyline_pixels
from pagelayout.baselines import ExtractParams, detect_baselines
from pagelayout.blocks import (
    BlockParams,
    LineGroup,
    _drop_self_intersections,
    adjacency_penalty,
    block_polygon,
    cluster_blocks,
    extract_page,
    line_polygon,
    merge_block_lines,
    nearest_rank_percentile,
    polygon_from_baseline,
)
from pagelayout.channels import ChannelMaps, OrientationMaps, rotate_maps
from pagelayout.geometry import (
    Polygon,
    Polyline,
    _contains_within,
    clip_to_page,
    convex_hull,
    intersection_area,
    offset_chains,
)
from pagelayout.layout import LayoutError, TextBlock, TextLine, baseline_midpoint, load_layout, save_layout
from pagelayout.orient import detect_multi_orientation
from pagelayout.render import render_gt, render_orientation_gt
from pagelayout.synth import SynthConfig, corrupt, generate

from conftest import make_block, make_line, make_page
from oracles import (
    adjacency_penalty_oracle,
    block_polygon_oracle,
    closure_partition_oracle,
    detect_multi_orientation_oracle,
    drop_self_intersections_oracle,
    merge_fixpoint_oracle,
    neighbours_oracle,
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


class TestHeights:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 30.0, 50.0, 75.0, 100.0]))
    def test_each_baseline_takes_the_percentile_of_its_own_pixels(self, seed, pct):
        """The batched row sort picks, per baseline, ``nearest_rank_percentile`` of that baseline's pixels,
        also when small chunks split the batch."""
        rng = np.random.default_rng(seed)
        # rounded values tie often, and some fall below the ascender's floor of 1
        maps = maps_with(asc=rng.uniform(0, 12, (48, 64)).round(1), des=rng.uniform(0, 6, (48, 64)).round(1))
        baselines = []
        for _ in range(int(rng.integers(1, 30))):  # some reach past the page edges
            n = int(rng.integers(2, 7))
            xs = np.sort(rng.uniform(-8, 72, n)) + np.arange(n) * 1e-3
            baselines.append(Polyline(np.stack([xs, rng.uniform(-4, 52) + rng.uniform(-6, 6, n)], axis=1)))
        baselines.insert(int(rng.integers(len(baselines) + 1)), Polyline([[500.0, 500.0], [600.0, 500.0]]))
        for batch in (pagelayout.blocks._BATCH_ELEMENTS, 50):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(pagelayout.blocks, "_BATCH_ELEMENTS", batch)
                asc, des, on_page = pagelayout.blocks._heights(baselines, maps, pct)
            for k, bl in enumerate(baselines):
                rows, cols, counts = polyline_pixels([bl.points], maps.shape)
                assert on_page[k] == (counts[0] > 0)
                if on_page[k]:
                    assert asc[k] == max(1.0, nearest_rank_percentile(maps.asc[rows, cols], pct))
                    assert des[k] == max(0.0, nearest_rank_percentile(maps.des[rows, cols], pct))


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
        left = make_line("l0", 5, 30, 16, 8.0, 3.0)
        for x0, together in ((30, False), (29.5, True)):  # touching, then overlapping by half a pixel
            right = make_line("l1", x0, 55, 20, 8.0, 3.0)
            args = (left.polygon.bounds()[::2], right.polygon.bounds()[::2], 16.0, 20.0)  # (min x, max x)
            assert neighbours_oracle(left, right, maps_with(), BlockParams(), *args) == together
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
            adj = np.zeros((n, n), dtype=bool)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        adj[i, j] = neighbours_oracle(
                            lines[i],
                            lines[j],
                            maps,
                            params,
                            lines[i].polygon.bounds()[::2],
                            lines[j].polygon.bounds()[::2],
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
        assert merge_block_lines(block, (48, 64), BlockParams()) is block

    def test_collinear_fragments_merge(self):
        h = 8.0 + 3.0
        gap = 0.5 * h
        f0 = make_line("f0", 5, 30, 16, 8.0, 3.0)
        f1 = make_line("f1", 30 + gap, 60, 16, 8.0, 3.0)
        block = make_block("b0", [f0, f1])
        merged = merge_block_lines(block, (48, 64), BlockParams())
        assert len(merged.lines) == 1
        line = merged.lines[0]
        assert line.id == "f0"
        assert line.baseline.points[0, 0] == pytest.approx(5.0)
        assert line.baseline.points[-1, 0] == pytest.approx(60.0)
        assert len(line.baseline.points) <= 10

    def test_merged_baseline_honours_max_control_points(self):
        f0 = make_line("f0", 5, 30, 16, 8.0, 3.0)
        f1 = make_line("f1", 35, 60, 16, 8.0, 3.0)
        merged = merge_block_lines(make_block("b0", [f0, f1]), (48, 64), BlockParams(), max_control_points=3)
        assert len(merged.lines) == 1
        assert len(merged.lines[0].baseline.points) <= 3

    def test_stacked_lines_never_merge(self):
        l0 = make_line("l0", 5, 50, 16, 8.0, 3.0)
        l1 = make_line("l1", 5, 50, 26, 6.5, 3.5)
        block = make_block("b0", [l0, l1])
        merged = merge_block_lines(block, (48, 64), BlockParams())
        assert len(merged.lines) == 2

    def test_fixpoint_idempotent(self):
        frags = [make_line(f"f{i}", 5 + 18 * i, 18 + 18 * i, 16, 6.0, 2.0) for i in range(3)]
        block = make_block("b0", frags)
        once = merge_block_lines(block, (48, 64), BlockParams())
        twice = merge_block_lines(once, (48, 64), BlockParams())
        assert len(once.lines) == 1
        assert len(twice.lines) == len(once.lines)

    def test_wide_gap_not_merged(self):
        f0 = make_line("f0", 5, 20, 16, 6.0, 2.0)
        f1 = make_line("f1", 40, 60, 16, 6.0, 2.0)  # gap 20 > 1.0 * 8
        block = make_block("b0", [f0, f1])
        assert len(merge_block_lines(block, (48, 64), BlockParams()).lines) == 2

    def test_pair_on_one_vertical_does_not_merge(self):
        """Two lines whose merged baseline would be a single point qualify by position but stay apart."""
        a, b = (
            TextLine(i, Polyline(pts), 6.0, 2.0, polygon_from_baseline(np.array(pts, float), 6.0, 2.0))
            for i, pts in (("a", [[20, 10], [20, 30]]), ("b", [[20, 12], [20, 28]]))
        )
        block = LineGroup("b0", [a, b])
        assert merge_block_lines(block, (80, 80)) is block


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


class TestTextLineInput:
    """``TextLine``s become fragments where they enter: clustering and merging them gives the groups,
    baselines and polygons of the fragments ``extract_page`` builds for them, and ``TextLine``s come out."""

    @given(st.integers(0, 2**32 - 1))
    def test_same_groups_baselines_and_polygons_as_fragments(self, seed):
        rng = np.random.default_rng(seed)
        shape = (160, 420)
        lines = fragment_chain_block(rng, int(rng.integers(2, 25))).lines
        frags = fragments_of(lines, shape)
        # sparse boundary noise splits some groups; most fragments of a row merge
        maps = maps_with(block=rng.uniform(0, 1, shape) * (rng.uniform(0, 1, shape) < 0.1), h=shape[0], w=shape[1])
        for got, want in zip(cluster_blocks(lines, maps), cluster_blocks(frags, maps), strict=True):
            assert got.id == want.id
            assert [ln.id for ln in got.lines] == [f.id for f in want.lines]
            assert all(type(ln) is TextLine for ln in got.lines)
            merged = merge_block_lines(got, shape).lines
            merged_frags = merge_block_lines(want, shape).lines
            assert len(merged) == len(merged_frags)
            for line, frag in zip(merged, merged_frags):
                assert type(line) is TextLine
                assert (line.id, line.baseline, line.polygon) == (frag.id, frag.baseline, frag.outline())


class TestMergeFixpointOracle:
    @pytest.mark.parametrize("max_control_points", [3, 10])
    def test_matches_restart_scan_on_fragment_chains(self, max_control_points):
        rng = np.random.default_rng(40 + max_control_points)
        params = [BlockParams(), BlockParams(merge_y_tolerance=1.0, merge_x_gap=2.0)]
        merges = 0
        for trial in range(44):
            # the last four blocks, of 60-90 fragments, leave empty slots between
            # live ones, and rows above a merged line gain hits in its column
            block = fragment_chain_block(rng, int(rng.integers(2, 31) if trial < 40 else rng.integers(60, 91)))
            p = params[trial % 2]
            got = merge_block_lines(block, (160, 420), p, max_control_points)
            want = merge_fixpoint_oracle(block, p, max_control_points)
            assert save_layout(make_page([make_block(got.id, got.lines)], 160, 420)) == save_layout(
                make_page([want], 160, 420)
            )
            merges += len(block.lines) - len(got.lines)
        assert merges > 100


def dash_block(rows, per_row):
    """10 px dashes with 2 px gaps, ascender 8 and descender 2, in rows 14 px apart: each row merges into one line."""
    lines = []
    for r in range(rows):
        y = 12.0 + 14 * r
        for k in range(per_row):
            pts = np.array([[2.0 + 12 * k, y], [12.0 + 12 * k, y]])
            lines.append(TextLine(f"r{r}d{k}", Polyline(pts), 8.0, 2.0, polygon_from_baseline(pts, 8.0, 2.0)))
    return LineGroup("b0", lines)


class TestMergeScaling:
    def test_two_thousand_dashes_merge_in_bounded_time(self):
        # A wall-clock bound, not a count: a loop that splices the condition
        # matrix at every merge evaluates the same pair conditions as the
        # slot-keeping one, and its extra cost, n x n copies per merge (9-15 s
        # here on a shared 2-vCPU Xeon, against 0.5-1.1 s), is seen by no counter.
        block = dash_block(40, 50)
        start = time.perf_counter()
        merged = merge_block_lines(block, (14 * 40 + 12, 610), BlockParams())
        elapsed = time.perf_counter() - start
        assert elapsed < 3.0
        assert len(merged.lines) == 40
        for r, line in enumerate(sorted(merged.lines, key=lambda ln: baseline_midpoint(ln.baseline)[1])):
            assert line.id == f"r{r}d0"
            assert np.all(line.baseline.points[:, 1] == 12.0 + 14 * r)
            assert (line.baseline.points[0, 0], line.baseline.points[-1, 0]) == (2.0, 12.0 * 50)


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

    @pytest.mark.parametrize("with_row_below", [True, False])
    def test_merged_line_with_no_area_is_dropped(self, with_row_below):
        # With two control points and the 0th height percentile, two
        # top-row fragments merge into a baseline on y = 0 that keeps the
        # smaller descender, 0: its polygon lies wholly above the page.
        base, asc, des = np.zeros((24, 60)), np.full((24, 60), 20.0), np.zeros((24, 60))
        base[0, 2:21] = des[0, 2:21] = 1.0  # a flat fragment, descender 1
        xs = np.arange(16, 60)
        base[np.rint(np.maximum(0, 12 - 12 * (xs - 16) / 14)).astype(int), xs] = 1.0  # a slope onto row 0, descender 0
        if with_row_below:  # a full row that shares the fragments' group and keeps it
            base[20, :] = des[20, :] = 1.0
        maps = maps_with(base, asc, des, h=24, w=60)
        params = (ExtractParams(max_control_points=2), BlockParams(height_percentile=0))
        ones, zeros = np.ones((24, 60)), np.zeros((24, 60))
        for pred in (
            extract_page(maps, *params),
            detect_multi_orientation({t: rotate_maps(maps, t) for t in (0, 1, 3)}, OrientationMaps(ones, zeros), *params),
        ):
            assert [ln.baseline.points[0, 1] for ln in pred.lines()] == ([20.0] if with_row_below else [])

    def test_small_chunks_equal_one_chunk(self, monkeypatch):
        """Ring checks, penalty strips and heights split into many chunks give the one-chunk layout bytes."""
        pages = [corrupt(render_gt(generate(SynthConfig(seed=s))), 0.1, 3, 0.05, rng_seed=s) for s in range(2)]
        want = [save_layout(extract_page(maps)) for maps in pages]
        chunks, most_chunks = pagelayout.blocks._chunks, {}

        def counted_chunks(sizes, budget):
            ranges = list(chunks(sizes, budget))
            caller = sys._getframe(1).f_code.co_name
            most_chunks[caller] = max(most_chunks.get(caller, 0), len(ranges))
            return ranges

        monkeypatch.setattr(pagelayout.blocks, "_BATCH_ELEMENTS", 300)
        monkeypatch.setattr(pagelayout.blocks, "_chunks", counted_chunks)
        assert [save_layout(extract_page(maps)) for maps in pages] == want
        assert min(most_chunks[f] for f in ("_heights", "_clean_rings", "_strip_sums")) > 10


def hull_of_lines(block):
    """The outline rule, restated: the convex hull of the block's line polygon vertices."""
    return convex_hull(np.vstack([ln.polygon.ring for ln in block.lines]))


class TestEachBlockBuiltOnce:
    """Each output block is outlined once, by ``block_polygon``, and ``TextBlock`` accepts that outline:
    one coverage pass per block, none in the ``blocks`` module and no rejected construction."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = dict.fromkeys(["block_polygon", "rejected", "blocks_passes", "layout_passes"], 0)
        block_polygon = pagelayout.blocks.block_polygon
        post_init = TextBlock.__post_init__

        def counted_block_polygon(lines):
            calls["block_polygon"] += 1
            return block_polygon(lines)

        def counted_post_init(block):
            try:
                post_init(block)
            except LayoutError:
                calls["rejected"] += 1
                raise

        def counted_passes(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)

            return wrapped

        for module in (pagelayout.blocks, pagelayout.orient):
            monkeypatch.setattr(module, "block_polygon", counted_block_polygon)
        monkeypatch.setattr(TextBlock, "__post_init__", counted_post_init)
        for module, key in ((pagelayout.blocks, "blocks_passes"), (pagelayout.layout, "layout_passes")):
            monkeypatch.setattr(module, "intersection_area", counted_passes(key, module.intersection_area))
        return calls

    @staticmethod
    def assert_once_per_block(counts, pred):
        assert pred.blocks
        n = len(pred.blocks)
        assert counts == {"block_polygon": n, "rejected": 0, "blocks_passes": 0, "layout_passes": n}
        for block in pred.blocks:
            assert np.array_equal(block.polygon.ring, hull_of_lines(block).ring)

    def test_noisy_pages(self, counts):
        merges = 0
        for seed in range(4):
            maps = corrupt(render_gt(generate(SynthConfig(seed=seed))), 0.1, 3, 0.05, rng_seed=seed)
            counts.update(dict.fromkeys(counts, 0))
            pred = extract_page(maps)
            self.assert_once_per_block(counts, pred)
            merges += len(extract_page(maps, merge=False).lines()) - len(pred.lines())
        assert merges > 0

    def test_multi_orientation_pages(self, counts):
        for seed in range(2):
            layout = generate(SynthConfig(seed=seed, vertical_line_prob=0.3))
            assert all(np.array_equal(b.polygon.ring, hull_of_lines(b).ring) for b in layout.blocks)
            maps, omaps = render_gt(layout), render_orientation_gt(layout)
            frames = {0: maps, 1: rotate_maps(maps, 1), 3: rotate_maps(maps, 3)}
            counts.update(dict.fromkeys(counts, 0))
            pred = detect_multi_orientation(frames, omaps)
            self.assert_once_per_block(counts, pred)


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


def jittered_block_lines(rng):
    """2-5 lines, one below the other, on jittered multi-point baselines of random lengths and heights."""
    n = int(rng.integers(2, 6))
    y = rng.uniform(10, 20)
    lines = []
    for i in range(n):
        x0 = rng.uniform(0, 30)
        k = int(rng.integers(2, 6))
        xs = np.linspace(x0, x0 + rng.uniform(10, 120), k)
        pts = np.stack([xs, y + rng.uniform(-2, 2, k)], axis=1)
        asc, des = float(rng.uniform(3, 12)), float(rng.uniform(0, 5))
        lines.append(TextLine(f"l{i}", Polyline(pts), asc, des, polygon_from_baseline(pts, asc, des)))
        y += rng.uniform(8, 20)
    return lines


def edge_line(rng, line_id, h=48, w=64):
    """A line on a multi-point baseline inside the page whose polygon reaches past an edge, clipped to it."""
    n = int(rng.integers(2, 6))
    x0 = rng.uniform(0, w - 12)
    xs = np.linspace(x0, rng.uniform(x0 + 4, w), n)
    asc, des = float(rng.uniform(3, 12)), float(rng.uniform(0, 5))
    y = rng.choice([rng.uniform(0.5, 3), rng.uniform(h - 3, h - 0.5)])
    ys = np.clip(y + rng.uniform(-0.4, 0.4, n), 0, h)
    pts = np.stack([xs, ys], axis=1)
    return TextLine(line_id, Polyline(pts), asc, des, clip_to_page(polygon_from_baseline(pts, asc, des), h, w))


class TestBlockPolygon:
    """``block_polygon`` is the convex hull of the member line polygons: it covers each of them."""

    @given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(0, 4))
    def test_covers_every_line(self, seed, n_kinked, n_edge):
        rng = np.random.default_rng(seed)
        lines = jittered_block_lines(rng)
        lines += [kinked_line(rng, f"k{i}") for i in range(n_kinked)]
        lines += [edge_line(rng, f"e{i}") for i in range(n_edge)]
        outline = block_polygon(lines)
        areas = np.array([ln.polygon.area for ln in lines])
        assert (intersection_area(outline, [ln.polygon for ln in lines]) >= (1 - 1e-9) * areas).all()
        TextBlock("b0", lines, outline)

    def test_contains_former_outline(self):
        """The hull holds the former alpha-then-hull outline (``block_polygon_oracle``), and is that outline
        whenever the former rule fell back to the hull."""
        concave = 0
        for seed in range(400):
            lines = jittered_block_lines(np.random.default_rng(seed))
            hull, former = block_polygon(lines), block_polygon_oracle(lines)
            assert intersection_area(hull, [former])[0] >= (1 - 1e-9) * former.area, seed
            concave += former.area < hull.area - 1e-9
            if former.area >= hull.area - 1e-9:
                assert np.array_equal(np.unique(former.ring, axis=0), np.unique(hull.ring, axis=0)), seed
        assert concave > 50  # the former rule kept a concave outline on many blocks


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

    def test_noisy_multi_orientation_candidates_stay_fragments(self, monkeypatch):
        """All candidate pairs' penalties come from one gather, not from ``adjacency_penalty`` calls, and each
        output line is built as a ``TextLine`` once, as output: the block outline reads the mapped-back polygons."""
        counts = {"TextLine": 0, "penalty": 0}
        post_init, penalty = TextLine.__post_init__, pagelayout.blocks.adjacency_penalty

        def counted_post_init(line):
            counts["TextLine"] += 1
            post_init(line)

        def counted_penalty(*args):
            counts["penalty"] += 1
            return penalty(*args)

        for seed in range(4):
            layout = generate(SynthConfig(seed=seed, vertical_line_prob=0.3))
            maps = corrupt(render_gt(layout), 0.1, 3, 0.05, rng_seed=seed)
            frames = {0: maps, 1: rotate_maps(maps, 1), 3: rotate_maps(maps, 3)}
            with monkeypatch.context() as m:
                m.setattr(TextLine, "__post_init__", counted_post_init)
                m.setattr(pagelayout.blocks, "adjacency_penalty", counted_penalty)
                counts.update(TextLine=0, penalty=0)
                pred = detect_multi_orientation(frames, render_orientation_gt(layout))
            assert len(pred.lines()) > 0
            assert counts["penalty"] == 0
            assert counts["TextLine"] == len(pred.lines())

    def test_up_normals_per_polygon_and_line_not_per_pair(self, monkeypatch):
        """Normals are computed once for each line as it is made (a batch of baselines at a time) and once per
        ``polygon_from_baseline`` call; the penalty strips of all pairs read the chains made then."""
        normals = pagelayout.geometry._vertex_up_normals
        polygon = pagelayout.blocks.polygon_from_baseline
        fragments = pagelayout.blocks._fragments
        strip_sums = pagelayout.blocks._strip_sums
        counts = {"normals": 0, "polygons": 0, "made": 0, "strips": 0}

        def counted_normals(points):
            counts["normals"] += 1 if points.ndim == 2 else len(points)  # one per baseline
            return normals(points)

        def counted_polygon(*args):
            counts["polygons"] += 1
            return polygon(*args)

        def counted_fragments(ids, baselines, *args):
            counts["made"] += len(baselines)
            return fragments(ids, baselines, *args)

        def counted_strips(block, chains, *args):
            counts["strips"] += len(chains)
            return strip_sums(block, chains, *args)

        for seed in range(2):
            maps = corrupt(render_gt(generate(SynthConfig(seed=seed))), 0.1, 3, 0.05, rng_seed=seed)
            with monkeypatch.context() as m:
                m.setattr(pagelayout.geometry, "_vertex_up_normals", counted_normals)
                m.setattr(pagelayout.blocks, "polygon_from_baseline", counted_polygon)
                m.setattr(pagelayout.blocks, "_fragments", counted_fragments)
                m.setattr(pagelayout.blocks, "_strip_sums", counted_strips)
                counts.update(dict.fromkeys(counts, 0))
                extract_page(maps)
            assert counts["strips"] > counts["made"] > 0  # more strips than lines: lines take part in many pairs
            assert counts["normals"] == counts["polygons"] + counts["made"]

    def test_polygons_and_text_lines_only_for_lines_that_come_out(self, monkeypatch):
        """``extract_page`` builds a ``TextLine`` for each output line only, and a line polygon only for
        each output line and each ring that needs repair (or clipping): not for fragments merged away."""
        post_init, polygon_init = TextLine.__post_init__, pagelayout.geometry.Polygon.__init__
        counts = {"text_lines": 0, "polygons": 0}
        inside = [0]  # depth inside a call whose polygons are counted as one, or not at all

        def counted_post_init(line):
            counts["text_lines"] += 1
            post_init(line)

        def counted_polygon_init(polygon, *args, **kwargs):
            counts["polygons"] += not inside[0]
            polygon_init(polygon, *args, **kwargs)

        def as_one(fn, counted):
            def wrapped(*args):
                counts["polygons"] += counted and not inside[0]
                inside[0] += 1
                try:
                    return fn(*args)
                finally:
                    inside[0] -= 1

            return wrapped

        def needs_repair(pts, asc, des, h, w):
            top, bottom = offset_chains(pts, asc, des)
            try:
                polygon = Polygon(np.vstack([top, bottom[::-1]]))
            except ValueError:
                return True
            x0, y0, x1, y1 = polygon.bounds()
            return not _contains_within(polygon, pts, 0.45) or min(x0, y0) < 0 or x1 > w or y1 > h

        for seed in range(4):
            maps = corrupt(render_gt(generate(SynthConfig(seed=seed))), 0.1, 3, 0.05, rng_seed=seed)
            detected = {f"l{i}": bl for i, bl in enumerate(detect_baselines(maps))}
            repaired = 0
            for line_id, bl in detected.items():
                try:
                    line = line_polygon(bl, maps)
                except ValueError as exc:  # out of bounds, or no area left on the page after clipping
                    repaired += "out of bounds" not in str(exc)
                    continue
                repaired += needs_repair(bl.points, line.ascender, line.descender, *maps.shape)
            with monkeypatch.context() as m:
                m.setattr(TextLine, "__post_init__", counted_post_init)
                m.setattr(pagelayout.geometry.Polygon, "__init__", counted_polygon_init)
                m.setattr(pagelayout.blocks, "polygon_from_baseline", as_one(polygon_from_baseline, True))
                m.setattr(pagelayout.blocks, "clip_to_page", as_one(pagelayout.blocks.clip_to_page, False))
                m.setattr(pagelayout.blocks, "block_polygon", as_one(block_polygon, False))
                counts.update(text_lines=0, polygons=0)
                lines = extract_page(maps).lines()
            merged = [ln for ln in lines if ln.baseline != detected[ln.id]]
            repaired += sum(needs_repair(ln.baseline.points, ln.ascender, ln.descender, *maps.shape) for ln in merged)
            assert len(merged) > 0 and len(lines) < len(detected) / 2
            assert counts["text_lines"] == len(lines)
            assert counts["polygons"] <= len(lines) + repaired


class TestPolygonFromBaseline:
    def test_simple_ring_that_misses_the_baseline_gives_way(self):
        """A simple offset ring that does not hold its baseline falls back like a non-simple one."""
        pts = np.array([[20.41, 45.75], [23.06, 42.87], [25.88, 45.59], [25.91, 43.91]])
        top, bottom = offset_chains(pts, 7.15, 2.52)
        ring = Polygon(np.vstack([top, bottom[::-1]]))  # simple
        assert not _contains_within(ring, pts, 0.5)
        polygon = polygon_from_baseline(pts, 7.15, 2.52)
        assert _contains_within(polygon, pts, 0.45)
        TextLine("l", Polyline(pts), 7.15, 2.52, polygon)

    @given(st.integers(0, 2**32 - 1))
    def test_every_polygon_holds_its_baseline(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            xs = np.sort(rng.uniform(0, rng.uniform(2, 40), n)) + np.arange(n) * rng.choice([1e-3, 0.05, 1.0])
            pts = np.stack([xs, rng.uniform(-1, 1, n) * rng.choice([0.5, 3.0, 12.0])], axis=1)
            polygon = polygon_from_baseline(pts, float(rng.uniform(1, 14)), float(rng.uniform(0, 7)))
            assert _contains_within(polygon, pts, 0.45)


# offset rings whose two chains both rise strictly in x, yet cross each other: Polygon rejects them
MONOTONE_CROSSING = [
    (
        [[2.893981, 34.513559], [9.135417, 31.141808], [13.982485, 25.204993], [15.273939, 34.663208],
         [16.046531, 35.403142]],
        3.276,
        0.6177,
    ),
    (
        [[0.688509, 30.982246], [4.244111, 29.786232], [5.275032, 28.291434], [8.396514, 29.522013],
         [11.679951, 29.695585], [12.100362, 30.566152]],
        12.4744,
        0.0425,
    ),
    (
        [[0.153967, 29.849379], [6.395636, 29.83862], [20.986653, 29.726151], [21.061603, 30.197482],
         [22.894126, 30.204567]],
        2.8331,
        2.4317,
    ),
]


def fragments_of(lines, shape=(48, 64)):
    """``extract_page``'s fragments of these lines' baselines and heights, None where nothing is left on the page."""
    heights = np.array([(ln.ascender, ln.descender) for ln in lines]).reshape(-1, 2)
    return pagelayout.blocks._fragments([ln.id for ln in lines], [ln.baseline for ln in lines], *heights.T, shape)


class TestFragments:
    """A fragment whose ring needs no repair and lies on the page skips building its polygon until it comes
    out; its x-extent and polygon are then those ``clip_to_page(polygon_from_baseline(...))`` gives."""

    @staticmethod
    def check(lines, shape=(48, 64)):
        frags = fragments_of(lines, shape)
        for line, frag in zip(lines, frags):
            pts, a, d = line.baseline.points, line.ascender, line.descender
            try:
                want = clip_to_page(polygon_from_baseline(pts, a, d), *shape)
            except ValueError:
                assert frag is None
                continue
            x0, _, x1, _ = want.bounds()
            assert frag.x_extent == (x0, x1)
            if frag.polygon is None:  # an output line of its own ring: a valid TextLine
                assert np.array_equal(frag.text_line().polygon.ring, want.ring)
            else:
                assert np.array_equal(frag.polygon.ring, want.ring)
            for got, chain in zip(frag.chains_by_x, offset_chains(pts, a, d)):
                assert np.array_equal(got, chain[np.argsort(chain[:, 0], kind="stable")])
        return frags

    @staticmethod
    def crossing_lines(rng, k):
        """``k`` lines on the monotone crossing baselines, shifted at random."""
        lines = []
        for n, (pts, a, d) in enumerate(MONOTONE_CROSSING[:k]):
            pts = np.array(pts) + rng.uniform(0, 20, 2)
            lines.append(TextLine(f"c{n}", Polyline(pts), a, d, polygon_from_baseline(pts, a, d)))
        return lines

    def test_monotone_chains_that_cross_are_repaired(self):
        frags = self.check(self.crossing_lines(np.random.default_rng(0), 3))
        assert all(f.polygon is not None for f in frags)

    @given(st.integers(0, 2**32 - 1))
    def test_fast_path_equals_the_built_polygon(self, seed):
        rng = np.random.default_rng(seed)
        lines = [kinked_line(rng, f"l{i}") for i in range(int(rng.integers(1, 40)))]
        # with some crossing rings among rings of as many points
        self.check(lines + self.crossing_lines(rng, int(rng.integers(0, 4))))

    def test_both_paths_taken(self):
        rng = np.random.default_rng(35)
        frags = [f for f in self.check([kinked_line(rng, f"l{i}") for i in range(400)]) if f is not None]
        built = sum(f.polygon is not None for f in frags)
        assert built > 50 and len(frags) - built > 50


class TestPairPenalties:
    """All candidate pairs' penalties in one gather equal one ``adjacency_penalty`` call per pair, bit for bit."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 2.0, 2.5, 3.0, 4.0, 5.0]), st.booleans())
    def test_batch_equals_one_pair_calls(self, seed, thickness, as_fragments):
        rng = np.random.default_rng(seed)
        # kinked lines reach past every page edge, so strips are clipped in rows and in columns
        lines = [kinked_line(rng, f"l{i}") for i in range(int(rng.integers(2, 12)))]
        if as_fragments:
            lines = [f for f in fragments_of(lines) if f is not None]
        maps = maps_with(block=rng.uniform(0, 1, (48, 64)) * (rng.uniform(0, 1, (48, 64)) < 0.6))
        params = BlockParams(penalty_area_thickness=thickness)
        pairs = [(a, b) for a in lines for b in lines if a is not b]
        uppers, lowers = ([pagelayout.blocks._fragment_of(ln) for ln in side] for side in zip(*pairs))
        penalties, shared = pagelayout.blocks._pair_penalties(maps, uppers, lowers, thickness)
        for (a, b), p, ok in zip(pairs, penalties, shared):
            if ok:
                assert adjacency_penalty(a, b, maps, params) == (p[0], p[1])
            else:
                with pytest.raises(ValueError, match="not neighbours"):
                    adjacency_penalty(a, b, maps, params)
