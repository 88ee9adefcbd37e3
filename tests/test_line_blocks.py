import numpy as np
import pytest

from pagelayout.blocks import (
    BlockParams,
    adjacency_penalty,
    cluster_blocks,
    extract_page,
    line_polygon,
    merge_block_lines,
    nearest_rank_percentile,
)
from pagelayout.channels import ChannelMaps
from pagelayout.geometry import Polyline
from pagelayout.layout import baseline_midpoint
from pagelayout.render import render_gt

from conftest import make_block, make_line, make_page
from oracles import closure_partition_oracle, percentile_oracle


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
