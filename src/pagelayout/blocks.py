"""Text-line polygons from baselines plus height channels, and bottom-up
clustering of lines into blocks guided by the block boundary channel.

Heights come from the nearest-rank 75th percentile of the height channels
sampled at baseline pixels; polygons are built by offsetting the baseline
along locally perpendicular directions.  Two lines join the same block when
they overlap horizontally, their baselines are vertically closer than the
taller of the two line heights, and the boundary-channel penalty strips
between them both stay below threshold.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix, csgraph

from ._raster import polyline_pixels
from .baselines import ExtractParams, detect_baselines
from .channels import ChannelMaps
from .geometry import (
    Polygon,
    Polyline,
    _contains_within,
    _edge_crossings,
    _ring_crossings,
    alpha_shape,
    clip_to_page,
    convex_hull,
    offset_chains,
)
from .geometry import intersection_area  # noqa: F401  (perfbench's traced run wraps blocks.intersection_area)
from .layout import LayoutError, PageLayout, TextBlock, TextLine, baseline_midpoint

logger = logging.getLogger("pagelayout.blocks")


@dataclass(frozen=True)
class BlockParams:
    height_percentile: float = 75.0
    penalty_area_thickness: float = 3.0
    penalty_threshold: float = 0.3
    merge_y_tolerance: float = 0.5
    merge_x_gap: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.height_percentile <= 100.0):
            raise ValueError("height_percentile must be in [0, 100]")
        if self.penalty_area_thickness < 1.0:
            raise ValueError("penalty_area_thickness must be >= 1")


def nearest_rank_percentile(values, pct: float) -> float:
    """The ceil(pct/100 * n)-th smallest value (nearest-rank percentile)."""
    arr = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if len(arr) == 0:
        raise ValueError("empty sample")
    k = int(math.ceil(pct * len(arr) / 100.0 - 1e-9))
    return float(arr[max(1, k) - 1])


def _drop_self_intersections(ring: np.ndarray) -> np.ndarray:
    """Remove vertices until the ring is simple (best-effort cleaning).

    Takes the first crossing edge pair (i, j), i < j in row-major order,
    drops vertex j + 1 and repeats, at most ``len(ring)`` times and never
    below 3 vertices.  A drop merges the two edges at that vertex into one,
    so the crossing matrix loses that row and column and only the merged
    edge's row and column are recomputed; the other pairs keep their
    endpoints and hence their entries.
    """
    work = ring
    cross = _ring_crossings(work)
    for _ in range(len(ring)):
        n = len(work)
        # cross is symmetric, so its first True in row-major order has i < j
        first = int(cross.argmax())
        if n <= 3 or not cross.flat[first]:
            break
        dropped = (first % n + 1) % n
        keep = np.arange(n) != dropped
        work = work[keep]
        cross = cross[keep][:, keep]
        merged = (dropped - 1) % len(work)
        cross[merged] = cross[:, merged] = _edge_crossings(work, merged)
    return work


def polygon_from_baseline(points: np.ndarray, ascender: float, descender: float) -> Polygon:
    """Line polygon: baseline offset up by the ascender, down by the descender.

    Rings that self-intersect at kinks are cleaned by vertex dropping; if
    cleaning pushes the baseline outside, the convex hull of the offset ring
    is used instead (the baseline is a convex combination of the two offset
    chains, so the hull always contains it).
    """
    pts = np.asarray(points, dtype=np.float64)
    top, bottom = offset_chains(pts, float(ascender), float(descender))
    ring = np.vstack([top, bottom[::-1]])
    try:
        return Polygon(ring)
    except ValueError:
        pass
    try:
        cleaned = Polygon(_drop_self_intersections(ring), check_simple=False)
        if _contains_within(cleaned, pts, 0.45):  # inside TextLine's 0.5 with a margin
            return cleaned
    except ValueError:
        pass
    return convex_hull(ring)


def line_polygon(
    baseline: Polyline, maps: ChannelMaps, params: BlockParams | None = None, line_id: str = "line"
) -> TextLine:
    """Build a text line from a baseline and the height channels, its polygon clipped to the frame."""
    params = params or BlockParams()
    rows, cols = polyline_pixels(baseline.points, maps.shape)
    if len(rows) == 0:
        raise ValueError("baseline out of bounds")
    asc = max(1.0, nearest_rank_percentile(maps.asc[rows, cols], params.height_percentile))
    des = max(0.0, nearest_rank_percentile(maps.des[rows, cols], params.height_percentile))
    polygon = clip_to_page(polygon_from_baseline(baseline.points, asc, des), *maps.shape)
    return TextLine(line_id, baseline, asc, des, polygon)


def _x_interval(line: TextLine) -> tuple[float, float]:
    x0, _, x1, _ = line.polygon.bounds()
    return (x0, x1)


def _strip_sum(maps: ChannelMaps, chain: np.ndarray, cols: np.ndarray, thickness: float) -> float:
    """Sum of the block channel over a thickness-tall band along a polyline sorted by x."""
    ys = np.interp(cols, chain[:, 0], chain[:, 1])
    half = thickness / 2.0
    h = maps.block.shape[0]
    r0 = np.ceil(ys - half - 1e-9).astype(np.int64)
    r1 = np.floor(ys + half + 1e-9).astype(np.int64)
    depth = int((r1 - r0).max()) + 1
    rows = r0[None, :] + np.arange(depth)[:, None]
    valid = (rows <= r1[None, :]) & (rows >= 0) & (rows < h)
    vals = maps.block[np.clip(rows, 0, h - 1), np.broadcast_to(cols, rows.shape)]
    return float(np.where(valid, vals, 0.0).sum())


def adjacency_penalty(
    upper: TextLine, lower: TextLine, maps: ChannelMaps, params: BlockParams | None = None
) -> tuple[float, float]:
    """Boundary-channel penalties between two horizontally overlapping lines.

    Two strips span the horizontal intersection of the lines: one along the
    upper line's descender line, one along the lower line's ascender line.
    Each penalty is the strip sum divided by the strip length in pixels.
    The chains come from each line's ``chains_by_x``, built once per line
    however many pairs it takes part in.
    """
    params = params or BlockParams()
    xa = _x_interval(upper)
    xb = _x_interval(lower)
    lo = max(xa[0], xb[0])
    hi = min(xa[1], xb[1])
    cols = np.arange(int(math.ceil(lo)), int(math.floor(hi)) + 1)
    cols = cols[(cols >= 0) & (cols < maps.width)]
    if hi - lo <= 0 or len(cols) == 0:
        raise ValueError("not neighbours")
    p_upper = _strip_sum(maps, upper.chains_by_x[1], cols, params.penalty_area_thickness) / len(cols)
    p_lower = _strip_sum(maps, lower.chains_by_x[0], cols, params.penalty_area_thickness) / len(cols)
    return (p_upper, p_lower)


def block_polygon(lines: list[TextLine]) -> Polygon:
    """Alpha-shape outline of the member line polygon vertices, alpha = 1 / (2 * median line height)."""
    verts = np.vstack([line.polygon.ring for line in lines])
    med_h = float(np.median([line.height for line in lines]))
    return alpha_shape(verts, 1.0 / (2.0 * max(med_h, 1.0)))


def outline_block(block_id: str, lines: list[TextLine]) -> TextBlock:
    """The block on :func:`block_polygon`, or on the line vertices' convex hull if ``TextBlock`` rejects that."""
    try:
        return TextBlock(block_id, lines, block_polygon(lines))
    except LayoutError:
        return TextBlock(block_id, lines, convex_hull(np.vstack([line.polygon.ring for line in lines])))


class LineGroup(NamedTuple):
    """The lines of one block, before its outline is built."""

    id: str
    lines: list[TextLine]


def cluster_blocks(
    lines: list[TextLine], maps: ChannelMaps, params: BlockParams | None = None
) -> list[LineGroup]:
    """Partition lines into blocks: connected components of the neighbour graph.

    Pairs that overlap horizontally and whose baseline midpoints are closer
    in y than the taller line's height, found for all pairs at once, are
    edges when both boundary penalties of :func:`adjacency_penalty` pass.
    """
    params = params or BlockParams()
    n = len(lines)
    x0, x1 = np.array([_x_interval(line) for line in lines]).reshape(-1, 2).T
    mx, y = np.array([baseline_midpoint(line.baseline) for line in lines]).reshape(-1, 2).T
    h = np.array([line.height for line in lines])
    near = (np.minimum.outer(x1, x1) - np.maximum.outer(x0, x0) > 0) & (
        np.abs(np.subtract.outer(y, y)) < np.maximum.outer(h, h)
    )
    edges = []
    for i, j in zip(*np.nonzero(np.triu(near, 1))):
        upper, lower = (lines[i], lines[j]) if y[i] <= y[j] else (lines[j], lines[i])
        try:
            if max(adjacency_penalty(upper, lower, maps, params)) < params.penalty_threshold:
                edges.append((i, j))
        except ValueError:  # no shared pixel column on the page
            pass
    src, dst = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    graph = coo_matrix((np.ones(len(edges)), (src, dst)), shape=(n, n))
    _, labels = csgraph.connected_components(graph, directed=False)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(int(labels[i]), []).append(i)
    # top to bottom by the highest baseline midpoint, ties by the leftmost one
    order = sorted(groups.values(), key=lambda idx: (y[idx].min(), mx[idx].min()))
    return [LineGroup(f"b{k}", [lines[i] for i in idx]) for k, idx in enumerate(order)]


class _Fragment(NamedTuple):
    """A line while fragments merge; ``line`` is the original, None once merged."""

    id: str
    baseline: Polyline
    ascender: float
    descender: float
    line: TextLine | None = None

    def columns(self) -> tuple[float, float, float, float]:
        """(left x, right x, midpoint y, height): what the merge test reads."""
        xs = self.baseline.points[:, 0]
        return (float(xs.min()), float(xs.max()), baseline_midpoint(self.baseline)[1], self.ascender + self.descender)


def _merge_pair(a: _Fragment, b: _Fragment, params: BlockParams, max_points: int) -> _Fragment:
    """Merge two fragments into one with ``a``'s id; ``a`` starts no later than ``b``."""
    pts = np.vstack([a.baseline.points, b.baseline.points])
    order = np.argsort(pts[:, 0], kind="stable")
    px = pts[order, 0]
    py = pts[order, 1]
    keep = np.concatenate([[True], np.diff(px) > 1e-9])
    px, py = px[keep], py[keep]
    width = px[-1] - px[0]
    n = max(2, min(max_points, int(round(width)) + 1))
    xs = np.linspace(px[0], px[-1], n)
    ys = np.interp(xs, px, py)
    asc = nearest_rank_percentile([a.ascender, b.ascender], params.height_percentile)
    des = nearest_rank_percentile([a.descender, b.descender], params.height_percentile)
    return _Fragment(a.id, Polyline(np.stack([xs, ys], axis=1)), asc, des)


def _merge_condition(rows: np.ndarray, cols: np.ndarray, params: BlockParams) -> np.ndarray:
    """Merge test of every row fragment against every column fragment, from their ``columns()``."""
    h_min = np.minimum.outer(rows[:, 3], cols[:, 3])
    dy = np.abs(np.subtract.outer(rows[:, 2], cols[:, 2]))
    gap = np.maximum(0.0, np.maximum.outer(rows[:, 0], cols[:, 0]) - np.minimum.outer(rows[:, 1], cols[:, 1]))
    return (dy <= params.merge_y_tolerance * h_min) & (gap <= params.merge_x_gap * h_min)


def merge_block_lines(
    block: LineGroup | TextBlock,
    shape: tuple[int, int],
    params: BlockParams | None = None,
    max_control_points: int = ExtractParams.max_control_points,
) -> LineGroup | TextBlock:
    """Merge horizontally adjacent in-block fragments with similar vertical position.

    Two lines qualify when their baseline-midpoint |dy| is within
    ``merge_y_tolerance`` x min height and their horizontal gap within
    ``merge_x_gap`` x min height.  With the lines sorted by (left baseline
    x, id), the first qualifying pair (i, j) in row-major order merges until
    no pair qualifies (a fixpoint).  The merged line starts where line i
    does and keeps its id, hence its sort key: it takes slot i, and slot j
    empties.  A merged baseline is resampled to at most
    ``max_control_points`` points.  Reads only ``block.id`` and
    ``block.lines``; returns ``block`` if nothing merges.

    The pair test depends only on the two lines, so the condition matrix
    (its upper triangle) is built once; a merge recomputes row and column i
    and clears j.  Line polygons are built once, for the merged lines that
    remain, clipped to the frame ``shape`` the lines were built in; a merged
    line with no area left there is dropped.
    """
    params = params or BlockParams()
    if len(block.lines) < 2:
        return block
    frags = [_Fragment(ln.id, ln.baseline, ln.ascender, ln.descender, ln) for ln in block.lines]
    frags.sort(key=lambda f: (float(f.baseline.points[:, 0].min()), f.id))
    cols = np.array([f.columns() for f in frags])
    cond = np.triu(_merge_condition(cols, cols, params), 1)
    live = np.ones(len(frags), dtype=bool)
    while True:
        i, j = divmod(int(cond.argmax()), len(frags))
        if not cond[i, j]:
            break
        frags[i] = _merge_pair(frags[i], frags[j], params, max_control_points)
        frags[j] = None
        live[j] = False
        cond[j] = cond[:, j] = False
        cols[i] = frags[i].columns()
        hits = _merge_condition(cols[i : i + 1], cols, params)[0] & live
        cond[:i, i] = hits[:i]
        cond[i, i + 1 :] = hits[i + 1 :]
    if live.all():
        return block
    lines = []
    for f in filter(None, frags):  # the slots left live
        if f.line is not None:
            lines.append(f.line)
            continue
        try:
            polygon = clip_to_page(polygon_from_baseline(f.baseline.points, f.ascender, f.descender), *shape)
            lines.append(TextLine(f.id, f.baseline, f.ascender, f.descender, polygon))
        except ValueError:
            logger.debug("dropping merged line %s: no polygon on the page", f.id)
    return LineGroup(block.id, lines)


def extract_page(
    maps: ChannelMaps,
    extract_params: ExtractParams | None = None,
    block_params: BlockParams | None = None,
    merge: bool = True,
    page_id: str = "page",
) -> PageLayout:
    """Full single-orientation pipeline: baselines, line polygons, line groups, one block per group."""
    extract_params = extract_params or ExtractParams()
    block_params = block_params or BlockParams()
    lines = []
    for i, bl in enumerate(detect_baselines(maps, extract_params)):
        try:
            lines.append(line_polygon(bl, maps, block_params, line_id=f"l{i}"))
        except ValueError:
            logger.debug("dropping baseline %d: out of bounds or no polygon on the page", i)
    groups = cluster_blocks(lines, maps, block_params)
    if merge:
        groups = [merge_block_lines(g, maps.shape, block_params, extract_params.max_control_points) for g in groups]
    blocks = [outline_block(g.id, g.lines) for g in groups if g.lines]
    return PageLayout(page_id, maps.height, maps.width, blocks)
