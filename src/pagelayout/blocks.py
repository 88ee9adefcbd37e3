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

import numpy as np
from scipy.sparse import coo_matrix, csgraph

from ._raster import polyline_pixels
from .baselines import ExtractParams, detect_baselines
from .channels import ChannelMaps
from .geometry import (
    Polygon,
    Polyline,
    _points_in_ring,
    _points_ring_distance,
    _segments_cross,
    alpha_shape,
    convex_hull,
    horizontal_overlap,
    intersection_area,
)
from .layout import PageLayout, TextBlock, TextLine, baseline_midpoint

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


def _vertex_up_normals(points: np.ndarray) -> np.ndarray:
    """Per-vertex unit normals pointing to the ascender side.

    Interior vertices use the angle bisector of the adjacent segments so
    offsets at kinks do not self-intersect.
    """
    deltas = np.diff(points, axis=0)
    lens = np.hypot(deltas[:, 0], deltas[:, 1])
    units = deltas / lens[:, None]
    tangents = np.empty_like(points)
    tangents[0] = units[0]
    tangents[-1] = units[-1]
    if len(points) > 2:
        mids = units[:-1] + units[1:]
        norms = np.hypot(mids[:, 0], mids[:, 1])
        bad = norms < 1e-9
        mids[bad] = units[1:][bad]
        norms = np.hypot(mids[:, 0], mids[:, 1])
        tangents[1:-1] = mids / norms[:, None]
    return np.stack([tangents[:, 1], -tangents[:, 0]], axis=1)


def offset_polyline(points: np.ndarray, distance: float) -> np.ndarray:
    """Offset along the per-vertex up-normal; negative distances go down."""
    return points + distance * _vertex_up_normals(points)


def _drop_self_intersections(ring: np.ndarray) -> np.ndarray:
    """Remove vertices until the ring is simple (best-effort cleaning)."""

    def first_crossing(r: np.ndarray):
        n = len(r)
        for i in range(n):
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                if _segments_cross(r[i], r[(i + 1) % n], r[j], r[(j + 1) % n]):
                    return i, j
        return None

    work = ring
    for _ in range(len(ring)):
        if len(work) <= 3:
            break
        hit = first_crossing(work)
        if hit is None:
            break
        _, j = hit
        work = np.delete(work, (j + 1) % len(work), axis=0)
    return work


def _contains_within(poly: Polygon, pts: np.ndarray, tol: float = 0.45) -> bool:
    outside = ~_points_in_ring(poly.ring, pts)
    return bool((_points_ring_distance(poly.ring, pts[outside]) <= tol).all())


def polygon_from_baseline(points: np.ndarray, ascender: float, descender: float) -> Polygon:
    """Line polygon: baseline offset up by the ascender, down by the descender.

    Rings that self-intersect at kinks are cleaned by vertex dropping; if
    cleaning pushes the baseline outside, the convex hull of the offset ring
    is used instead (the baseline is a convex combination of the two offset
    chains, so the hull always contains it).
    """
    pts = np.asarray(points, dtype=np.float64)
    top = offset_polyline(pts, float(ascender))
    bottom = offset_polyline(pts, -float(descender))
    ring = np.vstack([top, bottom[::-1]])
    try:
        return Polygon(ring)
    except ValueError:
        pass
    try:
        cleaned = Polygon(_drop_self_intersections(ring), check_simple=False)
        if _contains_within(cleaned, pts):
            return cleaned
    except ValueError:
        pass
    return convex_hull(ring)


def line_polygon(
    baseline: Polyline, maps: ChannelMaps, params: BlockParams | None = None, line_id: str = "line"
) -> TextLine:
    """Build a text line from a baseline and the height channels."""
    params = params or BlockParams()
    rows, cols = polyline_pixels(baseline.points, maps.shape)
    if len(rows) == 0:
        raise ValueError("baseline out of bounds")
    asc = max(1.0, nearest_rank_percentile(maps.asc[rows, cols], params.height_percentile))
    des = max(0.0, nearest_rank_percentile(maps.des[rows, cols], params.height_percentile))
    return TextLine(line_id, baseline, asc, des, polygon_from_baseline(baseline.points, asc, des))


def _x_interval(line: TextLine) -> tuple[float, float]:
    x0, _, x1, _ = line.polygon.bounds()
    return (x0, x1)


def _strip_sum(maps: ChannelMaps, offset_pts: np.ndarray, cols: np.ndarray, thickness: float) -> float:
    """Sum of the block channel over a thickness-tall band along a polyline."""
    order = np.argsort(offset_pts[:, 0], kind="stable")
    px = offset_pts[order, 0]
    py = offset_pts[order, 1]
    ys = np.interp(cols, px, py)
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
    up_strip = offset_polyline(upper.baseline.points, -upper.descender)
    low_strip = offset_polyline(lower.baseline.points, lower.ascender)
    p_upper = _strip_sum(maps, up_strip, cols, params.penalty_area_thickness) / len(cols)
    p_lower = _strip_sum(maps, low_strip, cols, params.penalty_area_thickness) / len(cols)
    return (p_upper, p_lower)


def _neighbours(
    a: TextLine,
    b: TextLine,
    maps: ChannelMaps,
    params: BlockParams,
    xa: tuple[float, float],
    xb: tuple[float, float],
    ya: float,
    yb: float,
) -> bool:
    if horizontal_overlap(xa, xb) <= 0:
        return False
    if abs(ya - yb) >= max(a.height, b.height):
        return False
    upper, lower = (a, b) if ya <= yb else (b, a)
    try:
        p_up, p_low = adjacency_penalty(upper, lower, maps, params)
    except ValueError:
        return False
    return p_up < params.penalty_threshold and p_low < params.penalty_threshold


def block_polygon(lines: list[TextLine]) -> Polygon:
    """Alpha-shape outline of all member line polygon vertices.

    alpha = 1 / (2 * median line height); falls back to the convex hull when
    the alpha complex disconnects or fails to cover some member line.
    """
    verts = np.vstack([line.polygon.ring for line in lines])
    med_h = float(np.median([line.height for line in lines]))
    shape = alpha_shape(verts, 1.0 / (2.0 * max(med_h, 1.0)))
    for line in lines:
        if intersection_area(shape, line.polygon) < 0.97 * line.polygon.area:
            return convex_hull(verts)
    return shape


def cluster_blocks(
    lines: list[TextLine], maps: ChannelMaps, params: BlockParams | None = None
) -> list[TextBlock]:
    """Partition lines into blocks: connected components of the neighbour graph."""
    params = params or BlockParams()
    n = len(lines)
    x_ints = [_x_interval(line) for line in lines]
    mid_ys = [baseline_midpoint(line.baseline)[1] for line in lines]
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if _neighbours(lines[i], lines[j], maps, params, x_ints[i], x_ints[j], mid_ys[i], mid_ys[j])
    ]
    src, dst = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    graph = coo_matrix((np.ones(len(edges)), (src, dst)), shape=(n, n))
    _, labels = csgraph.connected_components(graph, directed=False)

    groups: dict[int, list[TextLine]] = {}
    for i in range(n):
        groups.setdefault(int(labels[i]), []).append(lines[i])

    def group_key(members: list[TextLine]):
        mids = [baseline_midpoint(ln.baseline) for ln in members]
        return (min(m[1] for m in mids), min(m[0] for m in mids))

    blocks = []
    for k, members in enumerate(sorted(groups.values(), key=group_key)):
        blocks.append(TextBlock(f"b{k}", members, block_polygon(members)))
    return blocks


def _baseline_x_interval(line: TextLine) -> tuple[float, float]:
    xs = line.baseline.points[:, 0]
    return (float(xs.min()), float(xs.max()))


def _merge_pair(a: TextLine, b: TextLine, params: BlockParams, max_points: int) -> TextLine:
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
    first = a if _baseline_x_interval(a)[0] <= _baseline_x_interval(b)[0] else b
    baseline = np.stack([xs, ys], axis=1)
    return TextLine(first.id, Polyline(baseline), asc, des, polygon_from_baseline(baseline, asc, des))


def merge_block_lines(
    block: TextBlock,
    params: BlockParams | None = None,
    max_control_points: int = ExtractParams.max_control_points,
) -> TextBlock:
    """Merge horizontally adjacent in-block fragments with similar vertical position.

    Repeats until no pair with baseline-midpoint |dy| within
    ``merge_y_tolerance`` x min height and horizontal gap within
    ``merge_x_gap`` x min height remains (a fixpoint).  A merged baseline
    is resampled to at most ``max_control_points`` points.
    """
    params = params or BlockParams()
    lines = list(block.lines)
    changed = True
    while changed:
        changed = False
        lines.sort(key=lambda ln: (_baseline_x_interval(ln)[0], ln.id))
        mids = [baseline_midpoint(ln.baseline)[1] for ln in lines]
        xints = [_baseline_x_interval(ln) for ln in lines]
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                a, b = lines[i], lines[j]
                h_min = min(a.height, b.height)
                dy = abs(mids[i] - mids[j])
                xa, xb = xints[i], xints[j]
                gap = max(0.0, max(xa[0], xb[0]) - min(xa[1], xb[1]))
                if dy <= params.merge_y_tolerance * h_min and gap <= params.merge_x_gap * h_min:
                    merged = _merge_pair(a, b, params, max_control_points)
                    lines = [ln for k, ln in enumerate(lines) if k not in (i, j)] + [merged]
                    changed = True
                    break
            if changed:
                break
    if len(lines) == len(block.lines):
        return block
    return TextBlock(block.id, lines, block_polygon(lines))


def extract_page(
    maps: ChannelMaps,
    extract_params: ExtractParams | None = None,
    block_params: BlockParams | None = None,
    merge: bool = True,
    page_id: str = "page",
) -> PageLayout:
    """Full single-orientation pipeline: baselines, line polygons, blocks."""
    extract_params = extract_params or ExtractParams()
    block_params = block_params or BlockParams()
    lines = []
    for i, bl in enumerate(detect_baselines(maps, extract_params)):
        try:
            lines.append(line_polygon(bl, maps, block_params, line_id=f"l{i}"))
        except ValueError:
            logger.debug("dropping out-of-bounds baseline %d", i)
    blocks = cluster_blocks(lines, maps, block_params)
    if merge:
        blocks = [merge_block_lines(b, block_params, extract_params.max_control_points) for b in blocks]
    return PageLayout(page_id, maps.height, maps.width, blocks)
