"""Text-line polygons from baselines plus height channels, and bottom-up
clustering of lines into blocks guided by the block boundary channel.

Heights come from the nearest-rank 75th percentile of the height channels
sampled at baseline pixels; polygons are built by offsetting the baseline
along locally perpendicular directions.  Two lines join the same block when
they overlap horizontally, their baselines are vertically closer than the
taller of the two line heights, and the boundary-channel penalty strips
between them both stay below threshold.

Clustering, merging and the penalties work on one line type, plain data (a
``_Fragment``: id, baseline, heights, offset chains and x-extent); a
``TextLine`` argument is converted once, where it enters.  Detected
baselines stay fragments through clustering and merging, and a polygon and a
``TextLine`` are built only for the lines that come out.  A fragment whose
offset ring needs no repair and lies on the page takes its x-extent from its
chains; any other ring is built where it is detected, exactly as
:func:`line_polygon` builds it.  The per-fragment and per-pair kernels run
as array kernels over all fragments, or all candidate pairs, at once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix, csgraph

from ._raster import polyline_pixels
from .baselines import ExtractParams, detect_baselines
from .channels import ChannelMaps
from .geometry import (
    _BATCH_ELEMENTS,
    _EPS,
    Polygon,
    Polyline,
    _contains_within,
    _chunks,
    _edge_crossings,
    _pad_rows,
    _ring_crossings,
    _rings_hold,
    clip_to_page,
    convex_hull,
    offset_chains,
)
from .geometry import alpha_shape  # noqa: F401  (perfbench's traced run wraps blocks.alpha_shape)
from .geometry import intersection_area  # noqa: F401  (perfbench's traced run wraps blocks.intersection_area)
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


def _rank(pct: float, n):
    """1-based nearest rank of the ``pct`` percentile among ``n`` values (scalar or array)."""
    return np.maximum(1, np.ceil(pct * n / 100.0 - 1e-9)).astype(np.int64)


def nearest_rank_percentile(values, pct: float) -> float:
    """The ceil(pct/100 * n)-th smallest value (nearest-rank percentile)."""
    arr = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if len(arr) == 0:
        raise ValueError("empty sample")
    return float(arr[_rank(pct, len(arr)) - 1])


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

    The offset ring is kept when it is simple and holds the baseline (within
    0.45 px, inside ``TextLine``'s 0.5 with a margin; a two-point baseline's
    rectangle always does).  Otherwise a ring that self-intersects at kinks
    is cleaned by vertex dropping, and the cleaned ring is kept if it holds
    the baseline; failing that, the convex hull of the offset ring is used
    (the baseline is a convex combination of the two offset chains, so the
    hull always holds it).
    """
    pts = np.asarray(points, dtype=np.float64)
    top, bottom = offset_chains(pts, float(ascender), float(descender))
    ring = np.vstack([top, bottom[::-1]])
    try:
        try:
            polygon = Polygon(ring)
        except ValueError:  # a simple ring is its own cleaned ring
            polygon = Polygon(_drop_self_intersections(ring), check_simple=False)
        if len(pts) == 2 or _contains_within(polygon, pts, 0.45):  # two points lie on the ring's end edges
            return polygon
    except ValueError:
        pass
    return convex_hull(ring)


def _heights(baselines: list[Polyline], maps: ChannelMaps, pct: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ascenders, descenders, on page): the nearest-rank ``pct`` percentile of each height channel
    over each baseline's pixels, the ascender at least 1 and the descender at least 0; a baseline
    with no pixel on the page has none.

    Each baseline's values are sorted in one row of a +inf-padded array,
    baselines in chunks of about ``_BATCH_ELEMENTS`` elements.
    """
    rows, cols, counts = polyline_pixels([bl.points for bl in baselines], maps.shape)
    on_page = counts > 0
    counts = counts[on_page]
    ends = np.cumsum(counts)
    line = np.repeat(np.arange(len(counts)), counts)
    rank = _rank(pct, counts) - 1
    heights = np.zeros((2, len(counts)))
    for c, plane in enumerate((maps.asc, maps.des)):
        values = plane[rows, cols].astype(np.float64)
        for a, b in _chunks(counts, _BATCH_ELEMENTS):
            at = slice(ends[a] - counts[a], ends[b - 1])
            grid = _pad_rows(line[at] - a, values[at], b - a, np.inf)
            grid.sort(axis=1)
            heights[c, a:b] = grid[np.arange(b - a), rank[a:b]]
    asc, des = np.zeros(len(baselines)), np.zeros(len(baselines))
    asc[on_page], des[on_page] = heights
    return np.maximum(1.0, asc), np.maximum(0.0, des), on_page


def line_polygon(
    baseline: Polyline, maps: ChannelMaps, params: BlockParams | None = None, line_id: str = "line"
) -> TextLine:
    """Build a text line from a baseline and the height channels, its polygon clipped to the frame.

    The one-baseline call of the kernels behind ``extract_page``'s fragments.
    """
    params = params or BlockParams()
    asc, des, on_page = _heights([baseline], maps, params.height_percentile)
    if not on_page[0]:
        raise ValueError("baseline out of bounds")
    frag = _fragments([line_id], [baseline], asc, des, maps.shape)[0]
    if frag is None:
        raise ValueError("no polygon area on the page")
    return frag.text_line()


class _Fragment(NamedTuple):
    """A line as plain data while lines cluster and merge.

    ``chains`` are the offset chains (ascender side, descender side) in
    baseline order, ``chains_by_x`` the same sorted by x (stable).
    ``polygon`` is None while a ring that needs no repair and lies on the
    page is not built (:meth:`outline` builds it).  Any other ring's
    polygon is built and clipped when the fragment is made.
    ``x_extent`` is the polygon's x range either way, and ``midpoint`` the
    baseline midpoint.
    """

    id: str
    baseline: Polyline
    ascender: float
    descender: float
    chains: tuple[np.ndarray, np.ndarray]
    chains_by_x: tuple[np.ndarray, np.ndarray]
    polygon: Polygon | None
    x_extent: tuple[float, float]
    midpoint: tuple[float, float]

    @property
    def height(self) -> float:
        return self.ascender + self.descender

    def outline(self) -> Polygon:
        """The line polygon: ``polygon``, or the offset ring."""
        if self.polygon is not None:
            return self.polygon
        # simple, holds the baseline and lies on the page: checked when made
        return Polygon(np.vstack([self.chains[0], self.chains[1][::-1]]), check_simple=False)

    def text_line(self) -> TextLine:
        """The output line on :meth:`outline`."""
        return TextLine(self.id, self.baseline, self.ascender, self.descender, self.outline())


def _fragment_of(line: TextLine | _Fragment) -> _Fragment:
    """``line`` as a fragment: a ``TextLine`` keeps its polygon, and its chains are its baseline's offsets."""
    if isinstance(line, _Fragment):
        return line
    offsets = offset_chains(line.baseline.points, line.ascender, line.descender)
    by_x = tuple(c[np.argsort(c[:, 0], kind="stable")] for c in offsets)
    x_extent, midpoint = line.polygon.bounds()[::2], baseline_midpoint(line.baseline)
    return _Fragment(line.id, line.baseline, line.ascender, line.descender, offsets, by_x, line.polygon, x_extent, midpoint)


def _clean_rings(rings: np.ndarray, pts: np.ndarray, h: int, w: int) -> np.ndarray:
    """Which offset rings ``polygon_from_baseline`` keeps as they are and ``clip_to_page`` leaves alone.

    ``rings`` is (K, m, 2) and ``pts`` the (K, n, 2) baselines.  True only
    where ``Polygon`` takes the ring without dropping a vertex (consecutive
    vertices apart, area clearly above zero, no crossing edge pair, each
    tested as ``Polygon`` tests it), the ring holds the baseline as
    ``polygon_from_baseline`` tests it (:func:`_rings_hold`, 0.45 px), and
    it lies on the [0, w] x [0, h] page.  A ring whose area is only just
    above zero reads False and is built the slow way, to the same polygon.
    """
    nxt = np.concatenate([rings[:, 1:], rings[:, :1]], axis=1)
    ok = np.isfinite(rings).all(axis=(1, 2)) & (np.abs(nxt - rings) > _EPS).any(axis=2).all(axis=1)
    area = (rings[:, :, 0] * nxt[:, :, 1] - rings[:, :, 1] * nxt[:, :, 0]).sum(axis=1) / 2.0
    ok &= np.abs(area) > 1e-6
    ok &= (rings.min(axis=1) >= 0).all(axis=1) & (rings[:, :, 0].max(axis=1) <= w) & (rings[:, :, 1].max(axis=1) <= h)
    idx = np.flatnonzero(ok)
    for a, b in _chunks(np.full(len(idx), rings.shape[1] ** 2), _BATCH_ELEMENTS):
        k = idx[a:b]
        ok[k] = _rings_hold(rings[k], pts[k], 0.45) & ~_ring_crossings(rings[k]).any(axis=(1, 2))
    return ok


def _fragments(ids: list[str], baselines: list[Polyline], asc, des, shape: tuple[int, int]) -> list[_Fragment | None]:
    """One fragment per line, or None where its polygon leaves no area on the ``shape`` frame.

    Offset chains and ring checks run over all lines at once, the chains
    over baselines with the same number of points.  A ring that fails the
    checks is built by ``polygon_from_baseline`` and clipped to the frame,
    as :func:`line_polygon` builds it.
    """
    h, w = shape
    n_points = np.array([len(bl.points) for bl in baselines], dtype=np.int64)
    frags: list[_Fragment | None] = [None] * len(baselines)
    for n in np.unique(n_points):
        group = np.flatnonzero(n_points == n)
        pts = np.stack([baselines[i].points for i in group])
        top, bottom = offset_chains(pts, asc[group, None, None], des[group, None, None])
        rings = np.concatenate([top, bottom[:, ::-1]], axis=1)
        clean = _clean_rings(rings, pts, h, w)
        x_lo, x_hi = rings[..., 0].min(axis=1), rings[..., 0].max(axis=1)
        top_by_x, bottom_by_x = (
            np.take_along_axis(c, np.argsort(c[..., 0], axis=1, kind="stable")[..., None], axis=1) for c in (top, bottom)
        )
        for k, i in enumerate(group):
            bl = baselines[i]
            if clean[k]:
                polygon = None
                x_extent = (float(x_lo[k]), float(x_hi[k]))
            else:
                try:
                    polygon = clip_to_page(polygon_from_baseline(bl.points, asc[i], des[i]), h, w)
                except ValueError:
                    logger.debug("dropping line %s: no polygon on the page", ids[i])
                    continue
                x0, _, x1, _ = polygon.bounds()
                x_extent = (x0, x1)
            chains, by_x = (top[k], bottom[k]), (top_by_x[k], bottom_by_x[k])
            frags[i] = _Fragment(
                ids[i], bl, float(asc[i]), float(des[i]), chains, by_x, polygon, x_extent, baseline_midpoint(bl)
            )
    return frags


def _baseline_fragments(
    baselines: list[Polyline], maps: ChannelMaps, params: BlockParams, prefix: str
) -> list[tuple[int, _Fragment]]:
    """(index, fragment) of each baseline with a pixel on the page and a polygon there, id ``<prefix><index>``.

    Per baseline this is :func:`line_polygon`, as plain data: the same
    heights, and the same polygon once built.
    """
    asc, des, on_page = _heights(baselines, maps, params.height_percentile)
    keep = np.flatnonzero(on_page)
    if len(keep) < len(baselines):
        logger.debug("dropping %d baselines out of bounds", len(baselines) - len(keep))
    ids = [f"{prefix}{i}" for i in keep]
    frags = _fragments(ids, [baselines[i] for i in keep], asc[keep], des[keep], maps.shape)
    return [(int(i), f) for i, f in zip(keep, frags) if f is not None]


def _strip_sums(block: np.ndarray, chains: list[np.ndarray], spans: np.ndarray, thickness: float) -> np.ndarray:
    """Sums of the block channel over a thickness-tall band along each chain sorted by x.

    Strip k runs along ``chains[k]`` over the pixel columns ``spans[k, 0]``
    to ``spans[k, 1]``.  Its band rows at each column are those within
    ``thickness / 2`` of the chain, off-frame rows count 0, and its
    ``(depth, columns)`` block is laid out row by row, strips back to back
    (in :func:`_chunks` of ``_BATCH_ELEMENTS``); each strip's float32
    sum over its contiguous slice is the sum of that block to the bit.
    """
    h = block.shape[0]
    half = thickness / 2.0
    ncols = spans[:, 1] - spans[:, 0] + 1
    starts = np.cumsum(ncols) - ncols
    cols = np.arange(ncols.sum()) - np.repeat(starts - spans[:, 0], ncols)
    ys = np.concatenate([np.interp(cols[s : s + n], c[:, 0], c[:, 1]) for c, s, n in zip(chains, starts, ncols)])
    r0 = np.ceil(ys - half - 1e-9).astype(np.int64)
    r1 = np.floor(ys + half + 1e-9).astype(np.int64)
    sizes = (np.maximum.reduceat(r1 - r0, starts) + 1) * ncols
    out = np.zeros(len(chains))
    for a, b in _chunks(sizes, _BATCH_ELEMENTS):
        size = sizes[a:b]
        offsets = np.cumsum(size) - size
        local = np.arange(size.sum()) - np.repeat(offsets, size)  # row * columns + column, in its strip
        per_row = np.repeat(ncols[a:b], size)
        at = np.repeat(starts[a:b], size) + local % per_row
        rows = r0[at] + local // per_row
        valid = (rows <= r1[at]) & (rows >= 0) & (rows < h)
        vals = np.where(valid, block[np.clip(rows, 0, h - 1), cols[at]], 0.0)
        out[a:b] = [vals[o : o + n].sum() for o, n in zip(offsets, size)]
    return out


def _pair_penalties(maps: ChannelMaps, uppers: list, lowers: list, thickness: float) -> tuple[np.ndarray, np.ndarray]:
    """Both boundary penalties of each (upper, lower) pair, and which pairs share a pixel column on the page.

    The kernel behind :func:`adjacency_penalty`, over any number of fragment
    pairs in one gather; penalties of pairs that share no column are 0.
    """
    xa = np.array([u.x_extent for u in uppers]).reshape(-1, 2)
    xb = np.array([v.x_extent for v in lowers]).reshape(-1, 2)
    lo = np.maximum(xa[:, 0], xb[:, 0])
    hi = np.minimum(xa[:, 1], xb[:, 1])
    c0 = np.maximum(np.ceil(lo), 0).astype(np.int64)
    c1 = np.minimum(np.floor(hi), maps.width - 1).astype(np.int64)
    shared = (hi - lo > 0) & (c1 >= c0)
    idx = np.flatnonzero(shared)
    penalties = np.zeros((len(xa), 2))
    if len(idx):
        chains = [uppers[i].chains_by_x[1] for i in idx] + [lowers[i].chains_by_x[0] for i in idx]
        spans = np.tile(np.stack([c0[idx], c1[idx]], axis=1), (2, 1))
        sums = _strip_sums(maps.block, chains, spans, thickness)
        penalties[idx] = sums.reshape(2, -1).T / (c1[idx] - c0[idx] + 1)[:, None]
    return penalties, shared


def adjacency_penalty(
    upper: TextLine, lower: TextLine, maps: ChannelMaps, params: BlockParams | None = None
) -> tuple[float, float]:
    """Boundary-channel penalties between two horizontally overlapping lines.

    Two strips span the horizontal intersection of the lines: one along the
    upper line's descender line, one along the lower line's ascender line.
    Each penalty is the strip sum divided by the strip length in pixels.
    This is the one-pair call of the kernel that :func:`cluster_blocks` runs
    over all candidate pairs at once; each line's offset chains are its
    fragment's, sorted by x.
    """
    params = params or BlockParams()
    penalties, shared = _pair_penalties(maps, [_fragment_of(upper)], [_fragment_of(lower)], params.penalty_area_thickness)
    if not shared[0]:
        raise ValueError("not neighbours")
    return (float(penalties[0, 0]), float(penalties[0, 1]))


def block_polygon(lines: list[TextLine]) -> Polygon:
    """Block outline: the convex hull of the member line polygon vertices.

    The one outline rule, for ground truth and predictions alike.  The hull
    holds every member polygon, so ``TextBlock``'s coverage check passes on
    it; ``lines`` may be anything with a ``polygon``.
    """
    return convex_hull(np.vstack([line.polygon.ring for line in lines]))


class LineGroup(NamedTuple):
    """The lines of one block, before its outline is built: fragments, or the ``TextLine``s a caller passed."""

    id: str
    lines: list[TextLine]


def cluster_blocks(
    lines: list[TextLine], maps: ChannelMaps, params: BlockParams | None = None
) -> list[LineGroup]:
    """Partition lines into blocks: connected components of the neighbour graph.

    Pairs that overlap horizontally and whose baseline midpoints are closer
    in y than the taller line's height, found for all pairs at once, are
    edges when both boundary penalties of :func:`adjacency_penalty` pass.
    The penalties of all candidate pairs are computed in one gather.  The
    groups hold the lines as given: fragments, or ``TextLine``s.
    """
    params = params or BlockParams()
    frags = [_fragment_of(line) for line in lines]
    n = len(frags)
    x0, x1 = np.array([f.x_extent for f in frags]).reshape(-1, 2).T
    mx, y = np.array([f.midpoint for f in frags]).reshape(-1, 2).T
    h = np.array([f.height for f in frags])
    near = (np.minimum.outer(x1, x1) - np.maximum.outer(x0, x0) > 0) & (
        np.abs(np.subtract.outer(y, y)) < np.maximum.outer(h, h)
    )
    i, j = np.nonzero(np.triu(near, 1))
    upper = np.where(y[i] <= y[j], i, j)
    lower = i + j - upper
    penalties, shared = _pair_penalties(
        maps, [frags[u] for u in upper], [frags[v] for v in lower], params.penalty_area_thickness
    )
    passed = shared & (penalties.max(axis=1, initial=-np.inf) < params.penalty_threshold)
    graph = coo_matrix((np.ones(int(passed.sum())), (i[passed], j[passed])), shape=(n, n))
    _, labels = csgraph.connected_components(graph, directed=False)

    groups: dict[int, list[int]] = {}
    for k in range(n):
        groups.setdefault(int(labels[k]), []).append(k)
    # top to bottom by the highest baseline midpoint, ties by the leftmost one
    order = sorted(groups.values(), key=lambda idx: (y[idx].min(), mx[idx].min()))
    return [LineGroup(f"b{k}", [lines[i] for i in idx]) for k, idx in enumerate(order)]


def _merge_pair(a: Polyline, b: Polyline, max_points: int) -> Polyline:
    """Baseline of two merged lines: both sampled, sorted by x, at uniformly spaced x (``a`` starts no later)."""
    pts = np.vstack([a.points, b.points])
    order = np.argsort(pts[:, 0], kind="stable")
    px = pts[order, 0]
    py = pts[order, 1]
    keep = np.concatenate([[True], np.diff(px) > 1e-9])
    px, py = px[keep], py[keep]
    width = px[-1] - px[0]
    n = max(2, min(max_points, int(round(width)) + 1))
    xs = np.linspace(px[0], px[-1], n)
    ys = np.interp(xs, px, py)
    return Polyline(np.stack([xs, ys], axis=1))


def _x_range(baseline: Polyline) -> tuple[float, float]:
    xs = baseline.points[:, 0]
    return (float(xs.min()), float(xs.max()))


def _merge_condition(rows: np.ndarray, cols: np.ndarray, params: BlockParams) -> np.ndarray:
    """Merge test of every row line against every column line, from their (left x, right x, midpoint y, height)."""
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
    no pair qualifies (a fixpoint); a pair whose merged baseline would not
    have two distinct points (lines on one vertical) does not qualify.  The
    merged line starts where line i does and keeps its id, hence its sort
    key: it takes slot i, and slot j empties.  A merged baseline is
    resampled to at most ``max_control_points`` points.  Reads only
    ``block.id`` and ``block.lines``; returns ``block`` if nothing merges.

    The pair test depends only on the two lines, so the condition matrix
    (its upper triangle) is built once; a merge recomputes row and column i
    and clears j.  Lines that merge stay plain data until the fixpoint.
    Each merged line that remains is then built once, its polygon clipped
    to the frame ``shape`` the lines were built in, as a fragment (or, when
    ``TextLine``s went in, as a ``TextLine``); a merged line with no area
    left there is dropped.  Unmerged lines come out as they went in.
    """
    params = params or BlockParams()
    if len(block.lines) < 2:
        return block
    given = sorted(block.lines, key=lambda ln: (_x_range(ln.baseline)[0], ln.id))
    lines = [_fragment_of(ln) for ln in given]
    baselines = [ln.baseline for ln in lines]
    heights = np.array([(ln.ascender, ln.descender) for ln in lines])
    cols = np.array([(*_x_range(ln.baseline), ln.midpoint[1], ln.height) for ln in lines])
    pick = np.maximum if _rank(params.height_percentile, 2) == 2 else np.minimum  # the percentile of two heights
    cond = np.triu(_merge_condition(cols, cols, params), 1)
    live = np.ones(len(lines), dtype=bool)
    merged = np.zeros(len(lines), dtype=bool)
    while True:
        i, j = divmod(int(cond.argmax()), len(lines))
        if not cond[i, j]:
            break
        try:
            baselines[i] = _merge_pair(baselines[i], baselines[j], max_control_points)
        except ValueError:  # no two distinct points: the pair does not qualify
            cond[i, j] = False
            continue
        heights[i] = pick(heights[i], heights[j])
        merged[i] = True
        live[j] = False
        cond[j] = cond[:, j] = False
        cols[i] = (*_x_range(baselines[i]), baseline_midpoint(baselines[i])[1], heights[i].sum())
        hits = _merge_condition(cols[i : i + 1], cols, params)[0] & live
        cond[:i, i] = hits[:i]
        cond[i, i + 1 :] = hits[i + 1 :]
    if live.all():
        return block
    new = np.flatnonzero(merged & live)
    frags = _fragments([lines[k].id for k in new], [baselines[k] for k in new], *heights[new].T, shape)
    built = dict(zip(new, frags))
    out = []
    for k in np.flatnonzero(live):
        if not merged[k]:
            out.append(given[k])
        elif built[k] is None:
            logger.debug("dropping merged line %s: no polygon on the page", lines[k].id)
        else:
            out.append(built[k] if isinstance(given[0], _Fragment) else built[k].text_line())
    return LineGroup(block.id, out)


def extract_page(
    maps: ChannelMaps,
    extract_params: ExtractParams | None = None,
    block_params: BlockParams | None = None,
    merge: bool = True,
    page_id: str = "page",
) -> PageLayout:
    """Full single-orientation pipeline: baselines, line groups, one block per group, outlined by :func:`block_polygon`.

    Baselines stay plain-data fragments through clustering and merging;
    only the lines that come out are built as ``TextLine``s.
    """
    extract_params = extract_params or ExtractParams()
    block_params = block_params or BlockParams()
    frags = [f for _, f in _baseline_fragments(detect_baselines(maps, extract_params), maps, block_params, "l")]
    groups = cluster_blocks(frags, maps, block_params)
    if merge:
        groups = [merge_block_lines(g, maps.shape, block_params, extract_params.max_control_points) for g in groups]
    blocks = []
    for g in groups:
        if g.lines:  # merging drops a line with no area left on the frame
            lines = [ln.text_line() for ln in g.lines]
            blocks.append(TextBlock(g.id, lines, block_polygon(lines)))
    return PageLayout(page_id, maps.height, maps.width, blocks)
