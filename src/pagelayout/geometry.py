"""Planar geometry primitives shared across the extraction pipeline.

Coordinates are continuous pixels with the origin at the top-left corner
and y growing downward.  Pixel centers sit on integer coordinates.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError

_EPS = 1e-9


def _as_point_array(points) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (N, 2) point array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite coordinate")
    return arr


def _dedupe_consecutive(arr: np.ndarray) -> np.ndarray:
    if len(arr) < 2:
        return arr
    keep = np.ones(len(arr), dtype=bool)
    keep[1:] = np.any(np.abs(np.diff(arr, axis=0)) > _EPS, axis=1)
    return arr[keep]


class Polyline:
    """Open chain of at least two distinct points (a linear spline)."""

    __slots__ = ("points",)

    def __init__(self, points):
        arr = _dedupe_consecutive(_as_point_array(points))
        if len(arr) < 2:
            raise ValueError("polyline needs at least 2 distinct points")
        arr.flags.writeable = False
        self.points = arr

    @property
    def length(self) -> float:
        return float(np.hypot(*np.diff(self.points, axis=0).T).sum())

    def __eq__(self, other) -> bool:
        return isinstance(other, Polyline) and np.array_equal(self.points, other.points)

    def __repr__(self) -> str:
        return f"Polyline({len(self.points)} pts, length={self.length:.1f})"


class Polygon:
    """Simple polygon given as an implicitly closed ring of >= 3 points."""

    __slots__ = ("ring", "area", "_bounds")

    def __init__(self, ring, check_simple: bool = True):
        arr = _dedupe_consecutive(_as_point_array(ring))
        if len(arr) > 1 and np.all(np.abs(arr[0] - arr[-1]) <= _EPS):
            arr = arr[:-1]
        if len(arr) < 3:
            raise ValueError("polygon needs at least 3 distinct points")
        area = abs(signed_area(arr))
        if area <= _EPS:
            raise ValueError("polygon area is zero")
        if check_simple and _ring_crossings(arr).any():
            raise ValueError("polygon is self-intersecting")
        arr.flags.writeable = False
        self.ring = arr
        self.area = area
        lo = arr.min(axis=0)
        hi = arr.max(axis=0)
        self._bounds = (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))

    def bounds(self) -> tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y), computed once by the constructor."""
        return self._bounds

    def __eq__(self, other) -> bool:
        return isinstance(other, Polygon) and np.array_equal(self.ring, other.ring)

    def __repr__(self) -> str:
        return f"Polygon({len(self.ring)} pts, area={self.area:.1f})"


def _next(arr: np.ndarray) -> np.ndarray:
    """``np.roll(arr, -1, axis=0)`` (item i + 1 at i, the first one last), without its per-call overhead."""
    return np.concatenate([arr[1:], arr[:1]])


def signed_area(ring: np.ndarray) -> float:
    """Shoelace area; positive for counterclockwise rings in y-down coordinates."""
    x = ring[:, 0]
    y = ring[:, 1]
    return float(np.dot(x, _next(y)) - np.dot(y, _next(x))) / 2.0


def _straddles(p: np.ndarray, q: np.ndarray, a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Whether segment p-q strictly straddles the line through ``a`` along ``e`` (broadcast over ``[..., 2]``).

    The sign test of the orientations ``e x (p - a)`` and ``e x (q - a)``,
    each beyond ``_EPS``: two segments cross in their open interiors iff
    each straddles the other's line.
    """
    d1 = e[..., 0] * (p[..., 1] - a[..., 1]) - e[..., 1] * (p[..., 0] - a[..., 0])
    d2 = e[..., 0] * (q[..., 1] - a[..., 1]) - e[..., 1] * (q[..., 0] - a[..., 0])
    return ((d1 > _EPS) & (d2 < -_EPS)) | ((d1 < -_EPS) & (d2 > _EPS))


def _ring_crossings(ring: np.ndarray) -> np.ndarray:
    """(n, n) symmetric: edges i and j (edge i runs from vertex i to i + 1) cross.

    An edge never crosses itself or a neighbour: a shared vertex has
    orientation exactly 0 against the other edge (``e x 0`` or ``e x e``),
    so neither edge straddles the other's line.  A (K, n, 2) stack of rings
    gives (K, n, n), each ring's matrix to the bit.
    """
    nxt = np.concatenate([ring[..., 1:, :], ring[..., :1, :]], axis=-2)
    s = _straddles(ring[..., :, None, :], nxt[..., :, None, :], ring[..., None, :, :], (nxt - ring)[..., None, :, :])
    return s & np.swapaxes(s, -1, -2)


def _points_in_ring(ring: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Even-odd containment of many points, vectorized over edges; over a (K, ...) stack of rings and point sets too."""
    nxt = np.concatenate([ring[..., 1:, :], ring[..., :1, :]], axis=-2)
    x1, y1 = ring[..., None, :, 0], ring[..., None, :, 1]
    x2, y2 = nxt[..., None, :, 0], nxt[..., None, :, 1]
    px, py = pts[..., :, None, 0], pts[..., :, None, 1]
    straddle = ((y1 <= py) & (py < y2)) | ((y2 <= py) & (py < y1))
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = x1 + (py - y1) / (y2 - y1) * (x2 - x1)
    hits = straddle & (px < x_cross)
    return hits.sum(axis=-1) % 2 == 1


def _segment_distance(x, y, p, d) -> np.ndarray:
    """Distance from points (x, y) to the segments from ``p`` to ``p + d`` (x, y on their last axis), broadcast.

    The package's one point-to-segment distance: the closest point is
    ``p + t * d`` with ``t`` clipped to [0, 1], so a zero-length segment is ``p``.
    """
    px, py = p[..., 0], p[..., 1]
    dx, dy = d[..., 0], d[..., 1]
    l2 = np.maximum(dx * dx + dy * dy, 1e-18)
    t = np.clip(((x - px) * dx + (y - py) * dy) / l2, 0.0, 1.0)
    return np.hypot(x - (px + t * dx), y - (py + t * dy))


def _rings_hold(rings: np.ndarray, pts: np.ndarray, tol: float) -> np.ndarray:
    """(K,) whether every point of ``pts[k]`` lies inside ``rings[k]`` or within ``tol`` of its boundary.

    ``rings`` is a (K, m, 2) stack and ``pts`` a (K, n, 2) one.  Even-odd
    containment runs over all points; the edge distance only over the
    points outside their ring.
    """
    held = _points_in_ring(rings, pts)
    k, i = np.nonzero(~held)
    if len(k):
        ring, q = rings[k], pts[k, i]
        edges = np.concatenate([ring[:, 1:], ring[:, :1]], axis=1) - ring
        held[k, i] = _segment_distance(q[:, :1], q[:, 1:], ring, edges).min(axis=1) <= tol
    return held.all(axis=1)


def _contains_within(polygon: Polygon, pts: np.ndarray, tol: float) -> bool:
    """Whether every point lies inside the polygon or within ``tol`` of its boundary: one ring of :func:`_rings_hold`."""
    return bool(_rings_hold(polygon.ring[None], pts[None], tol)[0])


def _vertex_up_normals(points: np.ndarray) -> np.ndarray:
    """Per-vertex unit normals pointing to the ascender side; over a (K, n, 2) stack of baselines too.

    Interior vertices use the angle bisector of the adjacent segments so
    offsets at kinks do not self-intersect.
    """
    deltas = np.diff(points, axis=-2)
    lens = np.hypot(deltas[..., 0], deltas[..., 1])
    units = deltas / lens[..., None]
    tangents = np.empty_like(points)
    tangents[..., 0, :] = units[..., 0, :]
    tangents[..., -1, :] = units[..., -1, :]
    if points.shape[-2] > 2:
        mids = units[..., :-1, :] + units[..., 1:, :]
        norms = np.hypot(mids[..., 0], mids[..., 1])
        bad = norms < 1e-9
        mids[bad] = units[..., 1:, :][bad]
        norms = np.hypot(mids[..., 0], mids[..., 1])
        tangents[..., 1:-1, :] = mids / norms[..., None]
    return np.stack([tangents[..., 1], -tangents[..., 0]], axis=-1)


def offset_chains(points: np.ndarray, ascender, descender) -> tuple[np.ndarray, np.ndarray]:
    """A baseline offset up by ``ascender`` and down by ``descender`` along its per-vertex up-normals.

    Over a (K, n, 2) stack of baselines, with (K, 1, 1) heights, each
    baseline's chains come out to the bit.
    """
    normals = _vertex_up_normals(points)
    return points + ascender * normals, points + (-descender) * normals


def _on_page(x0, y0, x1, y1, h, w):
    """Whether the box from (x0, y0) to (x1, y1) lies in the [0, w] x [0, h] page, edges included (-0.0 too):
    the package's one page test, over scalars or arrays."""
    return (x0 >= 0) & (y0 >= 0) & (x1 <= w) & (y1 <= h)


def clip_to_page(polygon: Polygon, h: int, w: int) -> Polygon:
    """``polygon`` if it lies on the page (:func:`_on_page`), else its part inside [0, w] x [0, h]
    (Sutherland-Hodgman, one edge at a time).

    Unlike clamping each vertex, this keeps the part of the region that was
    on the page, so a baseline inside the polygon stays inside it.  Raises
    ``ValueError`` when no area is left.
    """
    if _on_page(*polygon.bounds(), h, w):
        return polygon
    ring = polygon.ring
    for axis, bound, sign in ((0, 0.0, 1.0), (0, float(w), -1.0), (1, 0.0, 1.0), (1, float(h), -1.0)):
        depth = sign * (ring[:, axis] - bound)  # >= 0 on the page side
        if (depth >= 0).all():
            continue
        out = []
        for i in range(len(ring)):
            if (depth[i - 1] >= 0) != (depth[i] >= 0):
                cut = ring[i - 1] + depth[i - 1] / (depth[i - 1] - depth[i]) * (ring[i] - ring[i - 1])
                cut[axis] = bound
                out.append(cut)
            if depth[i] >= 0:
                out.append(ring[i])
        ring = np.array(out).reshape(-1, 2)
    return Polygon(ring, check_simple=False)


# ---------------------------------------------------------------------------
# Polygon intersection area / IoU
# ---------------------------------------------------------------------------

# elements per temporary of the package's batched kernels (overlaps, sampling, coverage, rings, strips);
# larger batches run in chunks
_BATCH_ELEMENTS = 1 << 18


def _chunks(sizes: np.ndarray):
    """Consecutive ``(a, b)`` ranges over ``sizes``, each with ``(b - a) * max(sizes[a:b])`` (its rows padded
    to the longest) within ``_BATCH_ELEMENTS``, or of one item: the package's one chunk rule."""
    budget = _BATCH_ELEMENTS
    a = 0
    while a < len(sizes):
        # items of size >= 1 fit at most ``budget`` to a chunk; zero-size ones are capped at that count too
        window = sizes[a : a + budget]
        padded = np.maximum.accumulate(window) * np.arange(1, len(window) + 1)
        b = a + max(1, int(np.searchsorted(padded, budget, side="right")))
        yield a, b
        a = b


def _pad_rows(rows: np.ndarray, values: np.ndarray, n_rows: int, fill: float) -> np.ndarray:
    """(n_rows, C, ...) array of ``values`` grouped by their ascending ``rows`` index, ``fill`` after each group."""
    counts = np.bincount(rows, minlength=n_rows)
    out = np.full((n_rows, int(counts.max(initial=0))) + values.shape[1:], fill)
    out[rows, np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]] = values
    return out


def _ring_edges(rings: list[np.ndarray]) -> np.ndarray:
    """(K, E, 4) edge endpoints ``x1, y1, x2, y2`` of K rings; NaN pads the shorter rings."""
    lens = np.array([len(r) for r in rings])
    starts = np.cumsum(lens) - lens
    nxt = np.arange(1, lens.sum() + 1)
    nxt[starts + lens - 1] = starts
    pts = np.concatenate(rings)
    return _pad_rows(np.repeat(np.arange(len(rings)), lens), np.hstack([pts, pts[nxt]]), len(rings), np.nan)


def _crossing_xs(a_edges: np.ndarray, b_edges: np.ndarray) -> np.ndarray:
    """(K, C) x coordinates where the edges of ring pair k cross, taken along the ``a`` edge; NaN pads.

    Each side is a (K, E, 4) stack of :func:`_ring_edges`.
    """
    p1 = a_edges[:, :, None, :2]
    r = a_edges[:, :, None, 2:] - p1
    q1 = b_edges[:, None, :, :2]
    s = b_edges[:, None, :, 2:] - q1
    denom = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    dx = q1[..., 0] - p1[..., 0]
    dy = q1[..., 1] - p1[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (dx * s[..., 1] - dy * s[..., 0]) / denom
    k, i, j = np.nonzero((np.abs(denom) > _EPS) & (t >= -_EPS) & (t <= 1 + _EPS))
    edge = k * a_edges.shape[1] + i  # the a edge's row in the flat stack
    r = np.take(r.reshape(-1, 2), edge, axis=0)  # np.take: row gathers by fancy index are many times slower
    t, d = t[k, i, j], denom[k, i, j]
    u = (dx[k, i, j] * r[:, 1] - dy[k, i, j] * r[:, 0]) / d
    hit = (u >= -_EPS) & (u <= 1 + _EPS)
    xs = a_edges.reshape(-1, 4)[edge[hit], 0] + t[hit] * r[hit, 0]
    return _pad_rows(k[hit], xs, len(denom), np.nan)


def _slab_intervals(edges: np.ndarray, xm: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inside-intervals of a ring on the vertical line through each slab midpoint.

    ``edges`` is a (K, E, 4) stack of :func:`_ring_edges`; slab n has its
    midpoint at ``xm[n]`` and lies in pair ``owner[n]``.  Returns (N, C)
    interval starts and ends: the sorted edge-crossing ys at even and odd
    positions, padded with +inf starts and -inf ends, so an overlap with a
    pad is -inf.  Midpoints never coincide with vertex abscissae, so every
    edge either strictly straddles a midpoint or misses it, and a closed
    ring crosses each midpoint an even number of times.
    """
    x_lo = np.take(np.minimum(edges[..., 0], edges[..., 2]), owner, axis=0)
    x_hi = np.take(np.maximum(edges[..., 0], edges[..., 2]), owner, axis=0)
    n, e = np.nonzero((x_lo < xm[:, None]) & (xm[:, None] < x_hi))
    x1, y1, x2, y2 = np.take(edges.reshape(-1, 4), owner[n] * edges.shape[1] + e, axis=0).T
    ys = y1 + (xm[n] - x1) / (x2 - x1) * (y2 - y1)
    order = np.lexsort((ys, n))
    grid = _pad_rows(n[order], ys[order], len(xm), np.inf)
    depth = grid.shape[1] // 2 * 2
    hi = grid[:, 1:depth:2]
    hi[hi == np.inf] = -np.inf
    return grid[:, 0:depth:2], hi


def _pair_up(a, b) -> tuple[list[Polygon], list[Polygon]]:
    """Both sides of a pairwise call as lists of one length, a lone polygon repeated once per item of the other side."""
    if isinstance(a, Polygon):
        lb = list(b)
        return [a] * len(lb), lb
    if isinstance(b, Polygon):
        la = list(a)
        return la, [b] * len(la)
    la, lb = list(a), list(b)
    if len(la) != len(lb):
        raise ValueError(f"polygon sequences of unequal lengths {len(la)} and {len(lb)}")
    return la, lb


def intersection_area(a: Polygon | Sequence[Polygon], b: Polygon | Sequence[Polygon]) -> float | np.ndarray:
    """Area of overlap between two simple polygons.

    Decomposes the overlap into vertical slabs bounded by every vertex
    abscissa and every edge/edge crossing; inside a slab the overlap width
    varies linearly with x, so the midpoint sample integrates it exactly.

    Either side may also be a sequence of polygons: two sequences of one
    length are taken pair by pair, and a single polygon on one side is
    paired with each polygon of the other (repeated where the call enters,
    so every call runs the one pairwise path).  The result is then a float64
    array with one area per pair, each equal to the single-pair result to
    the last bit (the same abscissae, midpoints, widths and crossings;
    interval pairs and then slabs summed left to right), whatever the
    batch and its chunks.  Bounding boxes that do not overlap in x, or lie
    apart in y by more than any rounding of the crossing ordinates, give
    exactly 0 without slabs.
    """
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        return float(_overlaps([a], [b])[0])
    return _overlaps(*_pair_up(a, b))


def _overlaps(a: list[Polygon], b: list[Polygon]) -> np.ndarray:
    """Overlap of each pair ``(a[k], b[k])`` of two lists of one length; pairs in chunks of about
    ``_BATCH_ELEMENTS`` elements, each chunk's slabs side by side on a padded axis."""
    out = np.zeros(len(a))
    if not a:
        return out
    ab = np.array([p.bounds() for p in a])
    bb = np.array([p.bounds() for p in b])
    lo = np.maximum(ab[:, 0], bb[:, 0])
    hi = np.minimum(ab[:, 2], bb[:, 2])
    # Interpolated crossing ys leave a ring's box by at most a few ulps of
    # its largest |y|; past a wider gap every interval overlap is negative,
    # so any larger tolerance (here the batch's largest |y|) changes nothing.
    y_gap = np.maximum(ab[:, 1], bb[:, 1]) - np.minimum(ab[:, 3], bb[:, 3])
    y_tol = _EPS * (1.0 + max(np.abs(ab[:, 1::2]).max(), np.abs(bb[:, 1::2]).max()))
    live = np.flatnonzero((hi - lo > _EPS) & (y_gap <= y_tol))
    rings_a = [a[k].ring for k in live]
    rings_b = [b[k].ring for k in live]
    sizes = np.array([(len(p) + len(q)) ** 2 for p, q in zip(rings_a, rings_b)], dtype=np.int64)
    for c0, c1 in _chunks(sizes):
        ks = live[c0:c1]
        out[ks] = _slab_areas(_ring_edges(rings_a[c0:c1]), _ring_edges(rings_b[c0:c1]), lo[ks, None], hi[ks, None])
    return out


def _slab_areas(a_edges: np.ndarray, b_edges: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Overlap of K ring pairs (see :func:`_crossing_xs`) whose boxes share the x range ``lo``-``hi`` ((K, 1) each)."""
    out = np.zeros(len(lo))
    xs = np.concatenate([a_edges[:, :, 0], b_edges[:, :, 0], _crossing_xs(a_edges, b_edges), lo, hi], axis=1)
    # Sorted with repeats (NaN pads last): a repeat gives a zero-width slab,
    # which the width test drops, so the slabs are those of np.unique.
    xs = np.sort(np.clip(xs, lo, hi), axis=1)
    widths = xs[:, 1:] - xs[:, :-1]
    k, i = np.nonzero(widths > _EPS)
    if len(k) == 0:
        return out
    xm = (xs[k, i] + xs[k, i + 1]) / 2.0
    lo_a, hi_a = _slab_intervals(a_edges, xm, k)
    lo_b, hi_b = _slab_intervals(b_edges, xm, k)
    ov = np.minimum(hi_a[:, :, None], hi_b[:, None, :]) - np.maximum(lo_a[:, :, None], lo_b[:, None, :])
    ov = np.where(ov > 0, ov, 0.0).reshape(len(xm), -1)
    # Left-to-right sums from 0.0, interval pairs in (i, j) order and then
    # slabs by x: np.sum would add pairwise and round differently.
    pairs = np.add.accumulate(np.concatenate([np.zeros((len(xm), 1)), ov], axis=1), axis=1)[:, -1]
    terms = np.zeros((len(lo), widths.shape[1] + 1))
    terms[k, i + 1] = pairs * widths[k, i]
    return np.add.accumulate(terms, axis=1)[:, -1]


def _areas(p: Polygon | list[Polygon]) -> float | np.ndarray:
    return p.area if isinstance(p, Polygon) else np.array([q.area for q in p], dtype=np.float64)


def polygon_iou(a: Polygon | Sequence[Polygon], b: Polygon | Sequence[Polygon]) -> float | np.ndarray:
    """Intersection-over-union of two polygons by exact area; 0 when disjoint.

    Takes the sequence and broadcast forms of :func:`intersection_area`
    (one call of it): the result is then a float64 array with one IoU per
    pair, each equal to the single-pair result to the last bit.
    """
    a = a if isinstance(a, Polygon) else list(a)
    b = b if isinstance(b, Polygon) else list(b)
    inter = np.asarray(intersection_area(a, b))
    union = _areas(a) + _areas(b) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.minimum(1.0, np.maximum(0.0, inter / union))
    iou = np.where(union > _EPS, iou, 0.0)
    return float(iou) if iou.ndim == 0 else iou


# ---------------------------------------------------------------------------
# Convex hull and alpha shape
# ---------------------------------------------------------------------------

def convex_hull(points) -> Polygon:
    pts = _as_point_array(points)
    pts = np.unique(pts, axis=0)
    if len(pts) < 3:
        raise ValueError("degenerate point set")
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise ValueError("degenerate point set") from exc
    return Polygon(pts[hull.vertices])


def _circumradii(pts: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    p0 = pts[simplices[:, 0]]
    p1 = pts[simplices[:, 1]]
    p2 = pts[simplices[:, 2]]
    a = np.hypot(*(p0 - p1).T)
    b = np.hypot(*(p1 - p2).T)
    c = np.hypot(*(p2 - p0).T)
    area2 = np.abs(
        (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
        - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0])
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        r = a * b * c / (2.0 * area2)
    r[area2 <= _EPS] = np.inf
    return r


def _walk_boundary(edges: list[tuple[int, int]]) -> list[int] | None:
    """Order boundary edges into a single closed loop; None if that fails."""
    neighbors: dict[int, list[int]] = {}
    for u, v in edges:
        neighbors.setdefault(u, []).append(v)
        neighbors.setdefault(v, []).append(u)
    if any(len(vs) != 2 for vs in neighbors.values()):
        return None
    start = min(neighbors)
    loop = [start]
    prev = -1
    cur = start
    while True:
        a, b = neighbors[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        loop.append(nxt)
        prev, cur = cur, nxt
        if len(loop) > len(edges):
            return None
    if len(loop) != len(neighbors):
        return None
    return loop


def alpha_shape(points, alpha: float) -> Polygon:
    """Concave outline of a point set.

    Triangulates the points and keeps triangles whose circumradius is at
    most ``1 / alpha``; the returned polygon is the outer boundary of the
    kept triangles.  Falls back to the convex hull whenever the filtered
    complex is empty, disconnected or has a pinched boundary.

    ``alpha`` has units 1/pixels; ``alpha <= 0`` keeps every triangle and
    therefore yields the convex hull outline.
    """
    pts = np.unique(_as_point_array(points), axis=0)
    if len(pts) < 3:
        raise ValueError("degenerate point set")
    try:
        tri = Delaunay(pts)
    except QhullError as exc:
        raise ValueError("degenerate point set") from exc
    r_max = math.inf if alpha <= 0 else 1.0 / alpha
    kept = tri.simplices[_circumradii(pts, tri.simplices) <= r_max]
    if len(kept) == 0:
        return convex_hull(pts)
    # each triangle's edges (0, 1), (1, 2), (2, 0) as (low, high) vertex pairs;
    # boundary edges belong to one kept triangle, listed by first appearance
    edges = np.sort(np.stack([kept, np.roll(kept, -1, axis=1)], axis=2).reshape(-1, 2), axis=1).astype(np.int64)
    _, first, counts = np.unique(edges[:, 0] * len(pts) + edges[:, 1], return_index=True, return_counts=True)
    loop = _walk_boundary(edges[np.sort(first[counts == 1])].tolist())
    if loop is None or len(loop) < 3:
        return convex_hull(pts)
    try:
        return Polygon(pts[loop])
    except ValueError:
        return convex_hull(pts)


# ---------------------------------------------------------------------------
# Axis-aligned rotations
# ---------------------------------------------------------------------------

def rotate90_points(points: np.ndarray, size_hw: tuple[int, int], turns: int) -> np.ndarray:
    """Map (N, 2) points between the original frame and a 90-degree-rotated frame.

    ``turns`` counts counterclockwise quarter turns of the image; a point
    (x, y) in an H x W image maps to (y, W-1-x) in the W x H result for
    ``turns=1``.  ``rotate90_points(p, rotated_size, (4 - turns) % 4)``
    inverts the mapping.
    """
    h, w = size_hw
    arr = np.asarray(points, dtype=np.float64)
    x, y = arr[:, 0], arr[:, 1]
    t = turns % 4
    if t == 0:
        out = arr.copy()
    elif t == 1:
        out = np.stack([y, (w - 1) - x], axis=1)
    elif t == 2:
        out = np.stack([(w - 1) - x, (h - 1) - y], axis=1)
    else:
        out = np.stack([(h - 1) - y, x], axis=1)
    return out


def rotated_size(size_hw: tuple[int, int], turns: int) -> tuple[int, int]:
    h, w = size_hw
    return (h, w) if turns % 2 == 0 else (w, h)
