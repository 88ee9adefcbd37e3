"""Planar geometry primitives shared across the extraction pipeline.

Coordinates are continuous pixels with the origin at the top-left corner
and y growing downward.  Pixel centers sit on integer coordinates.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError

Point = tuple[float, float]

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

    def bounds(self) -> tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y)."""
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1])

    def __len__(self) -> int:
        return len(self.points)

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
    so neither edge straddles the other's line.
    """
    nxt = _next(ring)
    s = _straddles(ring[:, None], nxt[:, None], ring[None, :], (nxt - ring)[None, :])
    return s & s.T


def _edge_crossings(ring: np.ndarray, k: int) -> np.ndarray:
    """Row ``k`` of :func:`_ring_crossings`, computed alone."""
    nxt = _next(ring)
    e = nxt - ring
    return _straddles(ring[k], nxt[k], ring, e) & _straddles(ring, nxt, ring[k], e[k])


def _points_in_ring(ring: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Even-odd containment of many points, vectorized over edges."""
    nxt = _next(ring)
    x1, y1 = ring[:, 0][None, :], ring[:, 1][None, :]
    x2, y2 = nxt[:, 0][None, :], nxt[:, 1][None, :]
    px, py = pts[:, 0][:, None], pts[:, 1][:, None]
    straddle = ((y1 <= py) & (py < y2)) | ((y2 <= py) & (py < y1))
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = x1 + (py - y1) / (y2 - y1) * (x2 - x1)
    hits = straddle & (px < x_cross)
    return hits.sum(axis=1) % 2 == 1


def _points_ring_distance(ring: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distance of many points to the ring boundary."""
    nxt = _next(ring)
    d = nxt - ring
    l2 = np.maximum((d * d).sum(axis=1), 1e-18)[None, :]
    px, py = pts[:, 0][:, None], pts[:, 1][:, None]
    t = np.clip(((px - ring[:, 0][None, :]) * d[:, 0][None, :] + (py - ring[:, 1][None, :]) * d[:, 1][None, :]) / l2, 0.0, 1.0)
    cx = ring[:, 0][None, :] + t * d[:, 0][None, :]
    cy = ring[:, 1][None, :] + t * d[:, 1][None, :]
    return np.hypot(px - cx, py - cy).min(axis=1)


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


def offset_chains(points: np.ndarray, ascender: float, descender: float) -> tuple[np.ndarray, np.ndarray]:
    """A baseline offset up by ``ascender`` and down by ``descender`` along its per-vertex up-normals."""
    normals = _vertex_up_normals(points)
    return points + ascender * normals, points + (-descender) * normals


def horizontal_overlap(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Length of the intersection of two [lo, hi] intervals; 0 when disjoint or touching."""
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


# ---------------------------------------------------------------------------
# Polygon intersection area / IoU
# ---------------------------------------------------------------------------

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
    """(K, C) x coordinates where edges of one ring cross edges of each of K rings; NaN pads."""
    p1 = a_edges[None, :, None, :2]
    r = (a_edges[:, 2:] - a_edges[:, :2])[None, :, None, :]
    q1 = b_edges[:, None, :, :2]
    s = b_edges[:, None, :, 2:] - q1
    denom = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    dx = q1[..., 0] - p1[..., 0]
    dy = q1[..., 1] - p1[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (dx * s[..., 1] - dy * s[..., 0]) / denom
    k, i, j = np.nonzero((np.abs(denom) > _EPS) & (t >= -_EPS) & (t <= 1 + _EPS))
    r, t, denom = r[0, i, 0], t[k, i, j], denom[k, i, j]
    u = (dx[k, i, j] * r[:, 1] - dy[k, i, j] * r[:, 0]) / denom
    hit = (u >= -_EPS) & (u <= 1 + _EPS)
    k = k[hit]
    return _pad_rows(k, a_edges[i[hit], 0] + t[hit] * r[hit, 0], len(b_edges), np.nan)


def _slab_intervals(edges: np.ndarray, xm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inside-intervals of a ring on the vertical line through each slab midpoint.

    ``edges`` is (E, 4) or, one ring per slab, (N, E, 4); ``xm`` is (N,).
    Returns (N, C) interval starts and ends: the sorted edge-crossing ys at
    even and odd positions, padded with +inf starts and -inf ends, so an
    overlap with a pad is -inf.  Midpoints never coincide with vertex
    abscissae, so every edge either strictly straddles a midpoint or misses
    it, and a closed ring crosses each midpoint an even number of times.
    """
    x_lo = np.minimum(edges[..., 0], edges[..., 2])
    x_hi = np.maximum(edges[..., 0], edges[..., 2])
    n, e = np.nonzero((x_lo < xm[:, None]) & (xm[:, None] < x_hi))
    x1, y1, x2, y2 = (edges[e] if edges.ndim == 2 else edges[n, e]).T
    ys = y1 + (xm[n] - x1) / (x2 - x1) * (y2 - y1)
    order = np.lexsort((ys, n))
    grid = _pad_rows(n[order], ys[order], len(xm), np.inf)
    depth = grid.shape[1] // 2 * 2
    hi = grid[:, 1:depth:2]
    hi[hi == np.inf] = -np.inf
    return grid[:, 0:depth:2], hi


def intersection_area(a: Polygon, b: Polygon | Sequence[Polygon]) -> float | np.ndarray:
    """Area of overlap between two simple polygons.

    Decomposes the overlap into vertical slabs bounded by every vertex
    abscissa and every edge/edge crossing; inside a slab the overlap width
    varies linearly with x, so the midpoint sample integrates it exactly.

    ``b`` may also be a sequence of polygons: the result is then a float64
    array with one area per polygon, each equal to the single-polygon
    result to the last bit (the same abscissae, midpoints, widths and
    crossings; interval pairs and then slabs summed left to right).
    Bounding boxes that do not overlap in x, or lie apart in y by more than
    any rounding of the crossing ordinates, give exactly 0 without slabs.
    """
    if isinstance(b, Polygon):
        return float(_intersection_areas(a, [b])[0])
    return _intersection_areas(a, list(b))


def _intersection_areas(a: Polygon, polys: list[Polygon]) -> np.ndarray:
    """Overlap of ``a`` with each polygon: every polygon's slabs side by side on a padded axis."""
    out = np.zeros(len(polys))
    ax0, ay0, ax1, ay1 = a.bounds()
    boxes = np.array([p.bounds() for p in polys]).reshape(-1, 4)
    lo = np.maximum(ax0, boxes[:, 0])
    hi = np.minimum(ax1, boxes[:, 2])
    # Interpolated crossing ys leave a ring's box by at most a few ulps of
    # its largest |y|; past a wider gap every interval overlap is negative.
    y_gap = np.maximum(ay0, boxes[:, 1]) - np.minimum(ay1, boxes[:, 3])
    y_tol = _EPS * (1.0 + max(abs(ay0), abs(ay1), float(np.abs(boxes[:, 1::2]).max(initial=0.0))))
    live = np.flatnonzero((hi - lo > _EPS) & (y_gap <= y_tol))
    if len(live) == 0:
        return out
    lo, hi = lo[live, None], hi[live, None]
    a_edges = np.hstack([a.ring, _next(a.ring)])
    b_edges = _ring_edges([polys[k].ring for k in live])
    xs = np.concatenate(
        [
            a.ring[None, :, 0].repeat(len(live), axis=0),
            b_edges[:, :, 0],
            _crossing_xs(a_edges, b_edges),
            lo,
            hi,
        ],
        axis=1,
    )
    # Sorted with repeats (NaN pads last): a repeat gives a zero-width slab,
    # which the width test drops, so the slabs are those of np.unique.
    xs = np.sort(np.clip(xs, lo, hi), axis=1)
    widths = xs[:, 1:] - xs[:, :-1]
    k, i = np.nonzero(widths > _EPS)
    if len(k) == 0:
        return out
    xm = (xs[k, i] + xs[k, i + 1]) / 2.0
    lo_a, hi_a = _slab_intervals(a_edges, xm)
    lo_b, hi_b = _slab_intervals(b_edges[k], xm)
    ov = np.minimum(hi_a[:, :, None], hi_b[:, None, :]) - np.maximum(lo_a[:, :, None], lo_b[:, None, :])
    ov = np.where(ov > 0, ov, 0.0).reshape(len(xm), -1)
    # Left-to-right sums from 0.0, interval pairs in (i, j) order and then
    # slabs by x: np.sum would add pairwise and round differently.
    pairs = np.add.accumulate(np.concatenate([np.zeros((len(xm), 1)), ov], axis=1), axis=1)[:, -1]
    terms = np.zeros((len(live), widths.shape[1] + 1))
    terms[k, i + 1] = pairs * widths[k, i]
    out[live] = np.add.accumulate(terms, axis=1)[:, -1]
    return out


def polygon_iou(a: Polygon, b: Polygon | Sequence[Polygon]) -> float | np.ndarray:
    """Intersection-over-union of two polygons by exact area; 0 when disjoint.

    ``b`` may also be a sequence of polygons: the result is then a float64
    array with one IoU per polygon, each equal to the single-polygon result
    to the last bit (the overlaps come from one batched
    :func:`intersection_area` call).
    """
    if isinstance(b, Polygon):
        return float(_ious(a, [b])[0])
    return _ious(a, list(b))


def _ious(a: Polygon, polys: list[Polygon]) -> np.ndarray:
    inter = intersection_area(a, polys)
    union = a.area + np.array([p.area for p in polys]) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.minimum(1.0, np.maximum(0.0, inter / union))
    return np.where(union > _EPS, iou, 0.0)


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

def rotate90(p: Point, size_hw: tuple[int, int], turns: int) -> Point:
    """Single-point form of :func:`rotate90_points`, as Python floats."""
    x, y = rotate90_points(np.array([p], dtype=np.float64), size_hw, turns)[0]
    return (float(x), float(y))


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
