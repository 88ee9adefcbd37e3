"""Planar geometry primitives shared across the extraction pipeline.

Coordinates are continuous pixels with the origin at the top-left corner
and y growing downward.  Pixel centers sit on integer coordinates.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError

logger = logging.getLogger("pagelayout.geometry")

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

    __slots__ = ("ring",)

    def __init__(self, ring, check_simple: bool = True):
        arr = _dedupe_consecutive(_as_point_array(ring))
        if len(arr) > 1 and np.all(np.abs(arr[0] - arr[-1]) <= _EPS):
            arr = arr[:-1]
        if len(arr) < 3:
            raise ValueError("polygon needs at least 3 distinct points")
        if abs(signed_area(arr)) <= _EPS:
            raise ValueError("polygon area is zero")
        if check_simple and not _ring_is_simple(arr):
            raise ValueError("polygon is self-intersecting")
        arr.flags.writeable = False
        self.ring = arr

    @property
    def area(self) -> float:
        return abs(signed_area(self.ring))

    def bounds(self) -> tuple[float, float, float, float]:
        lo = self.ring.min(axis=0)
        hi = self.ring.max(axis=0)
        return float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1])

    def __eq__(self, other) -> bool:
        return isinstance(other, Polygon) and np.array_equal(self.ring, other.ring)

    def __repr__(self) -> str:
        return f"Polygon({len(self.ring)} pts, area={self.area:.1f})"


def signed_area(ring: np.ndarray) -> float:
    """Shoelace area; positive for counterclockwise rings in y-down coordinates."""
    x = ring[:, 0]
    y = ring[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0


def _segments_cross(p1, p2, q1, q2) -> bool:
    """True if the open interiors of two segments intersect."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return ((d1 > _EPS and d2 < -_EPS) or (d1 < -_EPS and d2 > _EPS)) and (
        (d3 > _EPS and d4 < -_EPS) or (d3 < -_EPS and d4 > _EPS)
    )


def _ring_is_simple(ring: np.ndarray) -> bool:
    n = len(ring)
    nxt = np.roll(ring, -1, axis=0)
    ax, ay = ring[:, 0], ring[:, 1]
    ex = nxt[:, 0] - ax
    ey = nxt[:, 1] - ay
    # d1[i, j] = orientation of segment j's start edge vs vertex i (and its end)
    d1 = ex[None, :] * (ay[:, None] - ay[None, :]) - ey[None, :] * (ax[:, None] - ax[None, :])
    d2 = ex[None, :] * (nxt[:, 1][:, None] - ay[None, :]) - ey[None, :] * (nxt[:, 0][:, None] - ax[None, :])
    straddles = ((d1 > _EPS) & (d2 < -_EPS)) | ((d1 < -_EPS) & (d2 > _EPS))
    crossing = straddles & straddles.T
    idx = np.arange(n)
    adjacent = (idx[:, None] == idx[None, :]) | ((idx[:, None] - idx[None, :]) % n == 1) | (
        (idx[None, :] - idx[:, None]) % n == 1
    )
    return not (crossing & ~adjacent).any()


def _points_in_ring(ring: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Even-odd containment of many points, vectorized over edges."""
    nxt = np.roll(ring, -1, axis=0)
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
    nxt = np.roll(ring, -1, axis=0)
    d = nxt - ring
    l2 = np.maximum((d * d).sum(axis=1), 1e-18)[None, :]
    px, py = pts[:, 0][:, None], pts[:, 1][:, None]
    t = np.clip(((px - ring[:, 0][None, :]) * d[:, 0][None, :] + (py - ring[:, 1][None, :]) * d[:, 1][None, :]) / l2, 0.0, 1.0)
    cx = ring[:, 0][None, :] + t * d[:, 0][None, :]
    cy = ring[:, 1][None, :] + t * d[:, 1][None, :]
    return np.hypot(px - cx, py - cy).min(axis=1)


def horizontal_overlap(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Length of the intersection of two [lo, hi] intervals; 0 when disjoint or touching."""
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


# ---------------------------------------------------------------------------
# Polygon intersection area / IoU
# ---------------------------------------------------------------------------

def _segment_intersection_xs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x coordinates where edges of ring ``a`` cross edges of ring ``b``."""
    p1 = a
    r = np.roll(a, -1, axis=0) - a
    q1 = b
    s = np.roll(b, -1, axis=0) - b
    denom = r[:, None, 0] * s[None, :, 1] - r[:, None, 1] * s[None, :, 0]
    dx = q1[None, :, 0] - p1[:, None, 0]
    dy = q1[None, :, 1] - p1[:, None, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (dx * s[None, :, 1] - dy * s[None, :, 0]) / denom
        u = (dx * r[:, None, 1] - dy * r[:, None, 0]) / denom
    ok = (np.abs(denom) > _EPS) & (t >= -_EPS) & (t <= 1 + _EPS) & (u >= -_EPS) & (u <= 1 + _EPS)
    if not ok.any():
        return np.empty(0)
    ti, tj = np.nonzero(ok)
    return p1[ti, 0] + t[ti, tj] * r[ti, 0]


def _slab_crossings(ring: np.ndarray, xm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted edge-crossing ys per slab midpoint: (E, S) values, (S,) counts.

    Midpoints never coincide with vertex abscissae, so every edge either
    strictly straddles a midpoint or misses it.
    """
    x1 = ring[:, 0][:, None]
    y1 = ring[:, 1][:, None]
    nxt = np.roll(ring, -1, axis=0)
    x2 = nxt[:, 0][:, None]
    y2 = nxt[:, 1][:, None]
    xs = xm[None, :]
    straddle = ((x1 < xs) & (xs < x2)) | ((x2 < xs) & (xs < x1))
    with np.errstate(divide="ignore", invalid="ignore"):
        ys = y1 + (xs - x1) / (x2 - x1) * (y2 - y1)
    ys = np.where(straddle, ys, np.inf)
    return np.sort(ys, axis=0), straddle.sum(axis=0)


def _interval_overlap_total(ya: np.ndarray, yb: np.ndarray) -> float:
    """Overlap length of two sorted even-length crossing lists."""
    total = 0.0
    for i in range(0, len(ya) - 1, 2):
        for j in range(0, len(yb) - 1, 2):
            total += max(0.0, min(ya[i + 1], yb[j + 1]) - max(ya[i], yb[j]))
    return total


def intersection_area(a: Polygon, b: Polygon) -> float:
    """Area of overlap between two simple polygons.

    Decomposes the overlap into vertical slabs bounded by every vertex
    abscissa and every edge/edge crossing; inside a slab the overlap width
    varies linearly with x, so the midpoint sample integrates it exactly.
    """
    ax0, _, ax1, _ = a.bounds()
    bx0, _, bx1, _ = b.bounds()
    lo, hi = max(ax0, bx0), min(ax1, bx1)
    if hi - lo <= _EPS:
        return 0.0
    xs = np.concatenate([a.ring[:, 0], b.ring[:, 0], _segment_intersection_xs(a.ring, b.ring), [lo, hi]])
    xs = np.unique(np.clip(xs, lo, hi))
    widths = np.diff(xs)
    keep = widths > _EPS
    if not keep.any():
        return 0.0
    xm = (xs[:-1] + xs[1:])[keep] / 2.0
    widths = widths[keep]
    ys_a, counts_a = _slab_crossings(a.ring, xm)
    ys_b, counts_b = _slab_crossings(b.ring, xm)
    total = 0.0
    for s in range(len(xm)):
        ca, cb = counts_a[s], counts_b[s]
        if ca < 2 or cb < 2:
            continue
        ya = ys_a[:ca, s]
        yb = ys_b[:cb, s]
        if ca == 2 and cb == 2:
            ov = min(ya[1], yb[1]) - max(ya[0], yb[0])
            if ov > 0:
                total += ov * widths[s]
        else:
            total += _interval_overlap_total(ya, yb) * widths[s]
    return total


def polygon_iou(a: Polygon, b: Polygon) -> float:
    """Intersection-over-union of two polygons by exact area; 0 when disjoint."""
    area_a = a.area
    area_b = b.area
    if area_a <= _EPS or area_b <= _EPS:
        logger.debug("degenerate polygon in IoU, returning 0")
        return 0.0
    inter = intersection_area(a, b)
    union = area_a + area_b - inter
    if union <= _EPS:
        return 0.0
    return min(1.0, max(0.0, inter / union))


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
    counts: dict[tuple[int, int], int] = {}
    for s in kept:
        for u, v in ((s[0], s[1]), (s[1], s[2]), (s[2], s[0])):
            key = (u, v) if u < v else (v, u)
            counts[key] = counts.get(key, 0) + 1
    boundary = [e for e, c in counts.items() if c == 1]
    loop = _walk_boundary(boundary)
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
