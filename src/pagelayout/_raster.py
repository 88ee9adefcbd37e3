"""Rasterization helpers: strokes, disks, polygon fills and polyline sampling.

All masks are computed against pixel centers on the integer grid, which
keeps rendering equivariant under the 90-degree rotations used elsewhere.

Shapes are rasterized inside their own window: ``stroke_window``,
``disk_window`` and ``polygon_window`` return ``(window, mask)`` where
``window`` is a ``(row slice, column slice)`` pair clipped to the frame and
``mask`` covers exactly that window, so ``frame[window][mask] = value``
paints the shape without a full-frame temporary.  A shape the frame clips
to nothing gets an empty window and a 0x0 mask.
"""

from __future__ import annotations

import numpy as np

from .geometry import _next


def _segment_distance_grid(p, q, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Distance from every (col, row) grid center to segment p-q."""
    px, py = p
    qx, qy = q
    dx, dy = qx - px, qy - py
    cc, rr = np.meshgrid(cols, rows)
    seg_len2 = dx * dx + dy * dy
    if seg_len2 <= 1e-18:
        return np.hypot(cc - px, rr - py)
    t = np.clip(((cc - px) * dx + (rr - py) * dy) / seg_len2, 0.0, 1.0)
    return np.hypot(cc - (px + t * dx), rr - (py + t * dy))


Window = tuple[slice, slice]


def _empty_window() -> tuple[Window, np.ndarray]:
    return (slice(0, 0), slice(0, 0)), np.zeros((0, 0), dtype=bool)


def stroke_window(points: np.ndarray, shape: tuple[int, int], thickness: float) -> tuple[Window, np.ndarray]:
    """Pixels whose center lies within thickness/2 of the polyline."""
    h, w = shape
    half = thickness / 2.0
    pts = np.asarray(points, dtype=np.float64)
    boxes = []
    for p, q in zip(pts[:-1], pts[1:]):
        x0 = max(0, int(np.floor(min(p[0], q[0]) - half - 1)))
        x1 = min(w - 1, int(np.ceil(max(p[0], q[0]) + half + 1)))
        y0 = max(0, int(np.floor(min(p[1], q[1]) - half - 1)))
        y1 = min(h - 1, int(np.ceil(max(p[1], q[1]) + half + 1)))
        if x1 >= x0 and y1 >= y0:
            boxes.append((p, q, x0, x1, y0, y1))
    if not boxes:
        return _empty_window()
    wx0 = min(b[2] for b in boxes)
    wx1 = max(b[3] for b in boxes)
    wy0 = min(b[4] for b in boxes)
    wy1 = max(b[5] for b in boxes)
    mask = np.zeros((wy1 - wy0 + 1, wx1 - wx0 + 1), dtype=bool)
    for p, q, x0, x1, y0, y1 in boxes:
        cols = np.arange(x0, x1 + 1)
        rows = np.arange(y0, y1 + 1)
        d = _segment_distance_grid(p, q, cols, rows)
        mask[y0 - wy0 : y1 - wy0 + 1, x0 - wx0 : x1 - wx0 + 1] |= d <= half
    return (slice(wy0, wy1 + 1), slice(wx0, wx1 + 1)), mask


def disk_window(center, radius: float, shape: tuple[int, int]) -> tuple[Window, np.ndarray]:
    h, w = shape
    cx, cy = float(center[0]), float(center[1])
    x0 = max(0, int(np.floor(cx - radius - 1)))
    x1 = min(w - 1, int(np.ceil(cx + radius + 1)))
    y0 = max(0, int(np.floor(cy - radius - 1)))
    y1 = min(h - 1, int(np.ceil(cy + radius + 1)))
    if x1 < x0 or y1 < y0:
        return _empty_window()
    cc, rr = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
    return (slice(y0, y1 + 1), slice(x0, x1 + 1)), np.hypot(cc - cx, rr - cy) <= radius


def polygon_window(ring: np.ndarray, shape: tuple[int, int]) -> tuple[Window, np.ndarray]:
    """Even-odd scanline fill of a simple polygon over pixel centers.

    Every row in the ring's span meets every edge that straddles it
    (half-open in y) in one array pass; per row the sorted crossings pair
    up as (1st, 2nd), (3rd, 4th), ... into column spans rounded with a 1e-9
    tolerance.  A closed ring crosses each row an even number of times: an
    edge straddles row y iff exactly one of its ends has y_end <= y.
    """
    h, w = shape
    ring = np.asarray(ring, dtype=np.float64)
    ys = ring[:, 1]
    r0 = max(0, int(np.ceil(ys.min())))
    r1 = min(h - 1, int(np.floor(ys.max())))
    nxt = _next(ring)
    x1s, y1s = ring[:, 0], ring[:, 1]
    x2s, y2s = nxt[:, 0], nxt[:, 1]
    y = np.arange(r0, r1 + 1, dtype=np.float64)[:, None]
    row, e = np.nonzero(((y1s <= y) & (y < y2s)) | ((y2s <= y) & (y < y1s)))
    t = (y[row, 0] - y1s[e]) / (y2s[e] - y1s[e])
    xs = x1s[e] + t * (x2s[e] - x1s[e])
    order = np.lexsort((xs, row))
    row, xs = row[order], xs[order]
    # every row has an even count, so crossings 2k and 2k+1 share a row and bound a span
    left = np.arange(0, len(row) - 1, 2)
    c0 = np.clip(np.ceil(xs[left] - 1e-9), 0, w).astype(np.int64)
    c1 = np.clip(np.floor(xs[left + 1] + 1e-9), -1, w - 1).astype(np.int64)
    keep = c1 >= c0
    row, c0, c1 = row[left[keep]], c0[keep], c1[keep]
    if len(row) == 0:
        return _empty_window()
    wy0, wy1 = int(row[0]), int(row[-1])
    wx0, wx1 = int(c0.min()), int(c1.max())
    edges = np.zeros((wy1 - wy0 + 1, wx1 - wx0 + 2), dtype=np.int32)
    np.add.at(edges, (row - wy0, c0 - wx0), 1)
    np.add.at(edges, (row - wy0, c1 - wx0 + 1), -1)
    mask = np.cumsum(edges, axis=1)[:, :-1] > 0
    return (slice(wy0 + r0, wy1 + r0 + 1), slice(wx0, wx1 + 1)), mask


def cumulative_lengths(points: np.ndarray) -> np.ndarray:
    d = np.hypot(*np.diff(points, axis=0).T)
    return np.concatenate([[0.0], np.cumsum(d)])


def sample_polyline(points: np.ndarray, step: float = 1.0) -> np.ndarray:
    """Points along the polyline at arc-length intervals, endpoints included."""
    pts = np.asarray(points, dtype=np.float64)
    cum = cumulative_lengths(pts)
    total = cum[-1]
    ds = np.arange(0.0, total, step)
    if total - (ds[-1] if len(ds) else 0.0) > 1e-9:
        ds = np.concatenate([ds, [total]])
    x = np.interp(ds, cum, pts[:, 0])
    y = np.interp(ds, cum, pts[:, 1])
    return np.stack([x, y], axis=1)


def polyline_pixels(points: np.ndarray, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Integer (rows, cols) of in-bounds pixels traversed by the polyline."""
    h, w = shape
    samples = sample_polyline(points, step=0.5)
    cols = np.rint(samples[:, 0]).astype(np.int64)
    rows = np.rint(samples[:, 1]).astype(np.int64)
    ok = (cols >= 0) & (cols < w) & (rows >= 0) & (rows < h)
    keys = np.unique(rows[ok] * w + cols[ok])
    return keys // w, keys % w
