"""Rasterization helpers: strokes (a disk is a one-point stroke), polygon fills and polyline sampling.

All masks are computed against pixel centers on the integer grid, which
keeps rendering equivariant under the 90-degree rotations used elsewhere.

Shapes are rasterized inside their own window: ``stroke_window`` and
``polygon_window`` return ``(window, mask)`` where ``window`` is a ``(row
slice, column slice)`` pair clipped to the frame and ``mask`` covers
exactly that window, so ``frame[window][mask] = value`` paints the shape
without a full-frame temporary.  A shape the frame clips to nothing gets
an empty window and a 0x0 mask.
"""

from __future__ import annotations

import numpy as np

from .geometry import _chunks, _next, _pad_rows, _segment_distance


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
        d = _segment_distance(np.arange(x0, x1 + 1)[None, :], np.arange(y0, y1 + 1)[:, None], p, q - p)
        mask[y0 - wy0 : y1 - wy0 + 1, x0 - wx0 : x1 - wx0 + 1] |= d <= half
    return (slice(wy0, wy1 + 1), slice(wx0, wx1 + 1)), mask


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


def sample_polylines(polylines: list[np.ndarray], step: float) -> tuple[np.ndarray, np.ndarray]:
    """Points along each polyline at arc-length intervals, endpoints included:
    ``(samples, counts)``, the (N, 2) samples polyline by polyline and the count of each.

    Polyline k's samples are ``np.interp`` of its points over its own
    cumulative lengths at ``np.arange(0.0, total, step)``, and at ``total``
    unless the last of those lies within 1e-9 of it, to the bit.  The
    lengths are summed left to right per polyline, as rows of a
    zero-padded array (polylines in :func:`_chunks`).  Each sample
    ``i * step`` takes the segment from the last point at or before it,
    found per point rather than per sample, and is interpolated by
    np.interp's rule: a sample on a point, or at or past the end, is that
    point.
    """
    if not len(polylines):
        return np.zeros((0, 2)), np.zeros(0, dtype=np.int64)
    pts = [np.asarray(p, dtype=np.float64) for p in polylines]
    n_pts = np.array([len(p) for p in pts])
    xy = np.concatenate(pts)
    first = np.cumsum(n_pts) - n_pts
    last = first + n_pts - 1
    line = np.repeat(np.arange(len(pts)), n_pts)
    slot = np.arange(len(xy)) - first[line]  # place in its polyline
    run = np.concatenate([[0.0], np.hypot(*np.diff(xy, axis=0).T)])  # arc length from the point before
    run[first] = 0.0
    cum = np.zeros(len(xy))
    for a, b in _chunks(n_pts):
        at = slice(first[a], last[b - 1] + 1)
        cum[at] = np.cumsum(_pad_rows(line[at] - a, run[at], b - a, 0.0), axis=1)[line[at] - a, slot[at]]
    total = cum[last]
    n_step = np.ceil(total / step).astype(np.int64)  # len(np.arange(0.0, total, step))
    counts = n_step + (total - np.maximum(n_step - 1, 0) * step > 1e-9)  # and the end, if not yet sampled
    # the first sample ``i * step`` at or past each point, exact after a one-step correction of the quotient
    q = np.ceil(cum / step)
    q -= (q > 0) & ((q - 1) * step >= cum)
    q += q * step < cum
    q = np.minimum(q.astype(np.int64), n_step[line])
    upto = np.append(q[1:], 0)
    upto[last] = counts
    knot = np.repeat(np.arange(len(xy)), upto - q)  # the last point at or before each sample
    rel = (np.arange(len(knot)) - np.repeat(np.cumsum(counts) - counts, counts)) * step - cum[knot]
    on_point = (slot == n_pts[line] - 1)[knot] | (rel == 0.0)
    out = np.empty((2, len(knot)))  # returned transposed: each coordinate contiguous
    for axis, v in enumerate(xy.T.copy()):
        with np.errstate(divide="ignore", invalid="ignore"):  # zero-length segments are never sampled
            slope = np.append(np.diff(v) / np.diff(cum), 0.0)
        at = v[knot]
        out[axis] = np.where(on_point, at, slope[knot] * rel + at)
    return out.T, counts


def sample_polyline(points: np.ndarray, step: float = 1.0) -> np.ndarray:
    """Points along the polyline at arc-length intervals, endpoints included (see :func:`sample_polylines`)."""
    return sample_polylines([points], step)[0]


def polyline_pixels(polylines: list[np.ndarray], shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer (rows, cols) of the in-bounds pixels each polyline traverses, and their counts per polyline.

    The pixels of polyline k, its half-pixel samples rounded, come k-th,
    in (row, col) order without repeats.  Only the sampling runs per
    polyline; rounding and the per-polyline ``unique`` run over all
    samples at once.
    """
    h, w = shape
    xy, counts = sample_polylines(polylines, 0.5)
    cols = np.rint(xy[:, 0]).astype(np.int64)
    rows = np.rint(xy[:, 1]).astype(np.int64)
    ok = (cols >= 0) & (cols < w) & (rows >= 0) & (rows < h)
    line = np.repeat(np.arange(len(counts)), counts)[ok]
    keys = np.sort(line * (h * w) + rows[ok] * w + cols[ok])
    keys = keys[np.diff(keys, prepend=-1) > 0]  # without repeats
    line, keys = keys // (h * w), keys % (h * w)
    return keys // w, keys % w, np.bincount(line, minlength=len(counts))
