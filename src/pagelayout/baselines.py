"""Baseline detection from the base/end channels.

Pipeline: box smoothing, vertical non-maxima suppression, endpoint channel
subtraction, thresholding, anisotropic connected components, a minimum
horizontal-extent filter, and per-component linear-spline fitting.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.sparse import coo_matrix, csgraph

from .channels import ChannelMaps
from .geometry import Polyline

logger = logging.getLogger("pagelayout.baselines")


@dataclass(frozen=True)
class ExtractParams:
    smooth_size: int = 3
    nms_size: int = 7
    threshold: float = 0.3
    cc_width: int = 5
    cc_height: int = 9
    min_length: float = 5.0
    max_control_points: int = 10

    def __post_init__(self):
        if self.smooth_size < 1 or self.smooth_size % 2 == 0:
            raise ValueError("smooth_size must be odd and positive")
        if self.nms_size < 1 or self.nms_size % 2 == 0:
            raise ValueError("nms_size must be odd and positive")
        if not (0.0 <= self.threshold <= 1.0):
            raise ValueError("threshold must be in [0, 1]")
        if min(self.cc_width, self.cc_height, self.max_control_points) < 1 or self.min_length <= 0:
            raise ValueError("all sizes must be positive")


def smooth(arr: np.ndarray, size: int) -> np.ndarray:
    """size x size box mean with edge replication, as a new float64 array."""
    return ndimage.uniform_filter(arr, size=size, output=np.empty(np.shape(arr)), mode="nearest")


def vertical_nms(arr: np.ndarray, size: int, out: np.ndarray | None = None) -> np.ndarray:
    """Keep pixels that tie the maximum of the size-tall window centered on them.

    Suppressed pixels become 0; ties with the window maximum survive, so
    exact-value plateaus are kept and left to the later component stage.
    Returns a new array, or with ``out=arr`` (a float64 ``arr``) suppresses
    in place.
    """
    a = np.asarray(arr, dtype=np.float64)
    # window maxima as shifted maxima over one buffer; a window clipped by
    # the frame edge has the maximum the edge-replicated one has
    vmax = a.copy()
    for k in range(1, min(size // 2, a.shape[0] - 1) + 1):
        np.maximum(vmax[k:], a[:-k], out=vmax[k:])
        np.maximum(vmax[:-k], a[k:], out=vmax[:-k])
    suppressed = ~(a >= vmax)
    if out is None:
        out = a.copy()
    np.copyto(out, 0.0, where=suppressed)
    return out


def connected_components(
    fg: np.ndarray, cc_width: int = 5, cc_height: int = 9
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Components of a boolean map under a centered rectangular neighborhood.

    Two foreground pixels are adjacent iff |dx| <= (cc_width-1)//2 and
    |dy| <= (cc_height-1)//2; components are the transitive closure.

    Run-based labeling (He, Chao & Suzuki, IEEE TIP 2008) in array form:
    same-row pixels whose column step is at most dx chain into segments.
    Two segments k <= dy rows apart are adjacent iff their column spans come
    within dx of each other (each segment has a pixel in every dx columns of
    its span), so the candidates of a segment in row r-k are one contiguous
    run of that row's segments, found with ``searchsorted``.  The segment
    graph is labeled by ``scipy.sparse.csgraph.connected_components``.

    Returns a list of (rows, cols) index arrays, one per component, ordered
    by (topmost row, leftmost column, first pixel in raster order); the
    pixels of each component are in raster order.
    """
    fg = np.asarray(fg, dtype=bool)
    dx = (cc_width - 1) // 2
    dy = (cc_height - 1) // 2
    rows, cols = np.nonzero(fg)
    if len(rows) == 0:
        return []
    new_seg = np.ones(len(rows), dtype=bool)
    new_seg[1:] = (rows[1:] != rows[:-1]) | (np.diff(cols) > dx)
    first = np.nonzero(new_seg)[0]  # first pixel of each segment
    last = np.append(first[1:] - 1, len(rows) - 1)
    seg_row, seg_start, seg_end = rows[first], cols[first], cols[last]

    # (row, col) keys; a row's stride exceeds any column +- dx, so rows never mix.
    stride = fg.shape[1] + dx + 1
    start_keys = seg_row * stride + seg_start
    end_keys = seg_row * stride + seg_end
    src, dst = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for k in range(1, dy + 1):
        lo = np.searchsorted(end_keys, (seg_row - k) * stride + seg_start - dx, side="left")
        hi = np.searchsorted(start_keys, (seg_row - k) * stride + seg_end + dx, side="right")
        counts = np.maximum(hi - lo, 0)
        offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        src.append(np.repeat(np.arange(len(first)), counts))
        dst.append(np.repeat(lo, counts) + offsets)
    src, dst = np.concatenate(src), np.concatenate(dst)
    graph = coo_matrix((np.ones(len(src)), (src, dst)), shape=(len(first), len(first)))
    n_comp, seg_label = csgraph.connected_components(graph, directed=False)

    label = np.repeat(seg_label, last - first + 1)
    order = np.argsort(label, kind="stable")  # raster order inside each component
    bounds = np.searchsorted(label[order], np.arange(n_comp + 1))
    heads = bounds[:-1]
    rows, cols = rows[order], cols[order]
    rank = np.lexsort((order[heads], np.minimum.reduceat(cols, heads), rows[heads]))
    return [(rows[bounds[c] : bounds[c + 1]], cols[bounds[c] : bounds[c + 1]]) for c in rank]


def _fit_spline(components: list[tuple[np.ndarray, np.ndarray]], max_points: int) -> list[Polyline]:
    """Fit uniformly spaced control points to each component; y is the mean row per x-bin.

    A component spanning columns ``minc..maxc`` gets ``n = max(2,
    min(max_points, width))`` control points at ``linspace(minc, maxc, n)``;
    each pixel falls in the bin of its nearest control point, and a bin
    without pixels takes the value interpolated between its neighbours.
    All components are fitted at once: one ``bincount`` over (component,
    bin) keys adds the rows of each bin in pixel order, so every sum is the
    one a single component's ``bincount`` gives.
    """
    if not components:
        return []
    sizes = np.array([len(c) for _, c in components])
    starts = np.cumsum(sizes) - sizes
    rows = np.concatenate([r for r, _ in components]).astype(np.float64)
    cols = np.concatenate([c for _, c in components]).astype(np.float64)
    minc = np.minimum.reduceat(cols, starts).astype(np.int64)
    maxc = np.maximum.reduceat(cols, starts).astype(np.int64)
    n = np.maximum(2, np.minimum(max_points, maxc - minc + 1))
    step = (maxc - minc) / (n - 1)
    first_bin = np.cumsum(n) - n
    bins = np.clip(np.rint((cols - np.repeat(minc, sizes)) / np.repeat(step, sizes)).astype(np.int64), 0, np.repeat(n - 1, sizes))
    keys = np.repeat(first_bin, sizes) + bins
    counts = np.bincount(keys, minlength=int(n.sum()))
    sums = np.bincount(keys, weights=rows, minlength=int(n.sum()))
    ys = np.divide(sums, counts, out=np.full(len(sums), np.nan), where=counts > 0)
    for k in np.flatnonzero(np.add.reduceat(counts == 0, first_bin)):  # bins without pixels
        part = ys[first_bin[k] : first_bin[k] + n[k]]
        idx = np.nonzero(counts[first_bin[k] : first_bin[k] + n[k]])[0]
        part[:] = np.interp(np.arange(n[k]), idx, part[idx])
    xs = np.empty(len(ys))
    for m in np.unique(n):
        at = n == m
        xs[first_bin[at, None] + np.arange(m)] = np.linspace(minc[at], maxc[at], m, axis=1)
    pts = np.stack([xs, ys], axis=1)
    return [Polyline(pts[a : a + m]) for a, m in zip(first_bin, n)]


def detect_baselines(maps: ChannelMaps, params: ExtractParams | None = None) -> list[Polyline]:
    """Extract baseline splines from the base and end channels."""
    return _detect(maps.base, maps.end, params or ExtractParams())


def _detect(base: np.ndarray, end: np.ndarray, params: ExtractParams) -> list[Polyline]:
    """``detect_baselines`` on bare planes, for callers that mask ``base`` first."""
    # smoothing, suppression and end subtraction share one float64 frame
    response = smooth(base, params.smooth_size)
    vertical_nms(response, params.nms_size, out=response)
    np.subtract(response, end, out=response)
    np.maximum(response, 0.0, out=response)
    fg = response >= params.threshold

    kept = []
    for rows, cols in connected_components(fg, params.cc_width, params.cc_height):
        width = int(cols.max()) - int(cols.min()) + 1
        if width < max(params.min_length, 2):
            continue
        height = int(rows.max()) - int(rows.min()) + 1
        if height > params.cc_height:
            logger.debug("component taller than the connectivity window (%d px); fitting anyway", height)
        kept.append((rows, cols))
    return _fit_spline(kept, params.max_control_points)
