"""Render ground-truth channel maps from a page layout.

This is the inverse of extraction: baselines become strokes, baseline ends
become disks, block outlines become boundary strokes, and the two height
channels carry each line's ascender/descender value on its own baseline
stroke.  Rasterization is distance-based (pixel centers within half the
stroke thickness), which keeps rendering equivariant under 90-degree
rotations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._raster import disk_window, polygon_window, stroke_window
from .channels import ChannelMaps, OrientationMaps
from .layout import PageLayout

logger = logging.getLogger("pagelayout.render")


@dataclass(frozen=True)
class RenderParams:
    baseline_thickness: float = 3.0
    endpoint_radius: float = 3.0
    block_boundary_thickness: float = 3.0

    def __post_init__(self):
        for name in ("baseline_thickness", "endpoint_radius", "block_boundary_thickness"):
            if getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be >= 1")


def render_gt(layout: PageLayout, params: RenderParams | None = None) -> ChannelMaps:
    """Rasterize a layout into the five detection channels.

    Overlapping baseline strokes of different lines are resolved in document
    order (the later line wins) with a diagnostic.
    """
    params = params or RenderParams()
    h, w = layout.size
    base = np.zeros((h, w), dtype=np.float32)
    end = np.zeros((h, w), dtype=np.float32)
    asc = np.zeros((h, w), dtype=np.float32)
    des = np.zeros((h, w), dtype=np.float32)
    block = np.zeros((h, w), dtype=np.float32)
    assigned = np.zeros((h, w), dtype=bool)

    for blk in layout.blocks:
        ring = blk.polygon.ring
        closed = np.vstack([ring, ring[:1]])
        sl, m = stroke_window(closed, (h, w), params.block_boundary_thickness)
        block[sl][m] = 1.0

    for blk in layout.blocks:
        for line in blk.lines:
            sl, m = stroke_window(line.baseline.points, (h, w), params.baseline_thickness)
            if (m & assigned[sl]).any():
                logger.warning("overlapping baseline pixels on page %r; later line %r wins", layout.page_id, line.id)
            base[sl][m] = 1.0
            asc[sl][m] = line.ascender
            des[sl][m] = line.descender
            assigned[sl] |= m
            for p in (line.baseline.points[0], line.baseline.points[-1]):
                sl, m = disk_window(p, params.endpoint_radius, (h, w))
                end[sl][m] = 1.0

    return ChannelMaps(base, end, asc, des, block)


def render_orientation_gt(layout: PageLayout) -> OrientationMaps:
    """Unit baseline-direction vectors at every pixel inside a line polygon."""
    h, w = layout.size
    ox = np.zeros((h, w), dtype=np.float32)
    oy = np.zeros((h, w), dtype=np.float32)
    filled = np.zeros((h, w), dtype=bool)

    for blk in layout.blocks:
        for line in blk.lines:
            sl, mask = polygon_window(line.polygon.ring, (h, w))
            if not mask.any():
                continue
            if (mask & filled[sl]).any():
                logger.warning("overlapping line polygons on page %r; later line %r wins", layout.page_id, line.id)
            rows, cols = np.nonzero(mask)
            rows += sl[0].start
            cols += sl[1].start
            pts = line.baseline.points
            segs_p = pts[:-1]
            segs_q = pts[1:]
            deltas = segs_q - segs_p
            lens = np.hypot(deltas[:, 0], deltas[:, 1])
            units = deltas / lens[:, None]
            best_d = np.full(rows.shape, np.inf)
            best_i = np.zeros(rows.shape, dtype=np.int64)
            for i, (p, dvec, l) in enumerate(zip(segs_p, deltas, lens)):
                t = np.clip(((cols - p[0]) * dvec[0] + (rows - p[1]) * dvec[1]) / (l * l), 0.0, 1.0)
                d = np.hypot(cols - (p[0] + t * dvec[0]), rows - (p[1] + t * dvec[1]))
                closer = d < best_d
                best_d[closer] = d[closer]
                best_i[closer] = i
            ox[rows, cols] = units[best_i, 0].astype(np.float32)
            oy[rows, cols] = units[best_i, 1].astype(np.float32)
            filled[sl] |= mask

    return OrientationMaps(ox, oy)
