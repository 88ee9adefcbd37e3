"""Orientation-aware detection across the 0/90/270-degree processing frames.

Before detection, each frame's ``base`` channel is gated by the orientation
field: where the field is defined (``|o| > 0.5``) and more than 45 degrees
from the frame's orientation, the pixel is zeroed, so a frame detects only
lines its orientation allows.  The masks are built once per page, in the
turn-0 frame, from float32 comparisons on the unit vectors (turn 0 keeps
``ox >= |oy|``, turn 1 ``oy >= |ox|``, turn 3 ``-oy >= |ox|``; 45 degrees
and undefined pixels are kept).  The per-line filter below stays the rule;
the gate drops most of the lines it would reject before their polygons
exist.  A short fragment that an ungated frame builds out of pixels of
another orientation, and that passes the filter, is no longer detected.

Lines are then extracted independently in each frame, each frame's
candidates built at once as the plain-data fragments of ``extract_page``.
A candidate's polygon (or its offset ring) is mapped back to the original
frame, and the line is kept only when its estimated orientation (medians of
the orientation field over that polygon) agrees with the processing
orientation within 45 degrees.  Survivors are deduplicated and, still as
fragments, clustered and merged into blocks per processing frame.  The
lines that come out are mapped back, each block is outlined by the convex
hull of its mapped-back line polygons, and each output line and block is
built once, in the original frame, with its final id.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from ._raster import polygon_window
from .baselines import ExtractParams, _detect
from .baselines import detect_baselines  # noqa: F401  (perfbench's traced run wraps orient.detect_baselines)
from .blocks import BlockParams, _baseline_fragments, _Fragment, block_polygon, cluster_blocks, merge_block_lines
from .blocks import line_polygon  # noqa: F401  (perfbench's traced run wraps orient.line_polygon)
from .channels import ChannelMaps, OrientationMaps
from .geometry import Polygon, Polyline, clip_to_page, polygon_iou, rotate90_points, rotated_size
from .layout import PageLayout, TextBlock, TextLine, reading_key

logger = logging.getLogger("pagelayout.orient")

TURN_ANGLES = {0: 0.0, 1: 90.0, 3: 270.0}
MAX_ANGLE_DIFF = 45.0  # degrees a kept line's orientation may differ from its frame's
DEDUP_IOU = 0.5  # polygon IoU above which a worse-aligned line is a duplicate


@dataclass(frozen=True)
class OrientationEstimate:
    angle_deg: float
    x_med: float
    y_med: float


def angular_distance(a: float, b: float) -> float:
    """Circular distance between two angles in degrees, in [0, 180]."""
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def estimate_line_angle(polygon: Polygon, omaps: OrientationMaps) -> OrientationEstimate:
    """Componentwise medians of the orientation field over a line polygon."""
    sl, mask = polygon_window(polygon.ring, omaps.shape)
    if not mask.any():
        raise ValueError("empty polygon")
    x_med = float(np.median(omaps.ox[sl][mask]))
    y_med = float(np.median(omaps.oy[sl][mask]))
    return OrientationEstimate(math.degrees(math.atan2(y_med, x_med)), x_med, y_med)


def _orientation_gate(omaps: OrientationMaps) -> dict[int, np.ndarray]:
    """Turn-0-frame masks of the pixels each processing frame may detect on, by turn.

    A pixel whose orientation is defined (``|o| > 0.5``) is kept for the
    frames within 45 degrees of it, boundary included; an undefined pixel is
    kept for every frame.
    """
    ox, oy = omaps.ox, omaps.oy
    undefined = ox * ox + oy * oy <= 0.25
    return {
        0: undefined | (ox >= np.abs(oy)),
        1: undefined | (oy >= np.abs(ox)),
        3: undefined | (-oy >= np.abs(ox)),
    }


def rotate_polygon(polygon: Polygon, size_hw: tuple[int, int], turns: int) -> Polygon:
    """Map a polygon between frames, clipped to the one it maps into (a pixel-centre quarter
    turn carries an edge 1 px past it); raises ``ValueError`` when no area is left there."""
    ring = rotate90_points(polygon.ring, size_hw, turns)
    return clip_to_page(Polygon(ring, check_simple=False), *rotated_size(size_hw, turns))


def rotate_line(line: TextLine, size_hw: tuple[int, int], turns: int) -> TextLine:
    """Map a line between frames; heights are rotation-invariant."""
    return TextLine(
        line.id,
        Polyline(rotate90_points(line.baseline.points, size_hw, turns)),
        line.ascender,
        line.descender,
        rotate_polygon(line.polygon, size_hw, turns),
    )


def rotate_block(block: TextBlock, size_hw: tuple[int, int], turns: int) -> TextBlock:
    return TextBlock(
        block.id,
        [rotate_line(line, size_hw, turns) for line in block.lines],
        rotate_polygon(block.polygon, size_hw, turns),
    )


def rotate_layout(layout: PageLayout, turns: int) -> PageLayout:
    """``layout`` after ``turns`` counterclockwise pixel-centre quarter turns (see ``rotate90_points``).

    Such a turn (x -> w - 1 - x) maps [0, w - 1] x [0, h - 1] onto itself,
    not the page box [0, w] x [0, h].  Polygons are clipped to the new page,
    but geometry in the last pixel column or row can map off it, and a
    baseline there makes ``PageLayout`` raise ``LayoutError``.  A layout
    inside [0, w - 1] x [0, h - 1] comes back under ``4 - turns`` turns.
    """
    size = (layout.height, layout.width)
    nh, nw = rotated_size(size, turns)
    return PageLayout(layout.page_id, nh, nw, [rotate_block(b, size, turns) for b in layout.blocks])


class _Placed(NamedTuple):
    """An output line before its final id: mapped back, keyed by its frame id's ``reading_key``."""

    order: tuple[float, float, str]
    baseline: Polyline
    ascender: float
    descender: float
    polygon: Polygon


def detect_multi_orientation(
    maps_by_turn: Mapping[int, ChannelMaps],
    omaps: OrientationMaps,
    extract_params: ExtractParams | None = None,
    block_params: BlockParams | None = None,
    merge: bool = True,
    page_id: str = "page",
) -> PageLayout:
    """Combine per-orientation extractions into one layout.

    ``maps_by_turn`` holds the detection channels of the same page processed
    at counterclockwise quarter turns 0, 1 and 3; ``omaps`` is the
    orientation field in the original (turn-0) frame.  Each frame detects
    only on the pixels the field allows it (see the module docstring).
    Lines whose estimated angle differs from the processing angle by more
    than ``MAX_ANGLE_DIFF`` are discarded; retained lines overlapping a
    better-aligned retained line with polygon IoU above ``DEDUP_IOU`` are
    dropped as duplicates.  Blocks are then clustered per processing frame
    (a block never mixes lines from different frames); each block's lines are
    mapped back, outlined there by ``block_polygon`` and the blocks ordered
    by that outline.
    """
    extract_params = extract_params or ExtractParams()
    block_params = block_params or BlockParams()
    if set(maps_by_turn) != {0, 1, 3}:
        raise ValueError("maps_by_turn must provide turns 0, 1 and 3")
    size0 = maps_by_turn[0].shape
    if omaps.shape != size0:
        raise ValueError("orientation maps shape differs from the turn-0 maps")
    for t in (1, 3):
        if maps_by_turn[t].shape != rotated_size(size0, t):
            raise ValueError(f"turn-{t} maps shape is not the rotation of the turn-0 shape")

    candidates = []  # (angdist, turn, index, fragment, its polygon in the original frame)
    for t, keep in _orientation_gate(omaps).items():
        maps = maps_by_turn[t]
        frame_size = maps.shape
        back = (4 - t) % 4
        base = np.where(np.rot90(keep, t), maps.base, 0.0)
        for i, frag in _baseline_fragments(_detect(base, maps.end, extract_params), maps, block_params, f"t{t}l"):
            try:
                polygon = rotate_polygon(frag.outline(), frame_size, back)
            except ValueError:
                continue
            try:
                est = estimate_line_angle(polygon, omaps)
            except ValueError:
                logger.debug("line %s covers no orientation pixels; dropped", frag.id)
                continue
            dist = angular_distance(est.angle_deg, TURN_ANGLES[t])
            if dist <= MAX_ANGLE_DIFF + 1e-9:  # boundary angles are kept
                candidates.append((dist, t, i, frag, polygon))

    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    kept: list[tuple[float, int, int, _Fragment, Polygon]] = []
    for cand in candidates:
        if (polygon_iou(cand[4], [k[4] for k in kept]) <= DEDUP_IOU).all():
            kept.append(cand)
    in_original = {id(c[3]): c[4] for c in kept}

    placed = []  # per block: its outline and its lines, mapped back
    for t in (0, 1, 3):
        frame_size = maps_by_turn[t].shape
        back = (4 - t) % 4
        for group in cluster_blocks([c[3] for c in kept if c[1] == t], maps_by_turn[t], block_params):
            if merge:
                group = merge_block_lines(group, frame_size, block_params, extract_params.max_control_points)
            lines = []
            for frag in group.lines:
                polygon = in_original.get(id(frag))
                if polygon is None:  # a merged line
                    polygon = rotate_polygon(frag.outline(), frame_size, back)
                baseline = Polyline(rotate90_points(frag.baseline.points, frame_size, back))
                lines.append(_Placed(reading_key(baseline, frag.id), baseline, frag.ascender, frag.descender, polygon))
            lines.sort(key=lambda p: p.order)
            if lines:  # merging drops a line with no area left on the frame
                placed.append((block_polygon(lines), lines))

    placed.sort(key=lambda p: (p[0].bounds()[1], p[0].bounds()[0]))  # top edge, then left edge
    line_ids = (f"l{i}" for i in itertools.count())
    blocks = []
    for k, (outline, lines) in enumerate(placed):
        block_lines = [TextLine(next(line_ids), p.baseline, p.ascender, p.descender, p.polygon) for p in lines]
        blocks.append(TextBlock(f"b{k}", block_lines, outline))
    return PageLayout(page_id, size0[0], size0[1], blocks)
