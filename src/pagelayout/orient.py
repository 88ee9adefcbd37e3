"""Orientation-aware detection across the 0/90/270-degree processing frames.

Lines are extracted independently in each frame, mapped back to the
original frame, and kept only when their estimated orientation (medians of
the orientation field over the line polygon) agrees with the processing
orientation within 45 degrees.  Survivors are deduplicated and re-clustered
into blocks per processing frame.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._raster import polygon_window
from .baselines import ExtractParams, detect_baselines
from .blocks import BlockParams, block_polygon, cluster_blocks, line_polygon, merge_block_lines
from .channels import ChannelMaps, OrientationMaps
from .geometry import Polygon, Polyline, polygon_iou, rotate90_points, rotated_size
from .layout import PageLayout, TextBlock, TextLine, sort_reading_order

logger = logging.getLogger("pagelayout.orient")

TURN_ANGLES = {0: 0.0, 1: 90.0, 3: 270.0}


@dataclass(frozen=True)
class OrientationEstimate:
    angle_deg: float
    x_med: float
    y_med: float


def angular_distance(a: float, b: float) -> float:
    """Circular distance between two angles in degrees, in [0, 180]."""
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def estimate_line_angle(line: TextLine, omaps: OrientationMaps) -> OrientationEstimate:
    """Componentwise medians of the orientation field over the line polygon."""
    sl, mask = polygon_window(line.polygon.ring, omaps.shape)
    if not mask.any():
        raise ValueError("empty polygon")
    x_med = float(np.median(omaps.ox[sl][mask]))
    y_med = float(np.median(omaps.oy[sl][mask]))
    return OrientationEstimate(math.degrees(math.atan2(y_med, x_med)), x_med, y_med)


def rotate_line(line: TextLine, size_hw: tuple[int, int], turns: int) -> TextLine:
    """Map a line between frames; heights are rotation-invariant."""
    return TextLine(
        line.id,
        Polyline(rotate90_points(line.baseline.points, size_hw, turns)),
        line.ascender,
        line.descender,
        Polygon(rotate90_points(line.polygon.ring, size_hw, turns), check_simple=False),
    )


def rotate_block(block: TextBlock, size_hw: tuple[int, int], turns: int) -> TextBlock:
    return TextBlock(
        block.id,
        [rotate_line(line, size_hw, turns) for line in block.lines],
        Polygon(rotate90_points(block.polygon.ring, size_hw, turns), check_simple=False),
    )


def rotate_layout(layout: PageLayout, turns: int) -> PageLayout:
    size = (layout.height, layout.width)
    nh, nw = rotated_size(size, turns)
    return PageLayout(layout.page_id, nh, nw, [rotate_block(b, size, turns) for b in layout.blocks])


def detect_multi_orientation(
    maps_by_turn: Mapping[int, ChannelMaps],
    omaps: OrientationMaps,
    extract_params: ExtractParams | None = None,
    block_params: BlockParams | None = None,
    merge: bool = True,
    max_angle_diff: float = 45.0,
    dedup_iou: float = 0.5,
    page_id: str = "page",
) -> PageLayout:
    """Combine per-orientation extractions into one layout.

    ``maps_by_turn`` holds the detection channels of the same page processed
    at counterclockwise quarter turns 0, 1 and 3; ``omaps`` is the
    orientation field in the original (turn-0) frame.  Lines whose estimated
    angle differs from the processing angle by more than ``max_angle_diff``
    are discarded; retained lines overlapping a better-aligned retained line
    with polygon IoU above ``dedup_iou`` are dropped as duplicates.  Blocks
    are then clustered per processing frame (a block never mixes lines from
    different frames) and mapped back.
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

    candidates = []  # (angdist, turn, index, frame_line, original_line)
    for t in (0, 1, 3):
        maps = maps_by_turn[t]
        frame_size = maps.shape
        back = (4 - t) % 4
        for i, bl in enumerate(detect_baselines(maps, extract_params)):
            try:
                frame_line = line_polygon(bl, maps, block_params, line_id=f"t{t}l{i}")
            except ValueError:
                continue
            original = rotate_line(frame_line, frame_size, back)
            try:
                est = estimate_line_angle(original, omaps)
            except ValueError:
                logger.debug("line %s covers no orientation pixels; dropped", frame_line.id)
                continue
            dist = angular_distance(est.angle_deg, TURN_ANGLES[t])
            if dist <= max_angle_diff + 1e-9:  # boundary angles are kept
                candidates.append((dist, t, i, frame_line, original))

    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    kept: list[tuple[float, int, int, TextLine, TextLine]] = []
    for cand in candidates:
        if all(polygon_iou(cand[4].polygon, k[4].polygon) <= dedup_iou for k in kept):
            kept.append(cand)

    placed: list[tuple[Polygon, list[TextLine]]] = []  # each block's outline and lines, mapped back
    for t in (0, 1, 3):
        frame_lines = [c[3] for c in kept if c[1] == t]
        frame_size = maps_by_turn[t].shape
        back = (4 - t) % 4
        for group in cluster_blocks(frame_lines, maps_by_turn[t], block_params):
            if merge:
                group = merge_block_lines(group, block_params, extract_params.max_control_points)
            outline = Polygon(rotate90_points(block_polygon(group.lines).ring, frame_size, back), check_simple=False)
            placed.append((outline, [rotate_line(line, frame_size, back) for line in group.lines]))

    placed.sort(key=lambda p: (p[0].bounds()[1], p[0].bounds()[0]))  # top edge, then left edge
    blocks = []
    line_counter = 0
    for k, (outline, lines) in enumerate(placed):
        relabeled = []
        for line in sort_reading_order(lines):
            relabeled.append(TextLine(f"l{line_counter}", line.baseline, line.ascender, line.descender, line.polygon))
            line_counter += 1
        blocks.append(TextBlock(f"b{k}", relabeled, outline))
    return PageLayout(page_id, size0[0], size0[1], blocks)
