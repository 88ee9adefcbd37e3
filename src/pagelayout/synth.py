"""Seeded generator of plausible page layouts plus a map corruptor.

``generate`` builds pages whose ground truth is recoverable by the
extraction pipeline by construction: within a block, consecutive baselines
sit closer than the taller line's text height (so the neighbour rule keeps
them together) while line polygons never overlap; blocks are separated
vertically by well over one line height and horizontally by clear gutters.
Squaring those two in-block constraints requires ascenders that shrink
slightly down the block (or descenders that grow); the generator drifts
ascenders down ~1 px per line and bumps a descender when a pair would
otherwise have no feasible spacing.  Line extents are ragged with
alternating insets.  A block's outline is the convex hull of its line
polygons (``block_polygon``, as in extraction); its sides run through the
outer line ends, so its rendered boundary stays clear of the penalty strips
between neighbour lines, which start at the inner ends.

All randomness comes from the splitmix64 stream documented in
``pagelayout._rng``, so identical configs reproduce identical layouts on
any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ._rng import Rng
from .blocks import block_polygon, polygon_from_baseline
from .channels import ChannelMaps
from .geometry import Polyline
from .layout import PageLayout, TextBlock, TextLine

_MARGIN = 16
_COL_GAP = 24
_MIN_COL_W = 96
_MAX_BLOCKS_PER_COL = 3


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    page_size: tuple[int, int] = (576, 768)
    columns: tuple[int, int] = (1, 3)
    lines_per_block: tuple[int, int] = (3, 6)
    ascender_range: tuple[float, float] = (8.0, 24.0)
    descender_ratio: tuple[float, float] = (0.2, 0.5)
    vertical_line_prob: float = 0.0
    baseline_jitter: float = 0.0

    def __post_init__(self):
        if self.columns[0] < 1 or self.columns[1] < self.columns[0]:
            raise ValueError("invalid columns range")
        if self.lines_per_block[0] < 1 or self.lines_per_block[1] < self.lines_per_block[0]:
            raise ValueError("invalid lines_per_block range")
        if self.ascender_range[0] < 3.0 or self.ascender_range[1] < self.ascender_range[0]:
            raise ValueError("invalid ascender_range")
        if not (0.0 <= self.vertical_line_prob <= 1.0):
            raise ValueError("vertical_line_prob must be in [0, 1]")
        if self.baseline_jitter < 0:
            raise ValueError("baseline_jitter must be >= 0")


def _block_lines(rng: Rng, n: int, width: float, cfg: SynthConfig):
    """Baselines and heights of one block in local coordinates.

    Returns (entries, extent) where each entry is (points, ascender,
    descender) and ``extent`` is the local height of the block footprint.
    Baseline rows are integers so rendered strokes quantize crisply.
    """
    jit = cfg.baseline_jitter
    m = 0.3 + 2.0 * jit
    entries = []
    asc = rng.uniform(*cfg.ascender_range)
    prev_y = prev_asc = prev_des = None
    y = int(math.ceil(asc + 2.0))
    for i in range(n):
        if i > 0:
            asc = max(3.0, asc - rng.uniform(0.9, 1.6))
        des = asc * rng.uniform(*cfg.descender_ratio)
        if i > 0:
            pitch = int(math.ceil(asc + prev_des + m))
            y = prev_y + pitch
            if max(prev_asc + prev_des, asc + des) <= pitch + m:
                des = (pitch + m + 0.05 + rng.uniform(0.0, 0.4)) - asc
        if i % 2 == 0:
            inset_l, inset_r = rng.uniform(2.0, 5.0), rng.uniform(2.0, 5.0)
        else:
            inset_l, inset_r = rng.uniform(9.0, 12.0), rng.uniform(9.0, 12.0)
        x0, x1 = inset_l, width - inset_r
        if jit > 0:
            xs = np.linspace(x0, x1, 5)
            ys = np.array([y + rng.uniform(-jit, jit) for _ in range(5)])
            pts = np.stack([xs, ys], axis=1)
        else:
            pts = np.array([[x0, float(y)], [x1, float(y)]])
        entries.append((pts, asc, des))
        prev_y, prev_asc, prev_des = y, asc, des
    extent = int(math.ceil(prev_y + prev_des + jit + 2.0))
    return entries, extent


def _make_block(block_id: str, entries, line_start: int) -> TextBlock:
    lines = []
    for k, (pts, asc, des) in enumerate(entries):
        lines.append(
            TextLine(f"l{line_start + k}", Polyline(pts), asc, des, polygon_from_baseline(pts, asc, des))
        )
    return TextBlock(block_id, lines, block_polygon(lines))


def generate(cfg: SynthConfig) -> PageLayout:
    """Deterministic synthetic page layout for the given config."""
    rng = Rng(cfg.seed)
    height, width = cfg.page_size
    usable_w = width - 2 * _MARGIN
    usable_h = height - 2 * _MARGIN
    if usable_w < _MIN_COL_W or usable_h < 4 * cfg.ascender_range[0]:
        raise ValueError("infeasible config: page too small")

    want_vertical = rng.uniform() < cfg.vertical_line_prob
    vertical_entries = None
    v_extent = 0
    if want_vertical:
        n_v = rng.randint(*cfg.lines_per_block)
        v_len = rng.uniform(0.40, 0.65) * usable_h
        vertical_entries, v_extent = _block_lines(rng, n_v, v_len, cfg)
        if usable_w - (v_extent + _COL_GAP) < _MIN_COL_W:
            vertical_entries = None
            v_extent = 0

    col_area = usable_w - (v_extent + _COL_GAP if vertical_entries else 0)
    n_cols = rng.randint(*cfg.columns)
    while n_cols > 1 and (col_area - (n_cols - 1) * _COL_GAP) / n_cols < _MIN_COL_W:
        n_cols -= 1
    col_w = (col_area - (n_cols - 1) * _COL_GAP) / n_cols

    blocks: list[TextBlock] = []
    line_counter = 0

    for col in range(n_cols):
        col_x = _MARGIN + col * (col_w + _COL_GAP)
        placed = 0
        last_baseline_y = last_height = last_bottom = None
        while placed < _MAX_BLOCKS_PER_COL:
            n = rng.randint(*cfg.lines_per_block)
            entries, extent = _block_lines(rng, n, col_w, cfg)
            first_pts, first_asc, first_des = entries[0]
            first_y = float(np.mean(first_pts[:, 1]))
            if placed == 0:
                y_off = _MARGIN + rng.randint(0, 8)
            else:
                need = 1.35 * max(last_height, first_asc + first_des) + 2.0
                y_off = int(math.ceil(max(last_bottom + 4.0, last_baseline_y + need - first_y)))
            if y_off + extent > height - _MARGIN:
                break
            shifted = [(pts + np.array([col_x, y_off]), a, d) for pts, a, d in entries]
            blocks.append(_make_block(f"b{len(blocks)}", shifted, line_counter))
            line_counter += n
            placed += 1
            last_pts, last_asc, last_des = shifted[-1]
            last_baseline_y = float(np.mean(last_pts[:, 1]))
            last_height = last_asc + last_des
            last_bottom = y_off + extent

    if vertical_entries:
        # Rotate the locally horizontal block so its lines read top to bottom.
        tmp = [(np.stack([(v_extent - 1) - pts[:, 1], pts[:, 0]], axis=1), a, d) for pts, a, d in vertical_entries]
        max_x = max(float(p[:, 0].max()) + a for p, a, _ in tmp)
        min_x = min(float(p[:, 0].min()) - d for p, _, d in tmp)
        min_y = min(float(p[:, 1].min()) for p, _, _ in tmp)
        dx = round((width - _MARGIN - 2.0) - max_x)
        dy = round(_MARGIN + 2.0 + rng.randint(0, 8) - min_y)
        if min_x + dx > _MARGIN:
            shifted = [(pts + np.array([dx, dy]), a, d) for pts, a, d in tmp]
            blocks.append(_make_block(f"b{len(blocks)}", shifted, line_counter))
            line_counter += len(shifted)

    if not blocks:
        raise ValueError("infeasible config: no block fits the page")
    return PageLayout(f"synth-{cfg.seed}", height, width, blocks)


def _tear(base: np.ndarray, dropout_prob: float, rng: Rng) -> np.ndarray:
    """Column-run dropout of base-channel foreground, in place on ``base``.

    Tears are drawn independently per foreground stroke so different lines
    do not break at the same columns.  ``dropout_prob`` is the expected
    fraction of stroke columns torn; runs are 2-6 px wide, so the
    per-column start probability follows the renewal identity
    q * E[W] / (q * E[W] + 1 - q) = dropout_prob with E[W] = 4.
    """
    mean_w = 4.0
    q = min(1.0, dropout_prob / (mean_w - (mean_w - 1.0) * dropout_prob))
    labels, _ = ndimage.label(base > 0.5, structure=np.ones((3, 3), dtype=bool))
    boxes = ndimage.find_objects(labels)
    # Each stroke is torn inside its own bounding box, left to right: one
    # draw per column (start a run when its uniform is below q), and a run
    # takes its width 2 + u % 5 from the next draw.  A stroke of c columns
    # uses at most c + 1 draws, so 2 per column covers every walk.
    first = rng._count
    draws = rng.u64_array(2 * sum(cols.stop - cols.start for _, cols in boxes))
    starts = ((draws >> np.uint64(11)).astype(np.float64) * 2.0**-53 < q).tolist()
    widths = (draws % np.uint64(5) + np.uint64(2)).tolist()
    i = 0
    for lab, (rows, cols) in enumerate(boxes, start=1):
        comp = None
        c, c_hi = 0, cols.stop - cols.start
        while c < c_hi:
            if starts[i]:
                run = widths[i + 1]
                if comp is None:
                    comp, box = labels[rows, cols] == lab, base[rows, cols]
                box[:, c : c + run][comp[:, c : c + run]] = 0.0
                i += 2
                c += run
            else:
                i += 1
                c += 1
    rng._count = first + i
    return base


def _add_noise(src: np.ndarray, sigma: float, lo: float, hi: float | None, rng: Rng) -> np.ndarray:
    """float32 ``src + sigma * normal`` clamped to ``[lo, hi]``, one block of Box-Muller draws at a time."""
    out = np.empty(src.shape, np.float32)
    flat, dst = src.reshape(-1), out.reshape(-1)
    for at, noise in rng.normal_blocks(flat.size):
        k = len(noise)
        np.multiply(noise, sigma, out=noise)
        np.add(flat[at : at + k], noise, out=noise)
        np.clip(noise, lo, hi, out=noise)  # hi None: np.maximum
        dst[at : at + k] = noise
    return out


def corrupt(
    maps: ChannelMaps,
    noise_sigma: float = 0.0,
    blur_size: int = 1,
    dropout_prob: float = 0.0,
    rng_seed: int = 0,
) -> ChannelMaps:
    """Degrade clean maps into plausible imperfect predictions.

    Applies, in order: box blur of every channel, column-run dropout of
    base-channel foreground (each column starts a 2-6 px wide dropout run
    with probability ``dropout_prob``), then clamped Gaussian noise on every
    channel.  Deterministic per ``rng_seed``.  Raises ``ValueError`` unless
    ``0 <= dropout_prob <= 1``, ``noise_sigma`` is finite and >= 0 and
    ``blur_size >= 1``.
    """
    if not 0.0 <= dropout_prob <= 1.0:
        raise ValueError(f"dropout_prob must be in [0, 1], got {dropout_prob}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if blur_size < 1:
        raise ValueError(f"blur_size must be >= 1, got {blur_size}")
    rng = Rng(rng_seed)
    out = {}
    # Channel by channel in field order: base comes first, so its tears take
    # their draws before the noise fields, which follow in channel order.
    for name, (lo, hi) in ChannelMaps.RANGES.items():
        plane = getattr(maps, name)
        if blur_size > 1:
            plane = ndimage.uniform_filter(plane, size=blur_size, mode="nearest", output=np.float64)
        if name == "base" and dropout_prob > 0:
            plane = _tear(plane if blur_size > 1 else plane.copy(), dropout_prob, rng)
        out[name] = _add_noise(plane, noise_sigma, lo, hi, rng) if noise_sigma > 0 else plane.astype(np.float32)
    return ChannelMaps(**out)
