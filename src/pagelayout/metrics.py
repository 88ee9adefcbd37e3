"""Scoring of predicted layouts against ground truth.

Baselines are scored by symmetric point coverage: each baseline is sampled
at 1 px arc steps and a sample counts as covered when it lies within the
tolerance of any polyline on the other side.  Coverage enumerates every
candidate (sample, segment) pair of a direction at once, from a grid sort
of the samples, and tests them all in one pass; the result equals testing
all sample-segment pairs.  Polygons are scored by greedy one-to-one
matching in descending IoU order with matches above the IoU threshold
counting as true positives; one pairwise :func:`polygon_iou` call per level
scores all prediction-truth pairs whose boxes touch.  Empty-set
conventions: no predictions means P=1, no ground truth means R=1, both
empty means F=1.

Inputs are checked where they enter: the IoU threshold must lie in [0, 1]
and the baseline tolerance must be finite and >= 0 (NaN fails both), or
``ValueError`` is raised.  On that domain a pair whose boxes do not touch
(IoU 0) is never a hit, so skipping such pairs cannot change a score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._raster import sample_polylines
from .geometry import _BATCH_ELEMENTS, Polygon, Polyline, _chunks, _segment_distance, polygon_iou
from .layout import PageLayout

DEFAULT_IOU_THRESHOLD = 0.7
_FALLBACK_TOLERANCE = 4.0
_CELL = 2.0  # px height of a coverage grid row


def f_value(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2.0 * p * r / (p + r)


def _coverage(sources: list[Polyline], targets: list[Polyline], tolerance: float) -> float:
    """Fraction of 1 px samples of ``sources`` within tolerance of ``targets``.

    All candidate (sample, segment) pairs are enumerated at once.  Samples
    are sorted by grid cell, rows ``_CELL`` px tall and columns 1 px wide,
    row-major; a segment's bounding box grown by the tolerance covers, in
    each of its cell rows, one contiguous run of them, found by binary
    search.  The exact box filter and the point-segment distance then run
    over every pair of every run, the runs (some empty) in :func:`_chunks`
    of ``_BATCH_ELEMENTS`` pairs.  The cells a box touches hold every
    sample inside it, and the box every sample the distance can accept, so
    the result equals testing all sample-segment pairs.
    """
    if not targets:
        return 0.0
    pts, _ = sample_polylines([line.points for line in sources], 1.0)
    ends = np.cumsum([len(line.points) for line in targets])
    chain = np.concatenate([line.points for line in targets])
    within = np.ones(len(chain) - 1, dtype=bool)
    within[ends[:-1] - 1] = False  # no segment from one target to the next
    p, end = chain[:-1][within], chain[1:][within]
    d = end - p
    lo = np.minimum(p, end) - (tolerance + 1e-6)
    hi = np.maximum(p, end) + (tolerance + 1e-6)
    xs, ys = pts.T
    origin = (xs.min(), ys.min())
    col = np.floor(xs - origin[0]).astype(np.int64)
    row = np.floor((ys - origin[1]) / _CELL).astype(np.int64)
    n_cols, n_rows = int(col.max()) + 1, int(row.max()) + 1
    order = np.argsort(row * n_cols + col, kind="stable")
    keys = (row * n_cols + col)[order]
    # each box's cell rows and columns, clipped to the grid (rounding is monotone, so no sample escapes)
    c0 = np.clip(np.floor(lo[:, 0] - origin[0]), 0, n_cols).astype(np.int64)
    c1 = np.clip(np.floor(hi[:, 0] - origin[0]), -1, n_cols - 1).astype(np.int64)
    r0 = np.clip(np.floor((lo[:, 1] - origin[1]) / _CELL), 0, n_rows).astype(np.int64)
    r1 = np.clip(np.floor((hi[:, 1] - origin[1]) / _CELL), -1, n_rows - 1).astype(np.int64)
    n_runs = np.where(c1 >= c0, np.maximum(r1 - r0 + 1, 0), 0)
    seg = np.repeat(np.arange(len(p)), n_runs)
    r = r0[seg] + np.arange(len(seg)) - np.repeat(np.cumsum(n_runs) - n_runs, n_runs)
    start = np.searchsorted(keys, r * n_cols + c0[seg], "left")
    size = np.searchsorted(keys, r * n_cols + c1[seg], "right") - start
    run_ends = np.cumsum(size)
    (lo_x, lo_y), (hi_x, hi_y) = lo.T, hi.T
    covered = np.zeros(len(pts), dtype=bool)
    for a, b in _chunks(size, _BATCH_ELEMENTS):
        k = np.repeat(seg[a:b], size[a:b])
        at = np.repeat(start[a:b] - (run_ends[a:b] - size[a:b]), size[a:b]) + np.arange(run_ends[a] - size[a], run_ends[b - 1])
        q = order[at]
        x, y = xs[q], ys[q]
        inside = (x >= lo_x[k]) & (x <= hi_x[k]) & (y >= lo_y[k]) & (y <= hi_y[k])
        k, q = k[inside], q[inside]
        dist = _segment_distance(x[inside], y[inside], np.take(p, k, axis=0), np.take(d, k, axis=0))
        covered[q[dist <= tolerance]] = True
    return float(covered.mean())


def match_baselines(
    pred: list[Polyline], gt: list[Polyline], tolerance: float
) -> tuple[float, float, float]:
    """Coverage-based precision/recall/F for baseline sets; ``tolerance`` must be finite and >= 0."""
    if not 0.0 <= tolerance < math.inf:  # NaN fails too
        raise ValueError(f"baseline tolerance must be finite and >= 0, got {tolerance}")
    if not pred and not gt:
        return (1.0, 1.0, 1.0)
    p = 1.0 if not pred else _coverage(pred, gt, tolerance)
    r = 1.0 if not gt else _coverage(gt, pred, tolerance)
    return (p, r, f_value(p, r))


def match_polygons(
    pred: list[Polygon], gt: list[Polygon], iou_threshold: float = DEFAULT_IOU_THRESHOLD
) -> tuple[float, float, float]:
    """Greedy one-to-one IoU matching; pairs above the threshold (in [0, 1]) are hits.

    One :func:`polygon_iou` call scores every prediction-truth pair whose
    boxes touch; any other pair has IoU 0, which no threshold in [0, 1]
    exceeds.
    """
    if not 0.0 <= iou_threshold <= 1.0:  # NaN fails too
        raise ValueError(f"iou_threshold must lie in [0, 1], got {iou_threshold}")
    if not pred and not gt:
        return (1.0, 1.0, 1.0)
    if not pred or not gt:
        return (1.0 if not pred else 0.0, 1.0 if not gt else 0.0, 0.0)
    pb = np.array([p.bounds() for p in pred])[:, None, :]
    gb = np.array([g.bounds() for g in gt])[None, :, :]
    touch = (pb[..., 2] >= gb[..., 0]) & (gb[..., 2] >= pb[..., 0]) & (pb[..., 3] >= gb[..., 1]) & (gb[..., 3] >= pb[..., 1])
    pi, gi = np.nonzero(touch)
    ious = polygon_iou([pred[i] for i in pi], [gt[j] for j in gi])
    hit = ious > iou_threshold
    pairs = sorted(zip((-ious[hit]).tolist(), pi[hit].tolist(), gi[hit].tolist()))
    used_p: set[int] = set()
    used_g: set[int] = set()
    tp = 0
    for _, i, j in pairs:
        if i in used_p or j in used_g:
            continue
        used_p.add(i)
        used_g.add(j)
        tp += 1
    p = tp / len(pred)
    r = tp / len(gt)
    return (p, r, f_value(p, r))


@dataclass(frozen=True)
class PageScores:
    page_id: str
    baseline: tuple[float, float, float]
    line: tuple[float, float, float]
    block: tuple[float, float, float]

    def as_dict(self) -> dict:
        def prf(t):
            return {"precision": t[0], "recall": t[1], "f": t[2]}

        return {
            "page_id": self.page_id,
            "baseline": prf(self.baseline),
            "line": prf(self.line),
            "block": prf(self.block),
        }


@dataclass(frozen=True)
class EvalReport:
    pages: list[PageScores]
    aggregate: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"pages": [p.as_dict() for p in self.pages], "aggregate": self.aggregate}


def evaluate(
    pred: PageLayout,
    gt: PageLayout,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> PageScores:
    """Score one page: baselines, line polygons and block polygons.

    The baseline tolerance is a quarter of the median ground-truth line
    height (``_FALLBACK_TOLERANCE`` px when the ground truth has no lines).
    ``iou_threshold`` must lie in [0, 1] (``ValueError`` otherwise).
    """
    if pred.size != gt.size:
        raise ValueError(f"page size mismatch: {pred.size} vs {gt.size}")
    gt_lines = gt.lines()
    pred_lines = pred.lines()
    heights = [line.height for line in gt_lines]
    baseline_tolerance = 0.25 * float(np.median(heights)) if heights else _FALLBACK_TOLERANCE
    base = match_baselines(
        [line.baseline for line in pred_lines], [line.baseline for line in gt_lines], baseline_tolerance
    )
    line = match_polygons([line.polygon for line in pred_lines], [line.polygon for line in gt_lines], iou_threshold)
    block = match_polygons([b.polygon for b in pred.blocks], [b.polygon for b in gt.blocks], iou_threshold)
    return PageScores(gt.page_id, base, line, block)


def build_report(pages: list[PageScores]) -> EvalReport:
    """Aggregate per-page scores by arithmetic means."""
    aggregate: dict = {}
    for name in ("baseline", "line", "block"):
        values = [getattr(pg, name) for pg in pages]
        if values:
            aggregate[name] = {
                "precision": float(np.mean([v[0] for v in values])),
                "recall": float(np.mean([v[1] for v in values])),
                "f": float(np.mean([v[2] for v in values])),
            }
        else:
            aggregate[name] = {"precision": 0.0, "recall": 0.0, "f": 0.0}
    return EvalReport(list(pages), aggregate)
