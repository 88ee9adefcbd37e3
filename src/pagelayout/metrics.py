"""Scoring of predicted layouts against ground truth.

Baselines are scored by symmetric point coverage: each baseline is sampled
at 1 px arc steps and a sample counts as covered when it lies within the
tolerance of any polyline on the other side.  Polygons are scored by greedy
one-to-one matching in descending IoU order with matches above the IoU
threshold counting as true positives.  Empty-set conventions: no
predictions means P=1, no ground truth means R=1, both empty means F=1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._raster import sample_polyline
from .geometry import Polygon, Polyline, _segment_distance, polygon_iou
from .layout import PageLayout

DEFAULT_IOU_THRESHOLD = 0.7
_FALLBACK_TOLERANCE = 4.0


def f_value(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2.0 * p * r / (p + r)


def _coverage(sources: list[Polyline], targets: list[Polyline], tolerance: float) -> float:
    """Fraction of 1 px samples of ``sources`` within tolerance of ``targets``.

    Samples are sorted by y once.  Each target segment only tests the
    samples inside its bounding box grown by the tolerance (a y-slice found
    by binary search, then an x filter) that no earlier segment covered.
    The box holds every sample the exact point-segment distance can accept,
    so the result equals testing all sample-segment pairs.
    """
    if not targets:
        return 0.0
    pts = np.concatenate([sample_polyline(line.points, 1.0) for line in sources])
    order = np.argsort(pts[:, 1])
    ys = pts[order, 1]
    segs = np.concatenate([np.stack([line.points[:-1], line.points[1:]], axis=1) for line in targets])
    d = segs[:, 1] - segs[:, 0]
    lo = segs.min(axis=1) - (tolerance + 1e-6)
    hi = segs.max(axis=1) + (tolerance + 1e-6)
    covered = np.zeros(len(pts), dtype=bool)
    for k in range(len(segs)):
        idx = order[np.searchsorted(ys, lo[k, 1], "left") : np.searchsorted(ys, hi[k, 1], "right")]
        qx = pts[idx, 0]
        idx = idx[(qx >= lo[k, 0]) & (qx <= hi[k, 0]) & ~covered[idx]]
        if not len(idx):
            continue
        dist = _segment_distance(pts[idx, 0], pts[idx, 1], segs[k, 0], d[k])
        covered[idx[dist <= tolerance]] = True
    return float(covered.mean())


def match_baselines(
    pred: list[Polyline], gt: list[Polyline], tolerance: float
) -> tuple[float, float, float]:
    """Coverage-based precision/recall/F for baseline sets."""
    if not pred and not gt:
        return (1.0, 1.0, 1.0)
    p = 1.0 if not pred else _coverage(pred, gt, tolerance)
    r = 1.0 if not gt else _coverage(gt, pred, tolerance)
    return (p, r, f_value(p, r))


def match_polygons(
    pred: list[Polygon], gt: list[Polygon], iou_threshold: float = DEFAULT_IOU_THRESHOLD
) -> tuple[float, float, float]:
    """Greedy one-to-one IoU matching; pairs above the threshold are hits.

    Each prediction takes one :func:`polygon_iou` call, over the ground truth whose boxes touch its own.
    """
    if not pred and not gt:
        return (1.0, 1.0, 1.0)
    if not pred or not gt:
        return (1.0 if not pred else 0.0, 1.0 if not gt else 0.0, 0.0)
    pairs = []
    pb = np.array([p.bounds() for p in pred])[:, None, :]
    gb = np.array([g.bounds() for g in gt])[None, :, :]
    touch = (pb[..., 2] >= gb[..., 0]) & (gb[..., 2] >= pb[..., 0]) & (pb[..., 3] >= gb[..., 1]) & (gb[..., 3] >= pb[..., 1])
    for i in np.flatnonzero(touch.any(axis=1)):
        near = np.flatnonzero(touch[i])
        ious = polygon_iou(pred[i], [gt[j] for j in near])
        pairs.extend((float(iou), int(i), int(j)) for iou, j in zip(ious, near) if iou > iou_threshold)
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_p: set[int] = set()
    used_g: set[int] = set()
    tp = 0
    for iou, i, j in pairs:
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
