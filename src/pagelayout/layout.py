"""Structured page layout model (pages, blocks, lines) and its JSON form.

The serialization is canonical: fixed field order, every coordinate
rendered as a shortest-round-trip float, so two semantically equal layouts
produce identical bytes.  ``load_layout`` rejects documents that violate
the model invariants and reports the path of the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import _raster
from .geometry import Polygon, Polyline, _points_in_ring, _points_ring_distance, intersection_area

_CONTAIN_MIN = 0.95  # fraction of a line polygon its block must cover


class LayoutError(ValueError):
    """Schema or invariant violation, with the JSON path of the bad field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def baseline_midpoint(baseline: Polyline) -> tuple[float, float]:
    """Point at half the arc length of the baseline."""
    pts = baseline.points
    cum = _raster.cumulative_lengths(pts)
    half = cum[-1] / 2.0
    x = float(np.interp(half, cum, pts[:, 0]))
    y = float(np.interp(half, cum, pts[:, 1]))
    return x, y


@dataclass(frozen=True)
class TextLine:
    id: str
    baseline: Polyline
    ascender: float
    descender: float
    polygon: Polygon

    def __post_init__(self):
        object.__setattr__(self, "ascender", float(self.ascender))
        object.__setattr__(self, "descender", float(self.descender))
        if not (self.ascender >= 1.0):
            raise LayoutError(f"line {self.id!r}.ascender", "must be >= 1")
        if not (self.descender >= 0.0):
            raise LayoutError(f"line {self.id!r}.descender", "must be >= 0")
        pts = self.baseline.points
        outside = ~_points_in_ring(self.polygon.ring, pts)
        if outside.any() and (_points_ring_distance(self.polygon.ring, pts[outside]) > 0.5).any():
            raise LayoutError(f"line {self.id!r}.baseline", "point outside line polygon")

    @property
    def height(self) -> float:
        return self.ascender + self.descender


@dataclass(frozen=True)
class TextBlock:
    id: str
    lines: list[TextLine]
    polygon: Polygon

    def __post_init__(self):
        if not self.lines:
            raise LayoutError(f"block {self.id!r}.lines", "must be non-empty")
        object.__setattr__(self, "lines", sort_reading_order(self.lines))
        for line in self.lines:
            covered = intersection_area(self.polygon, line.polygon)
            if covered < (_CONTAIN_MIN - 1e-9) * line.polygon.area:
                raise LayoutError(
                    f"block {self.id!r}", f"covers only {covered / line.polygon.area:.2f} of line {line.id!r}"
                )


def sort_reading_order(lines: list[TextLine]) -> list[TextLine]:
    """Lines sorted by vertical baseline-midpoint position, ties left first."""
    mids = {line.id: baseline_midpoint(line.baseline) for line in lines}
    return sorted(lines, key=lambda ln: (mids[ln.id][1], mids[ln.id][0], ln.id))


def reading_order(block: TextBlock) -> list[str]:
    """Ordered line ids of a block (top to bottom, ties broken by left x)."""
    return [line.id for line in sort_reading_order(block.lines)]


@dataclass(frozen=True)
class PageLayout:
    page_id: str
    height: int
    width: int
    blocks: list[TextBlock] = field(default_factory=list)

    def __post_init__(self):
        if self.height <= 0 or self.width <= 0:
            raise LayoutError("size", "page dimensions must be positive")
        object.__setattr__(self, "blocks", [_clamp_block(b, self.height, self.width) for b in self.blocks])
        seen: set[str] = set()
        for block in self.blocks:
            for line in block.lines:
                if line.id in seen:
                    raise LayoutError(f"line {line.id!r}", "duplicate line id")
                seen.add(line.id)

    @property
    def size(self) -> tuple[int, int]:
        return (self.height, self.width)

    def lines(self) -> list[TextLine]:
        return [line for block in self.blocks for line in block.lines]


def _clamp_points(arr: np.ndarray, h: int, w: int) -> np.ndarray:
    out = arr.copy()
    out[:, 0] = np.clip(out[:, 0], 0.0, float(w))
    out[:, 1] = np.clip(out[:, 1], 0.0, float(h))
    return out


def _clamp_block(block: TextBlock, h: int, w: int) -> TextBlock:
    def in_bounds(arr):
        return (arr[:, 0] >= 0).all() and (arr[:, 0] <= w).all() and (arr[:, 1] >= 0).all() and (arr[:, 1] <= h).all()

    if in_bounds(block.polygon.ring) and all(
        in_bounds(ln.baseline.points) and in_bounds(ln.polygon.ring) for ln in block.lines
    ):
        return block
    lines = [
        TextLine(
            ln.id,
            Polyline(_clamp_points(ln.baseline.points, h, w)),
            ln.ascender,
            ln.descender,
            Polygon(_clamp_points(ln.polygon.ring, h, w), check_simple=False),
        )
        for ln in block.lines
    ]
    return TextBlock(block.id, lines, Polygon(_clamp_points(block.polygon.ring, h, w), check_simple=False))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _points_to_json(arr: np.ndarray) -> list[list[float]]:
    return [[float(x), float(y)] for x, y in arr]


def save_layout(layout: PageLayout) -> bytes:
    doc = {
        "page_id": layout.page_id,
        "height": int(layout.height),
        "width": int(layout.width),
        "blocks": [
            {
                "id": block.id,
                "polygon": _points_to_json(block.polygon.ring),
                "lines": [
                    {
                        "id": line.id,
                        "baseline": _points_to_json(line.baseline.points),
                        "ascender": float(line.ascender),
                        "descender": float(line.descender),
                        "polygon": _points_to_json(line.polygon.ring),
                    }
                    for line in block.lines
                ],
            }
            for block in layout.blocks
        ],
    }
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":"), allow_nan=False).encode("utf-8")


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise LayoutError(path, message)


def _parse_points(value, path: str, min_len: int) -> np.ndarray:
    _expect(isinstance(value, list) and len(value) >= min_len, path, f"expected a list of >= {min_len} points")
    pts = []
    for i, item in enumerate(value):
        _expect(
            isinstance(item, list) and len(item) == 2 and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in item),
            f"{path}[{i}]",
            "expected [x, y] numbers",
        )
        x, y = float(item[0]), float(item[1])
        _expect(np.isfinite(x) and np.isfinite(y), f"{path}[{i}]", "non-finite coordinate")
        pts.append((x, y))
    return np.asarray(pts, dtype=np.float64)


def _reject_constant(value):
    raise LayoutError("$", f"non-finite number {value!r} not allowed")


def load_layout(data: bytes | str) -> PageLayout:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise LayoutError("$", f"invalid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "$", "expected an object")
    _expect(isinstance(doc.get("page_id"), str), "page_id", "expected a string")
    for key in ("height", "width"):
        _expect(isinstance(doc.get(key), int) and not isinstance(doc.get(key), bool), key, "expected an integer")
    _expect(isinstance(doc.get("blocks"), list), "blocks", "expected a list")

    blocks = []
    for bi, bdoc in enumerate(doc["blocks"]):
        bpath = f"blocks[{bi}]"
        _expect(isinstance(bdoc, dict), bpath, "expected an object")
        _expect(isinstance(bdoc.get("id"), str), f"{bpath}.id", "expected a string")
        _expect(isinstance(bdoc.get("lines"), list) and bdoc["lines"], f"{bpath}.lines", "expected a non-empty list")
        lines = []
        for li, ldoc in enumerate(bdoc["lines"]):
            lpath = f"{bpath}.lines[{li}]"
            _expect(isinstance(ldoc, dict), lpath, "expected an object")
            _expect(isinstance(ldoc.get("id"), str), f"{lpath}.id", "expected a string")
            for key in ("ascender", "descender"):
                v = ldoc.get(key)
                _expect(isinstance(v, (int, float)) and not isinstance(v, bool), f"{lpath}.{key}", "expected a number")
                _expect(np.isfinite(float(v)), f"{lpath}.{key}", "non-finite value")
            bl = _parse_points(ldoc.get("baseline"), f"{lpath}.baseline", 2)
            ring = _parse_points(ldoc.get("polygon"), f"{lpath}.polygon", 3)
            try:
                lines.append(
                    TextLine(ldoc["id"], Polyline(bl), float(ldoc["ascender"]), float(ldoc["descender"]), Polygon(ring))
                )
            except LayoutError:
                raise
            except ValueError as exc:
                raise LayoutError(lpath, str(exc)) from exc
        ring = _parse_points(bdoc.get("polygon"), f"{bpath}.polygon", 3)
        try:
            blocks.append(TextBlock(bdoc["id"], lines, Polygon(ring)))
        except LayoutError:
            raise
        except ValueError as exc:
            raise LayoutError(bpath, str(exc)) from exc
    try:
        return PageLayout(doc["page_id"], doc["height"], doc["width"], blocks)
    except LayoutError:
        raise
    except ValueError as exc:
        raise LayoutError("$", str(exc)) from exc
