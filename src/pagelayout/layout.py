"""Structured page layout model (pages, blocks, lines) and its JSON form.

Each model object checks its invariants when it is built (a ``PageLayout``:
all its geometry lies in [0, width] x [0, height]); a violation raises
``LayoutError`` naming the field, and nothing is repaired.  The
serialization is canonical: fixed field order, every coordinate rendered as
a shortest-round-trip float, so two semantically equal layouts produce
identical bytes.  ``load_layout`` rejects documents that violate the model
invariants and reports the path of the offending field.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import _raster
from .geometry import Polygon, Polyline, _contains_within, _on_page, intersection_area

_CONTAIN_MIN = 0.95  # fraction of a line polygon its block must cover
# bound on every coordinate, height and size ``load_layout`` accepts: far
# beyond any page, and products of two such numbers stay finite in float64
_MAX_MAGNITUDE = 2**31


class LayoutError(ValueError):
    """Schema or invariant violation, with the JSON path of the bad field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message

    def __reduce__(self):  # the default would call ``LayoutError(str(self))`` and fail
        return type(self), (self.path, self.message)


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
        if not _contains_within(self.polygon, self.baseline.points, 0.5):
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
        coverage = intersection_area(self.polygon, [line.polygon for line in self.lines])
        for line, covered in zip(self.lines, coverage):
            if covered < (_CONTAIN_MIN - 1e-9) * line.polygon.area:
                raise LayoutError(
                    f"block {self.id!r}", f"covers only {covered / line.polygon.area:.2f} of line {line.id!r}"
                )


def reading_key(baseline: Polyline, line_id: str) -> tuple[float, float, str]:
    """Reading-order sort key of a line: baseline-midpoint y, then x, then id."""
    x, y = baseline_midpoint(baseline)
    return (y, x, line_id)


def sort_reading_order(lines: list[TextLine]) -> list[TextLine]:
    """Lines sorted by vertical baseline-midpoint position, ties left first."""
    return sorted(lines, key=lambda ln: reading_key(ln.baseline, ln.id))


@dataclass(frozen=True)
class PageLayout:
    page_id: str
    height: int
    width: int
    blocks: list[TextBlock] = field(default_factory=list)

    def __post_init__(self):
        for key in ("height", "width"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value <= 0:
                raise LayoutError("size", f"{key} must be a positive integer, got {value!r}")
            object.__setattr__(self, key, int(value))
        seen: set[str] = set()
        for block in self.blocks:
            for line in block.lines:
                if line.id in seen:
                    raise LayoutError(f"line {line.id!r}", "duplicate line id")
                seen.add(line.id)
                self._check_on_page(line.polygon.bounds(), f"line {line.id!r}.polygon")
                pts = line.baseline.points
                self._check_on_page((*pts.min(axis=0), *pts.max(axis=0)), f"line {line.id!r}.baseline")
            self._check_on_page(block.polygon.bounds(), f"block {block.id!r}.polygon")

    def _check_on_page(self, box: tuple, path: str):
        if not _on_page(*box, self.height, self.width):
            raise LayoutError(path, f"reaches off the page [0, {self.width}] x [0, {self.height}]")

    @property
    def size(self) -> tuple[int, int]:
        return (self.height, self.width)

    def lines(self) -> list[TextLine]:
        return [line for block in self.blocks for line in block.lines]


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _points_to_json(arr: np.ndarray) -> list[list[float]]:
    return [[float(x), float(y)] for x, y in arr]


def save_layout(layout: PageLayout) -> bytes:
    doc = {
        "page_id": layout.page_id,
        "height": layout.height,
        "width": layout.width,
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


def _number(value, path: str, kind=(int, float)):
    """``value`` as a float if it is a finite ``kind`` (never a bool) of magnitude at most ``_MAX_MAGNITUDE``."""
    _expect(isinstance(value, kind) and not isinstance(value, bool), path, "expected an integer" if kind is int else "expected a number")
    _expect(abs(value) < math.inf, path, "non-finite value")  # also false for NaN
    _expect(abs(value) <= _MAX_MAGNITUDE, path, f"magnitude above {_MAX_MAGNITUDE}")
    return float(value)


def _parse_points(value, path: str, min_len: int) -> np.ndarray:
    _expect(isinstance(value, list) and len(value) >= min_len, path, f"expected a list of >= {min_len} points")
    pts = []
    for i, item in enumerate(value):
        at = f"{path}[{i}]"
        _expect(isinstance(item, list) and len(item) == 2, at, "expected [x, y] numbers")
        pts.append((_number(item[0], at), _number(item[1], at)))
    return np.asarray(pts, dtype=np.float64)


def _reject_constant(value):
    raise LayoutError("$", f"non-finite number {value!r} not allowed")


@contextmanager
def _reported_at(path: str):
    """Report a plain ``ValueError`` of the model constructors as a ``LayoutError`` at ``path``."""
    try:
        yield
    except LayoutError:
        raise
    except ValueError as exc:
        raise LayoutError(path, str(exc)) from exc


def load_layout(data: bytes | str) -> PageLayout:
    """Parse a ``save_layout`` document; ``LayoutError`` names its first bad field (off-page geometry included)."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise LayoutError("$", f"invalid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "$", "expected an object")
    _expect(isinstance(doc.get("page_id"), str), "page_id", "expected a string")
    for key in ("height", "width"):
        _number(doc.get(key), key, int)
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
            asc, des = (_number(ldoc.get(key), f"{lpath}.{key}") for key in ("ascender", "descender"))
            bl = _parse_points(ldoc.get("baseline"), f"{lpath}.baseline", 2)
            ring = _parse_points(ldoc.get("polygon"), f"{lpath}.polygon", 3)
            with _reported_at(lpath):
                lines.append(TextLine(ldoc["id"], Polyline(bl), asc, des, Polygon(ring)))
        ring = _parse_points(bdoc.get("polygon"), f"{bpath}.polygon", 3)
        with _reported_at(bpath):
            blocks.append(TextBlock(bdoc["id"], lines, Polygon(ring)))
    with _reported_at("$"):
        return PageLayout(doc["page_id"], doc["height"], doc["width"], blocks)
