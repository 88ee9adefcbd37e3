import numpy as np
import pytest

import pagelayout.geometry
from pagelayout.blocks import block_polygon, polygon_from_baseline
from pagelayout.geometry import (
    Polygon,
    Polyline,
    _chunks,
    _contains_within,
    _rings_hold,
    _segment_distance,
    alpha_shape,
    clip_to_page,
    convex_hull,
    intersection_area,
    offset_chains,
    polygon_iou,
    rotate90_points,
    rotated_size,
)

from conftest import make_line
from oracles import (
    alpha_shape_oracle,
    cleaned_ring_contains_oracle,
    coverage_distance_oracle,
    intersection_area_oracle,
    points_ring_distance_oracle,
    raster_iou_oracle,
    rect_iou_oracle,
    rotate_index_oracle,
    segment_distance_grid_oracle,
    textline_contains_oracle,
)


def square(x0, y0, x1, y1):
    return Polygon([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


class TestTypes:
    def test_polyline_needs_two_distinct_points(self):
        with pytest.raises(ValueError):
            Polyline([[1.0, 1.0], [1.0, 1.0]])

    def test_polyline_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Polyline([[0, 0], [np.nan, 1]])

    def test_polygon_needs_area(self):
        with pytest.raises(ValueError):
            Polygon([[0, 0], [1, 0], [2, 0]])

    def test_polygon_rejects_self_intersection(self):
        with pytest.raises(ValueError):
            Polygon([[0, 0], [2, 2], [2, 0], [0, 2]])  # bowtie

    def test_polygon_area(self):
        assert square(0, 0, 2, 3).area == pytest.approx(6.0)


class TestPolygonIoU:
    def test_identical_unit_squares(self):
        assert polygon_iou(square(0, 0, 1, 1), square(0, 0, 1, 1)) == pytest.approx(1.0)

    def test_half_shifted_square(self):
        # analytic rectangle intersection: 0.5 / 1.5
        assert polygon_iou(square(0, 0, 1, 1), square(0.5, 0, 1.5, 1)) == pytest.approx(1 / 3)

    def test_disjoint(self):
        assert polygon_iou(square(0, 0, 1, 1), square(5, 5, 6, 6)) == 0.0

    def test_symmetry_and_range_random_rects(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x0, y0, x1, y1 = rng.uniform(0, 10, 4)
            a = square(min(x0, x1), min(y0, y1), max(x0, x1) + 0.5, max(y0, y1) + 0.5)
            x0, y0, x1, y1 = rng.uniform(0, 10, 4)
            b = square(min(x0, x1), min(y0, y1), max(x0, x1) + 0.5, max(y0, y1) + 0.5)
            ab = polygon_iou(a, b)
            assert ab == pytest.approx(polygon_iou(b, a), abs=1e-12)
            assert 0.0 <= ab <= 1.0
            ra = (*a.ring.min(axis=0), *a.ring.max(axis=0))
            rb = (*b.ring.min(axis=0), *b.ring.max(axis=0))
            assert ab == pytest.approx(rect_iou_oracle(ra, rb), abs=1e-9)

    def test_against_rasterization_oracle_general_polygons(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            # random convex-ish polygons from sorted angles
            n = rng.integers(3, 8)
            ang = np.sort(rng.uniform(0, 2 * np.pi, n))
            rad = rng.uniform(1.0, 4.0, n)
            ring_a = np.stack([5 + rad * np.cos(ang), 5 + rad * np.sin(ang)], axis=1)
            n = rng.integers(3, 8)
            ang = np.sort(rng.uniform(0, 2 * np.pi, n))
            rad = rng.uniform(1.0, 4.0, n)
            ring_b = np.stack([6 + rad * np.cos(ang), 5.5 + rad * np.sin(ang)], axis=1)
            try:
                a = Polygon(ring_a)
                b = Polygon(ring_b)
            except ValueError:
                continue
            assert polygon_iou(a, b) == pytest.approx(raster_iou_oracle(a.ring, b.ring), abs=1e-3)

    def test_intersection_area_nonconvex(self):
        # L-shape vs square covering its notch
        l_shape = Polygon([[0, 0], [4, 0], [4, 2], [2, 2], [2, 4], [0, 4]])
        sq = square(2, 2, 4, 4)
        assert intersection_area(l_shape, sq) == pytest.approx(0.0, abs=1e-9)
        sq2 = square(0, 0, 4, 4)
        assert intersection_area(l_shape, sq2) == pytest.approx(l_shape.area, abs=1e-9)


def _quarter_turn(ring, turns):
    for _ in range(turns):
        ring = np.stack([ring[:, 1], -ring[:, 0]], axis=1)
    return ring


def comb(rng, teeth, pitch):
    """Spine at 0 <= x <= 1 with teeth to the right: a vertical line can cross it 2 * teeth times."""
    ring = [[0.0, 0.0]]
    for t in range(teeth):
        y0, y1 = pitch * t, pitch * (t + rng.uniform(0.3, 0.8))
        if t > 0:
            ring.append([1.0, y0])
        ring += [[rng.uniform(3, 9), y0], [rng.uniform(3, 9), y1]]
        ring.append([1.0 if t < teeth - 1 else 0.0, y1])
    return np.array(ring)


def random_pair(rng):
    """Two simple polygons in one of the layouts the overlap kernel must handle."""
    kind = int(rng.integers(0, 8))
    c = rng.uniform(0, 20, 2)
    if kind == 7:  # two combs of different pitch: many interval pairs overlap in one slab
        b = comb(rng, int(rng.integers(3, 9)), rng.uniform(0.7, 2.0))
        return [c + comb(rng, int(rng.integers(2, 6)), 3.0), c + rng.uniform(-2, 2, 2) + b]
    if kind == 0:  # convex or star-shaped around a centre, overlapping at random
        rings = []
        for _ in range(2):
            n = int(rng.integers(3, 14))
            ang = np.sort(rng.uniform(0, 2 * np.pi, n))
            rad = rng.uniform(1.0, 6.0, n) if rng.uniform() < 0.5 else np.full(n, rng.uniform(1.0, 6.0))
            rings.append(c + rng.uniform(-3, 3, 2) + np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1))
        return rings
    if kind == 1:  # L-shape, any quarter turn, against a rectangle or another L
        w, h = rng.uniform(2, 10, 2)
        ell = np.array([[0, 0], [w, 0], [w, h / 3], [w / 3, h / 3], [w / 3, h], [0, h]])
        other = ell if rng.uniform() < 0.5 else np.array([[0, 0], [w / 2, 0], [w / 2, h / 2], [0, h / 2]])
        shift = rng.uniform(-w / 2, w / 2, 2)
        return [c + _quarter_turn(ell, int(rng.integers(4))), c + shift + _quarter_turn(other, int(rng.integers(4)))]
    x0, y0 = np.round(c)
    w, h = rng.integers(1, 6, 2).astype(float)
    rect = np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]])
    if kind == 2:  # a shared vertical edge, the other polygon overlapping in y or not
        dy = float(rng.integers(-3, 4))
        return [rect, rect + [w, dy]]
    if kind == 3:  # touching at one vertex or along a slanted edge
        tri = np.array([[x0 + w, y0 + h], [x0 + 2 * w, y0 + h], [x0 + 2 * w, y0 + 2 * h]])
        return [rect, tri] if rng.uniform() < 0.5 else [np.array([rect[0], rect[1], rect[2]]), rect[[0, 2, 3]]]
    if kind == 4:  # disjoint in x
        return [rect, rect + [w + rng.uniform(0.01, 5), rng.uniform(-h, h)]]
    if kind == 5:  # disjoint in y, overlapping in x
        n = int(rng.integers(3, 9))
        ang = np.sort(rng.uniform(0, 2 * np.pi, n))
        blob = np.stack([x0 + w / 2 + w * np.cos(ang), y0 + 3 * h + np.sin(ang)], axis=1)
        return [rect, blob if rng.uniform() < 0.5 else rect + [rng.uniform(-w / 2, w / 2), h + rng.uniform(0.001, 3)]]
    n = int(rng.integers(3, 12))  # nested: a shrunken copy of a convex ring inside it
    ang = np.sort(rng.uniform(0, 2 * np.pi, n))
    outer = c + np.stack([5 * np.cos(ang), 4 * np.sin(ang)], axis=1)
    inner = c + rng.uniform(0.1, 0.9) * (outer - c)
    return [outer, inner] if rng.uniform() < 0.5 else [inner, outer]


def random_pairs(seed, count):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        try:
            pairs.append(tuple(Polygon(r) for r in random_pair(rng)))
        except ValueError:
            continue
    return pairs


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestIntersectionAreaOracle:
    def test_single_pairs_equal_scalar_slab_loop(self):
        pairs = random_pairs(21, 1400)
        for a, b in pairs:
            assert intersection_area(a, b) == intersection_area_oracle(a, b)
            assert intersection_area(b, a) == intersection_area_oracle(b, a)
        assert sum(intersection_area(a, b) > 0 for a, b in pairs) > 400

    def test_sequences_equal_scalar_slab_loop_elementwise(self):
        pairs = random_pairs(22, 1200)
        rng = np.random.default_rng(23)
        for k in range(0, len(pairs), 12):
            a = pairs[k][0]
            others = [p for pair in pairs[k : k + 12] for p in pair][: int(rng.integers(1, 24))]
            got = intersection_area(a, others)
            assert got.dtype == np.float64 and got.shape == (len(others),)
            assert list(got) == [intersection_area_oracle(a, b) for b in others]

    def test_block_coverage_inputs(self):
        rng = np.random.default_rng(24)
        for _ in range(6):
            lines = [
                make_line(f"l{i}", x0, x0 + rng.uniform(20, 120), 20 + 14 * i + rng.uniform(-2, 2), 8.0, 3.0)
                for i, x0 in enumerate(rng.uniform(5, 40, int(rng.integers(2, 12))))
            ]
            shape = block_polygon(lines)
            polys = [ln.polygon for ln in lines]
            assert list(intersection_area(shape, polys)) == [intersection_area_oracle(shape, p) for p in polys]

    def test_empty_sequence(self):
        assert intersection_area(square(0, 0, 1, 1), []).shape == (0,)

    def test_y_disjoint_boxes_give_exact_zero(self):
        a = Polygon([[0, 0], [10, 0], [7, 3], [3, 3]])
        for dy in (3.0 + 1e-6, 3.5, 40.0):
            b = Polygon(a.ring + [1.0, dy])
            assert intersection_area(a, b) == 0.0 == intersection_area_oracle(a, b)


def iou_oracle(a, b):
    inter = intersection_area_oracle(a, b)
    union = a.area + b.area - inter
    return min(1.0, max(0.0, inter / union)) if union > 1e-9 else 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPolygonIoUSequence:
    def test_sequences_equal_single_pairs_elementwise(self):
        pairs = random_pairs(25, 600)
        rng = np.random.default_rng(26)
        hits = 0
        for k in range(0, len(pairs), 10):
            a = pairs[k][0]
            others = [p for pair in pairs[k : k + 10] for p in pair][: int(rng.integers(1, 20))]
            got = polygon_iou(a, others)
            assert got.dtype == np.float64 and got.shape == (len(others),)
            assert list(got) == [polygon_iou(a, b) for b in others] == [iou_oracle(a, b) for b in others]
            hits += int((got > 0).sum())
        assert hits > 100

    def test_empty_sequence(self):
        assert polygon_iou(square(0, 0, 1, 1), []).shape == (0,)


def kernel_pairs(seed, count):
    """(a, b) polygon pairs of every kind the pairwise kernel meets: the layouts of :func:`random_pairs`
    (edge-touching, vertex-touching, disjoint in x or in y, nested, combs), rectangles, jittered line
    rings, convex hulls, and identical polygons."""
    rng = np.random.default_rng(seed)
    pairs = random_pairs(seed, count // 2)

    def rectangle():
        x0, y0 = rng.uniform(0, 30, 2)
        return square(x0, y0, x0 + rng.uniform(1, 15), y0 + rng.uniform(1, 15))

    def line_ring():
        n = int(rng.integers(2, 7))
        base = np.stack([np.cumsum(rng.uniform(3, 12, n)), 10 + np.cumsum(rng.uniform(-3, 3, n))], axis=1)
        return polygon_from_baseline(base + rng.uniform(0, 20, 2), rng.uniform(2, 9), rng.uniform(0, 4))

    def hull():
        return convex_hull(rng.uniform(0, 30, (int(rng.integers(3, 30)), 2)))

    makers = (rectangle, line_ring, hull)
    while len(pairs) < count:
        a = makers[int(rng.integers(3))]()
        b = a if rng.uniform() < 0.15 else makers[int(rng.integers(3))]()
        pairs.append((a, b))
    return pairs


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPairwiseKernel:
    def test_pairs_equal_single_pair_calls(self):
        pairs = kernel_pairs(31, 900)
        a, b = [p for p, _ in pairs], [q for _, q in pairs]
        areas = intersection_area(a, b)
        assert areas.dtype == np.float64 and areas.shape == (len(pairs),)
        assert bits(areas) == bits(intersection_area(p, q) for p, q in pairs)
        assert bits(areas[::7]) == bits(intersection_area_oracle(p, q) for p, q in pairs[::7])
        assert bits(polygon_iou(a, b)) == bits(polygon_iou(p, q) for p, q in pairs)
        assert bits(polygon_iou(b, a)) == bits(polygon_iou(q, p) for p, q in pairs)
        assert (areas > 0).sum() > 300 and (areas == 0).sum() > 100

    def test_a_single_polygon_broadcasts_on_either_side(self):
        pairs = kernel_pairs(32, 80)
        polys = [p for pair in pairs for p in pair]
        for one in polys[::27]:
            assert bits(intersection_area(one, polys)) == bits(intersection_area(one, p) for p in polys)
            assert bits(intersection_area(polys, one)) == bits(intersection_area(p, one) for p in polys)
            assert bits(polygon_iou(one, polys)) == bits(polygon_iou(one, p) for p in polys)
            assert bits(polygon_iou(polys, one)) == bits(polygon_iou(p, one) for p in polys)

    def test_empty_and_one_item_sequences(self):
        a = square(0, 0, 2, 2)
        for f in (intersection_area, polygon_iou):
            for args in (([], []), (a, []), ([], a)):
                got = f(*args)
                assert got.dtype == np.float64 and got.shape == (0,)
            assert bits(f([a], [a])) == bits([f(a, a)])
            assert bits(f(a, [a])) == bits(f([a], a)) == bits([f(a, a)])

    def test_unequal_sequences_raise(self):
        a = square(0, 0, 2, 2)
        for f in (intersection_area, polygon_iou):
            with pytest.raises(ValueError, match="unequal lengths"):
                f([a, a], [a])
            with pytest.raises(ValueError, match="unequal lengths"):
                f([], [a])

    def test_small_chunks_equal_one_chunk(self, monkeypatch):
        pairs = kernel_pairs(33, 300)
        a, b = [p for p, _ in pairs], [q for _, q in pairs]
        want = bits(intersection_area(a, b)), bits(intersection_area(a[0], b)), bits(intersection_area(a, b[0]))
        monkeypatch.setattr(pagelayout.geometry, "_BATCH_ELEMENTS", 500)
        assert (bits(intersection_area(a, b)), bits(intersection_area(a[0], b)), bits(intersection_area(a, b[0]))) == want
        assert len(list(pagelayout.geometry._chunks(np.array([len(p.ring) + len(q.ring) for p, q in pairs]) ** 2, 500))) > 50


class TestChunks:
    def test_ranges_are_greedy_within_the_padded_budget(self):
        """Consecutive ranges cover every item; each is one item or fits the budget padded to its longest
        row, and takes the next item only if that still fits (zero-size items too, at most ``budget``)."""
        rng = np.random.default_rng(34)
        budget = 60
        inputs = [
            np.array([], dtype=np.int64),
            np.full(25, 7),
            rng.integers(1, 40, 200),
            np.array([3, 100, 2, 61, 1, 60, 0]),  # items past the budget stand alone
            rng.integers(0, 3, 300) * rng.integers(0, 20, 300),  # zero-size runs, as coverage passes them
            np.zeros(150, dtype=np.int64),
        ]
        for sizes in inputs:
            ranges = list(_chunks(sizes, budget))
            bounds = [0] + [b for _, b in ranges]
            assert [a for a, _ in ranges] == bounds[:-1] and bounds[-1] == len(sizes)
            for a, b in ranges:
                assert b - a == 1 or (b - a) * sizes[a:b].max() <= budget
                assert b - a <= budget
                if b < len(sizes) and b - a < budget:
                    assert (b - a + 1) * sizes[a : b + 1].max() > budget


class TestStoredBounds:
    def test_bounds_are_the_ring_extremes(self):
        for a, b in random_pairs(27, 50):
            for p in (a, b):
                lo, hi = p.ring.min(axis=0), p.ring.max(axis=0)
                assert p.bounds() == (lo[0], lo[1], hi[0], hi[1])
                assert all(type(v) is float for v in p.bounds())


def random_segments(rng, n):
    """Starts and directions of ``n`` segments; the first quarter has zero length."""
    p = rng.uniform(-20, 20, (n, 2))
    d = rng.uniform(-15, 15, (n, 2))
    d[: n // 4] = 0.0
    return p, d


def line_ring_cases(seed, count):
    """Wavy or zigzag baselines with the line polygons ``polygon_from_baseline`` builds for them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 10))
        xs = np.cumsum(rng.uniform(2, 30, n))
        ys = 60 + np.cumsum(rng.uniform(-12, 12, n))
        base = np.stack([xs, ys], axis=1)
        yield base, polygon_from_baseline(base, rng.uniform(1, 25), rng.uniform(0, 10))


class TestSharedSegmentDistance:
    """``_segment_distance`` equals each formula it replaced, to the last bit."""

    def test_stroke_grid(self):
        rng = np.random.default_rng(41)
        p, d = random_segments(rng, 60)
        for pk, dk in zip(p, d):
            q = pk + dk
            lo, hi = np.floor(np.minimum(pk, q)) - 3, np.ceil(np.maximum(pk, q)) + 4
            for cols, rows in (
                (np.arange(lo[0], hi[0]).astype(np.int64), np.arange(lo[1], hi[1]).astype(np.int64)),
                (rng.uniform(lo[0], hi[0], 9), rng.uniform(lo[1], hi[1], 7)),
            ):
                got = _segment_distance(cols[None, :], rows[:, None], pk, q - pk)
                assert np.array_equal(got, segment_distance_grid_oracle(pk, q, cols, rows))

    def test_coverage_segments(self):
        rng = np.random.default_rng(42)
        p, d = random_segments(rng, 80)
        segs = np.stack([p, p + d], axis=1)
        q = np.vstack([rng.uniform(-40, 40, (300, 2)), segs[:, 0], segs[:, 1]])  # and every segment end
        dd = segs[:, 1] - segs[:, 0]
        for k in range(len(segs)):
            assert np.array_equal(_segment_distance(q[:, 0], q[:, 1], segs[k, 0], dd[k]), coverage_distance_oracle(q, segs, k))


class TestSharedContainment:
    """``_contains_within`` equals the TextLine test (tol 0.5) and the cleaned-ring test (tol 0.45)."""

    def test_baselines_in_their_line_polygons(self):
        for base, poly in line_ring_cases(43, 300):
            assert _contains_within(poly, base, 0.5) == textline_contains_oracle(poly.ring, base)
            assert _contains_within(poly, base, 0.45) == cleaned_ring_contains_oracle(poly.ring, base)

    def test_single_points_flip_at_the_ring_distance(self):
        rng = np.random.default_rng(44)
        for base, poly in line_ring_cases(45, 20):
            ring = poly.ring
            pts = np.vstack(
                [
                    base,
                    ring,  # segment ends
                    ring + rng.uniform(-0.6, 0.6, ring.shape),
                    rng.uniform(ring.min(axis=0) - 3, ring.max(axis=0) + 3, (40, 2)),
                ]
            )
            dist = points_ring_distance_oracle(ring, pts)
            for pt, dk in zip(pts, dist):
                one = pt[None]
                assert _contains_within(poly, one, 0.5) == textline_contains_oracle(ring, one)
                assert _contains_within(poly, one, 0.45) == cleaned_ring_contains_oracle(ring, one)
                if not _contains_within(poly, one, 0.0):  # outside: the helper's distance is exactly dk
                    assert _contains_within(poly, one, dk)
                    assert not _contains_within(poly, one, np.nextafter(dk, -np.inf))

    def test_ring_stacks_equal_one_ring_calls(self):
        """``_rings_hold`` over a stack of offset rings gives each ring's one-ring result."""
        rng = np.random.default_rng(46)
        for n in (2, 3, 5):
            base = np.stack([np.cumsum(rng.uniform(2, 20, (40, n)), axis=1), 60 + rng.uniform(-9, 9, (40, n))], axis=2)
            top, bottom = offset_chains(base, rng.uniform(1, 12, (40, 1, 1)), rng.uniform(0, 5, (40, 1, 1)))
            rings = np.concatenate([top, bottom[:, ::-1]], axis=1)
            pts = np.concatenate([base, base + rng.uniform(-1.5, 1.5, base.shape)], axis=1)
            for tol, oracle in ((0.45, cleaned_ring_contains_oracle), (0.5, textline_contains_oracle)):
                got = _rings_hold(rings, pts, tol)
                assert got.shape == (40,) and 0 < got.sum() < 40
                assert list(got) == [oracle(r, p) for r, p in zip(rings, pts)]


class TestAlphaShape:
    def test_square_at_alpha_zero_equals_hull(self):
        pts = [[0, 0], [4, 0], [4, 4], [0, 4]]
        shape = alpha_shape(pts, 0.0)
        assert shape.area == pytest.approx(16.0)
        assert {tuple(p) for p in shape.ring} == {(0, 0), (4, 0), (4, 4), (0, 4)}

    def test_three_points(self):
        shape = alpha_shape([[0, 0], [4, 0], [0, 3]], 0.0)
        assert shape.area == pytest.approx(6.0)

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate point set"):
            alpha_shape([[0, 0], [1, 1]], 0.1)
        with pytest.raises(ValueError, match="degenerate point set"):
            alpha_shape([[0, 0], [1, 1], [2, 2], [3, 3]], 0.1)

    def test_c_shape_is_concave(self):
        # C-shaped cloud: annulus of ring width 2*gap with a missing quarter;
        # alpha = 1/(2*gap) keeps the dense ring but drops triangles spanning
        # the opening, so the outline dips inside the hull
        gap = 1.0
        pts = []
        for t in np.linspace(0, 1.5 * np.pi, 40):
            pts.append([8 + 6 * np.cos(t), 8 + 6 * np.sin(t)])
            pts.append([8 + (6 - 2 * gap) * np.cos(t), 8 + (6 - 2 * gap) * np.sin(t)])
        pts = np.array(pts)
        shape = alpha_shape(pts, 1.0 / (2.0 * gap))
        hull = convex_hull(pts)
        assert shape.area < hull.area

    def test_alpha_zero_equals_hull_random_points(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pts = rng.uniform(0, 20, (int(rng.integers(4, 30)), 2))
            shape = alpha_shape(pts, 0.0)
            hull = convex_hull(pts)
            assert shape.area == pytest.approx(hull.area, rel=1e-9)
            # hull vertices appear in the alpha boundary (up to collinear pts)
            hull_set = {tuple(p) for p in hull.ring}
            alpha_set = {tuple(p) for p in shape.ring}
            assert hull_set <= alpha_set

    def test_alpha_complex_area_matches_kept_triangles(self):
        # boundary polygon area equals the summed area of kept triangles
        from scipy.spatial import Delaunay

        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = rng.uniform(0, 10, (rng.integers(6, 20), 2))
            alpha = 1.0 / rng.uniform(2.0, 8.0)
            shape = alpha_shape(pts, alpha)
            tri = Delaunay(np.unique(pts, axis=0))
            upts = np.unique(pts, axis=0)
            kept_area = 0.0
            kept = []
            for s in tri.simplices:
                p0, p1, p2 = upts[s]
                a = np.hypot(*(p0 - p1))
                b = np.hypot(*(p1 - p2))
                c = np.hypot(*(p2 - p0))
                area2 = abs((p1[0] - p0[0]) * (p2[1] - p0[1]) - (p1[1] - p0[1]) * (p2[0] - p0[0]))
                r = a * b * c / (2 * area2) if area2 > 1e-12 else np.inf
                if r <= 1.0 / alpha:
                    kept.append(s)
                    kept_area += area2 / 2
            if not kept:
                continue
            hull = convex_hull(pts)
            # either the walk succeeded (area equals kept triangles) or it
            # fell back to the hull (disconnected/pinched complex)
            assert shape.area == pytest.approx(kept_area, rel=1e-9) or shape.area == pytest.approx(
                hull.area, rel=1e-9
            )


class TestAlphaShapeOracle:
    """The array edge count walks the same boundary as counting edges in a dict."""

    def test_matches_dict_count(self):
        rng = np.random.default_rng(28)
        concave = 0
        for trial in range(600):
            n = int(rng.integers(3, 60))
            if trial % 3 == 0:
                pts = rng.uniform(0, 50, (n, 2))
            elif trial % 3 == 1:
                pts = rng.integers(0, 12, (n, 2)).astype(float)  # duplicates and collinear runs
            else:  # the vertices of a few stacked line polygons, as block outlines see them
                lines = [
                    make_line(f"l{i}", x0, x0 + rng.uniform(20, 120), 20 + 14 * i + rng.uniform(-2, 2), 8.0, 3.0)
                    for i, x0 in enumerate(rng.uniform(5, 40, int(rng.integers(1, 6))))
                ]
                pts = np.vstack([ln.polygon.ring for ln in lines])
            alpha = float(rng.choice([0.0, 0.02, 0.05, 0.1, 0.3, 1.0]))
            try:
                want = alpha_shape_oracle(pts, alpha)
            except ValueError:
                with pytest.raises(ValueError):
                    alpha_shape(pts, alpha)
                continue
            got = alpha_shape(pts, alpha)
            assert np.array_equal(got.ring, want.ring)
            concave += got.area < convex_hull(pts).area - 1e-9
        assert concave > 100


class TestClipToPage:
    def test_inside_returns_the_polygon_itself(self):
        poly = square(0, 0, 10, 5)
        assert clip_to_page(poly, 5, 10) is poly

    def test_keeps_the_part_on_the_page(self):
        clipped = clip_to_page(square(-2, -3, 4, 6), 5, 10)
        assert clipped.bounds() == (0.0, 0.0, 4.0, 5.0)
        assert clipped.area == pytest.approx(20.0)

    def test_nothing_left_raises(self):
        with pytest.raises(ValueError):
            clip_to_page(square(0, -5, 10, 0), 5, 10)  # touches the top edge only


def rotate90(p, size_hw, turns):
    """:func:`rotate90_points` on one point, as a tuple."""
    return tuple(rotate90_points(np.array([p], dtype=np.float64), size_hw, turns)[0])


class TestRotate90:
    def test_turns_zero_identity(self):
        assert rotate90((3.0, 4.0), (100, 50), 0) == (3.0, 4.0)

    def test_ccw_quarter_turn(self):
        # (x, y) -> (y, W-1-x) into a W x H frame
        assert rotate90((0.0, 0.0), (100, 50), 1) == (0.0, 49.0)
        assert rotate90((49.0, 99.0), (100, 50), 1) == (99.0, 0.0)

    def test_round_trip_corners(self):
        size = (100, 50)
        for turns in (0, 1, 2, 3):
            rsize = rotated_size(size, turns)
            for corner in [(0.0, 0.0), (49.0, 0.0), (0.0, 99.0), (49.0, 99.0)]:
                back = rotate90(rotate90(corner, size, turns), rsize, (4 - turns) % 4)
                assert back == corner

    def test_square_center_fixed(self):
        assert rotate90((1.5, 1.5), (4, 4), 1) == (1.5, 1.5)

    def test_grid_against_index_permutation_oracle(self):
        h, w = 4, 4
        for turns in (0, 1, 2, 3):
            oracle = rotate_index_oracle(h, w, turns)
            for r in range(h):
                for c in range(w):
                    x, y = rotate90((float(c), float(r)), (h, w), turns)
                    assert (int(y), int(x)) == oracle(r, c)

    def test_matches_nprot90_grid(self):
        rng = np.random.default_rng(0)
        m = rng.uniform(size=(5, 7))
        for turns in (1, 3):
            rot = np.rot90(m, turns)
            for r in range(5):
                for c in range(7):
                    x, y = rotate90((float(c), float(r)), (5, 7), turns)
                    assert rot[int(y), int(x)] == m[r, c]
