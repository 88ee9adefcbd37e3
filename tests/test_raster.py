import math

import numpy as np
import pytest

from pagelayout._raster import polygon_window, polyline_pixels, sample_polyline, stroke_window
from pagelayout.blocks import polygon_from_baseline
from pagelayout.channels import OrientationMaps
from pagelayout.geometry import Polyline
from pagelayout.layout import TextLine
from pagelayout.orient import estimate_line_angle

from oracles import disk_pixels_oracle, polygon_pixels_oracle, polygon_window_oracle, stroke_pixels_oracle

SHAPE = (24, 32)


def paste(window, mask, shape=SHAPE):
    """Full frame holding ``mask`` at ``window``, after checking the window fits it."""
    rows, cols = window
    assert mask.dtype == bool
    assert 0 <= rows.start <= rows.stop <= shape[0]
    assert 0 <= cols.start <= cols.stop <= shape[1]
    assert mask.shape == (rows.stop - rows.start, cols.stop - cols.start)
    frame = np.zeros(shape, dtype=bool)
    frame[window] = mask
    return frame


def star_ring(rng, cx, cy, r_lo, r_hi):
    """Simple polygon: random radii at sorted random angles around a center."""
    n = int(rng.integers(3, 10))
    ang = np.sort(rng.uniform(0, 2 * math.pi, n))
    rad = rng.uniform(r_lo, r_hi, n)
    return np.stack([cx + rad * np.cos(ang), cy + rad * np.sin(ang)], axis=1)


class TestStrokeWindow:
    def test_random_polylines_match_pixel_oracle(self):
        rng = np.random.default_rng(0)
        h, w = SHAPE
        for _ in range(60):
            n = int(rng.integers(2, 6))
            pts = np.stack([rng.uniform(-12, w + 12, n), rng.uniform(-12, h + 12, n)], axis=1)
            thickness = float(rng.choice([1.0, 3.0, 5.5]))
            got = paste(*stroke_window(pts, SHAPE, thickness))
            assert np.array_equal(got, stroke_pixels_oracle(pts, SHAPE, thickness))

    @pytest.mark.parametrize(
        "pts",
        [
            [[-20.0, 5.0], [-8.0, 10.0]],  # left of the frame
            [[5.0, -30.0], [25.0, -9.5]],  # above
            [[40.0, 30.0], [60.0, 50.0]],  # below right
        ],
    )
    def test_wholly_outside_is_empty(self, pts):
        window, mask = stroke_window(np.array(pts), SHAPE, 3.0)
        assert mask.size == 0
        assert not paste(window, mask).any()

    def test_crossing_the_edge_is_clipped(self):
        pts = np.array([[-6.3, 4.2], [12.1, -3.7], [40.2, 20.6]])
        window, mask = stroke_window(pts, SHAPE, 3.0)
        got = paste(window, mask)
        assert got.any()
        assert np.array_equal(got, stroke_pixels_oracle(pts, SHAPE, 3.0))


class TestDiskWindow:
    """A disk is the stroke of a one-point polyline, as ``render_gt`` paints baseline ends."""

    def test_random_disks_match_pixel_oracle(self):
        rng = np.random.default_rng(1)
        h, w = SHAPE
        for _ in range(60):
            center = (float(rng.uniform(-8, w + 8)), float(rng.uniform(-8, h + 8)))
            radius = float(rng.uniform(1.0, 6.0))
            got = paste(*stroke_window(np.array([center, center]), SHAPE, 2 * radius))
            assert np.array_equal(got, disk_pixels_oracle(center, radius, SHAPE))

    def test_wholly_outside_is_empty(self):
        window, mask = stroke_window(np.array([(-10.0, 5.0), (-10.0, 5.0)]), SHAPE, 2 * 3.0)
        assert mask.size == 0
        assert not paste(window, mask).any()


class TestPolygonWindow:
    def test_random_polygons_match_pixel_oracle(self):
        rng = np.random.default_rng(2)
        h, w = SHAPE
        for _ in range(60):
            ring = star_ring(rng, rng.uniform(-6, w + 6), rng.uniform(-6, h + 6), 2.0, 14.0)
            got = paste(*polygon_window(ring, SHAPE))
            assert np.array_equal(got, polygon_pixels_oracle(ring, SHAPE))

    def test_wholly_outside_is_empty(self):
        rng = np.random.default_rng(3)
        for cx, cy in ((-30.0, 10.0), (10.0, -30.0), (60.0, 10.0), (10.0, 50.0)):
            window, mask = polygon_window(star_ring(rng, cx, cy, 3.0, 9.0), SHAPE)
            assert mask.size == 0
            assert not paste(window, mask).any()

    def test_frame_covering_polygon_fills_everything(self):
        ring = np.array([[-5.5, -4.5], [40.5, -4.5], [40.5, 30.5], [-5.5, 30.5]])
        window, mask = polygon_window(ring, SHAPE)
        assert window == (slice(0, SHAPE[0]), slice(0, SHAPE[1]))
        assert mask.all()


def oracle_rings(rng):
    """Rings of every kind the scanline must handle, in and around SHAPE."""
    h, w = SHAPE
    for _ in range(150):
        n = int(rng.integers(3, 12))
        yield np.stack([rng.uniform(-8, w + 8, n), rng.uniform(-8, h + 8, n)], axis=1)  # often self-intersecting
        yield np.stack([rng.integers(-4, w + 4, n), rng.integers(-4, h + 4, n)], axis=1).astype(float)  # integer vertices
        # vertices within the 1e-9 column rounding of integers, on either side
        near = rng.integers(-4, w + 4, (n, 2)).astype(float) + rng.choice([-5e-10, 5e-10, -2e-9, 2e-9], (n, 2))
        yield np.stack([near[:, 0], np.round(near[:, 1])], axis=1)
        # axis-parallel staircase: horizontal edges, vertices on integer rows
        xs = np.sort(rng.integers(-4, w + 4, n)).astype(float)
        ys = rng.integers(-4, h + 4, n).astype(float)
        yield np.concatenate([np.stack([xs, ys], 1), np.stack([xs, ys], 1)[:, ::-1]], 0)
        yield star_ring(rng, rng.uniform(-6, w + 6), rng.uniform(-6, h + 6), 2.0, 16.0)
        # zigzag band, half its vertices on integer rows
        k = int(rng.integers(2, 8))
        zx = np.linspace(rng.uniform(-6, 10), rng.uniform(w - 10, w + 6), k)
        zy = rng.uniform(0, h, k).round() + rng.choice([0.0, 0.5], k)
        yield np.concatenate([np.stack([zx, zy], 1), np.stack([zx[::-1], zy[::-1] + rng.uniform(-4, 6)], 1)], 0)
        # a star traced twice around (a pentagram), so it crosses itself
        ang = np.arange(5) * 4 * math.pi / 5 + rng.uniform(0, 2 * math.pi)
        r = rng.uniform(3, 14)
        yield np.stack([rng.uniform(0, w) + r * np.cos(ang), rng.uniform(0, h) + r * np.sin(ang)], axis=1)


class TestPolygonWindowOracle:
    """The array scanline equals the row-by-row loop exactly: window, mask shape and every pixel."""

    def test_matches_row_loop_on_random_rings(self):
        rng = np.random.default_rng(5)
        count = 0
        for ring in oracle_rings(rng):
            shape = SHAPE if count % 3 else (int(rng.integers(1, 30)), int(rng.integers(1, 40)))
            window, mask = polygon_window(ring, shape)
            want_window, want_mask = polygon_window_oracle(ring, shape)
            assert window == want_window
            assert mask.shape == want_mask.shape and np.array_equal(mask, want_mask)
            count += 1
        assert count == 1050

    def test_every_row_has_an_even_crossing_count(self):
        # Half-open straddling (y1 <= y < y2) counts a vertex on the row once
        # or not at all, so a closed ring always pairs up its crossings: the
        # unpaired last crossing the loop skips never occurs.
        rng = np.random.default_rng(6)
        for ring in oracle_rings(rng):
            nxt = np.roll(ring, -1, axis=0)
            for y in np.arange(-10.0, SHAPE[0] + 10.0):
                straddle = ((ring[:, 1] <= y) & (y < nxt[:, 1])) | ((nxt[:, 1] <= y) & (y < ring[:, 1]))
                assert straddle.sum() % 2 == 0


class TestEstimateLineAngleClipped:
    @pytest.mark.parametrize(
        "pts",
        [
            [[-5.3, 4.4], [20.7, 4.4]],  # ascender and left end leave the frame
            [[14.2, 12.6], [39.1, 18.3]],  # right end leaves the frame
            [[3.3, 27.8], [28.6, 21.1]],  # descender leaves the frame
        ],
    )
    def test_matches_full_frame_computation(self, pts):
        pts = np.array(pts)
        line = TextLine("l0", Polyline(pts), 8.25, 3.15, polygon_from_baseline(pts, 8.25, 3.15))
        ring = line.polygon.ring
        h, w = SHAPE
        assert ring[:, 0].min() < 0 or ring[:, 1].min() < 0 or ring[:, 0].max() > w - 1 or ring[:, 1].max() > h - 1
        rng = np.random.default_rng(4)
        omaps = OrientationMaps(
            rng.uniform(-1, 1, SHAPE).astype(np.float32), rng.uniform(-1, 1, SHAPE).astype(np.float32)
        )
        full = polygon_pixels_oracle(ring, SHAPE)
        x_med = float(np.median(omaps.ox[full]))
        y_med = float(np.median(omaps.oy[full]))
        est = estimate_line_angle(line.polygon, omaps)
        assert (est.x_med, est.y_med) == (x_med, y_med)
        assert est.angle_deg == math.degrees(math.atan2(y_med, x_med))

    def test_polygon_outside_the_frame_raises(self):
        pts = np.array([[-40.0, 5.0], [-20.0, 5.0]])
        line = TextLine("l0", Polyline(pts), 6.0, 2.0, polygon_from_baseline(pts, 6.0, 2.0))
        z = np.zeros(SHAPE, dtype=np.float32)
        with pytest.raises(ValueError, match="empty polygon"):
            estimate_line_angle(line.polygon, OrientationMaps(z, z))


class TestPolylinePixels:
    def test_batch_equals_each_polyline_alone(self):
        """Pixels of many polylines at once: each polyline's rounded half-pixel samples, in bounds, sorted, once."""
        rng = np.random.default_rng(40)
        for _ in range(300):
            shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            lines = []
            for _ in range(int(rng.integers(0, 6))):
                n = int(rng.integers(2, 7))
                pts = rng.uniform(-8, 48, (1, 2)) + np.cumsum(rng.uniform(-1, 1, (n, 2)) * rng.choice([0.3, 2.0, 20.0]), axis=0)
                lines.append(np.round(pts * 2) / 2 if rng.uniform() < 0.3 else pts)  # samples on pixel boundaries too
            rows, cols, counts = polyline_pixels(lines, shape)
            assert len(counts) == len(lines)
            for pts, a, b in zip(lines, np.cumsum(counts) - counts, np.cumsum(counts)):
                samples = np.rint(sample_polyline(pts, 0.5)).astype(np.int64)
                ok = (samples[:, 0] >= 0) & (samples[:, 0] < shape[1]) & (samples[:, 1] >= 0) & (samples[:, 1] < shape[0])
                want = sorted({(int(r), int(c)) for c, r in samples[ok]})
                assert list(zip(rows[a:b].tolist(), cols[a:b].tolist())) == want
