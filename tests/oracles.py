"""Independent brute-force reference implementations used as test oracles.

Everything here is written for clarity over speed (plain python loops,
per-pixel scans) and deliberately avoids the library's own code paths.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage


def box_mean_oracle(arr: np.ndarray, size: int) -> np.ndarray:
    """size x size box mean with edge replication, by direct looping."""
    h, w = arr.shape
    half = size // 2
    out = np.zeros((h, w), dtype=np.float64)
    for r in range(h):
        for c in range(w):
            total = 0.0
            for dr in range(-half, half + 1):
                for dc in range(-half, half + 1):
                    rr = min(max(r + dr, 0), h - 1)
                    cc = min(max(c + dc, 0), w - 1)
                    total += arr[rr, cc]
            out[r, c] = total / (size * size)
    return out


def vertical_nms_oracle(arr: np.ndarray, size: int) -> np.ndarray:
    """Keep values equal to the max of the clipped vertical window."""
    h, w = arr.shape
    half = size // 2
    out = np.zeros((h, w), dtype=np.float64)
    for r in range(h):
        for c in range(w):
            lo = max(0, r - half)
            hi = min(h - 1, r + half)
            m = max(arr[rr, c] for rr in range(lo, hi + 1))
            if arr[r, c] >= m:
                out[r, c] = arr[r, c]
    return out


def connected_components_oracle(fg: np.ndarray, cc_width: int, cc_height: int) -> set[frozenset]:
    """Transitive closure of |dx|<=dxmax, |dy|<=dymax adjacency via union-find."""
    dx = (cc_width - 1) // 2
    dy = (cc_height - 1) // 2
    pixels = [(int(r), int(c)) for r, c in zip(*np.nonzero(fg))]
    index = {p: i for i, p in enumerate(pixels)}
    parent = list(range(len(pixels)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (r, c), i in index.items():
        for dr in range(-dy, dy + 1):
            for dc in range(-dx, dx + 1):
                j = index.get((r + dr, c + dc))
                if j is not None and j != i:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[rj] = ri

    groups: dict[int, set] = {}
    for p, i in index.items():
        groups.setdefault(find(i), set()).add(p)
    return {frozenset(g) for g in groups.values()}


def percentile_oracle(values, pct: float) -> float:
    """Nearest-rank percentile by counting: smallest v with rank >= ceil(p*n/100)."""
    vals = sorted(float(v) for v in values)
    n = len(vals)
    k = max(1, int(math.ceil(pct * n / 100.0 - 1e-9)))
    for v in vals:
        if sum(1 for u in vals if u <= v) >= k:
            return v
    return vals[-1]


def rect_iou_oracle(a, b) -> float:
    """Analytic IoU of two (x0, y0, x1, y1) rectangles."""
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def raster_iou_oracle(ring_a: np.ndarray, ring_b: np.ndarray, resolution: int = 400) -> float:
    """IoU by counting supersampled points inside both rings."""

    def inside(ring, xs, ys):
        out = np.zeros(xs.shape, dtype=bool)
        n = len(ring)
        for i in range(n):
            x1, y1 = ring[i]
            x2, y2 = ring[(i + 1) % n]
            straddle = ((y1 <= ys) & (ys < y2)) | ((y2 <= ys) & (ys < y1))
            with np.errstate(divide="ignore", invalid="ignore"):
                xc = x1 + (ys - y1) / (y2 - y1) * (x2 - x1)
            out ^= straddle & (xs < xc)
        return out

    allpts = np.vstack([ring_a, ring_b])
    x0, y0 = allpts.min(axis=0) - 0.01
    x1, y1 = allpts.max(axis=0) + 0.01
    gx, gy = np.meshgrid(np.linspace(x0, x1, resolution), np.linspace(y0, y1, resolution))
    in_a = inside(ring_a, gx, gy)
    in_b = inside(ring_b, gx, gy)
    union = (in_a | in_b).sum()
    return float((in_a & in_b).sum() / union) if union else 0.0


def greedy_match_oracle(iou: np.ndarray, threshold: float) -> int:
    """True-positive count of greedy descending-IoU one-to-one matching."""
    pairs = [
        (float(iou[i, j]), i, j)
        for i in range(iou.shape[0])
        for j in range(iou.shape[1])
        if iou[i, j] > threshold
    ]
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_i: set[int] = set()
    used_j: set[int] = set()
    tp = 0
    for _, i, j in pairs:
        if i not in used_i and j not in used_j:
            used_i.add(i)
            used_j.add(j)
            tp += 1
    return tp


def closure_partition_oracle(adj: np.ndarray) -> set[frozenset]:
    """Connected components of an adjacency matrix via BFS."""
    n = adj.shape[0]
    seen = [False] * n
    out = set()
    for s in range(n):
        if seen[s]:
            continue
        comp = set()
        stack = [s]
        seen[s] = True
        while stack:
            u = stack.pop()
            comp.add(u)
            for v in range(n):
                if adj[u, v] and not seen[v]:
                    seen[v] = True
                    stack.append(v)
        out.add(frozenset(comp))
    return out


def neighbours_oracle(a, b, maps, params, xa, xb, ya, yb) -> bool:
    """The neighbour test of one line pair, both conditions and the penalty written out.

    Lines with x intervals ``xa``/``xb`` and baseline-midpoint y ``ya``/``yb``
    are neighbours when the intervals overlap (touching is not enough), the
    midpoints are vertically closer than the taller line's height, and both
    boundary penalties between the upper and the lower line stay below
    threshold.
    """
    from pagelayout.blocks import adjacency_penalty

    if min(xa[1], xb[1]) <= max(xa[0], xb[0]):  # touching intervals do not overlap
        return False
    if abs(ya - yb) >= max(a.height, b.height):
        return False
    upper, lower = (a, b) if ya <= yb else (b, a)
    try:
        p_up, p_low = adjacency_penalty(upper, lower, maps, params)
    except ValueError:
        return False
    return p_up < params.penalty_threshold and p_low < params.penalty_threshold


def masked_mse_oracle(pred, gt, mask) -> float:
    num = den = 0.0
    h, w = np.asarray(pred).shape
    for r in range(h):
        for c in range(w):
            num += (float(pred[r, c]) - float(gt[r, c])) ** 2 * float(mask[r, c])
            den += float(mask[r, c])
    return num / den if den > 0 else 0.0


def dice_oracle(pred, gt) -> float:
    inter = p2 = g2 = 0.0
    h, w = np.asarray(pred).shape
    for r in range(h):
        for c in range(w):
            p = float(pred[r, c])
            g = float(gt[r, c])
            inter += p * g
            p2 += p * p
            g2 += g * g
    return 1.0 - 2.0 * inter / (p2 + g2) if (p2 + g2) > 0 else 0.0


def total_loss_oracle(pred_maps, gt_maps, lam: float) -> float:
    return (
        lam
        * (
            masked_mse_oracle(pred_maps.asc, gt_maps.asc, gt_maps.base)
            + masked_mse_oracle(pred_maps.des, gt_maps.des, gt_maps.base)
        )
        + dice_oracle(pred_maps.base, gt_maps.base)
        + dice_oracle(pred_maps.end, gt_maps.end)
        + dice_oracle(pred_maps.block, gt_maps.block)
    )


def rotate_index_oracle(h: int, w: int, turns: int):
    """Map (row, col) -> rotated (row, col) by explicit case analysis."""

    def fn(r, c):
        t = turns % 4
        if t == 0:
            return (r, c)
        if t == 1:
            return (w - 1 - c, r)
        if t == 2:
            return (h - 1 - r, w - 1 - c)
        return (c, h - 1 - r)

    return fn


def _point_segment_distance(x, y, p, q) -> float:
    dx, dy = q[0] - p[0], q[1] - p[1]
    l2 = dx * dx + dy * dy
    t = 0.0 if l2 == 0 else max(0.0, min(1.0, ((x - p[0]) * dx + (y - p[1]) * dy) / l2))
    return float(np.hypot(x - (p[0] + t * dx), y - (p[1] + t * dy)))


def coverage_oracle(sources, targets, tolerance: float) -> float:
    """Share of 1 px arc-length samples of ``sources`` within tolerance of any target segment."""
    if not targets:
        return 0.0
    samples = []
    for pts in sources:
        pts = [(float(x), float(y)) for x, y in pts]
        segs = list(zip(pts[:-1], pts[1:]))
        lens = [math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in segs]
        total = sum(lens)
        positions = [float(k) for k in range(math.ceil(total))]
        if total - (positions[-1] if positions else 0.0) > 1e-9:
            positions.append(total)
        for s in positions:
            start = 0.0
            for i, ((a, b), length) in enumerate(zip(segs, lens)):
                if s <= start + length or i == len(segs) - 1:
                    f = min(1.0, (s - start) / length)
                    samples.append((a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1])))
                    break
                start += length
    covered = 0
    for x, y in samples:
        if any(
            _point_segment_distance(x, y, p, q) <= tolerance
            for pts in targets
            for p, q in zip(pts[:-1], pts[1:])
        ):
            covered += 1
    return covered / len(samples)


def stroke_pixels_oracle(points, shape, thickness: float) -> np.ndarray:
    """Full-frame mask of pixel centers within thickness/2 of the polyline, pixel by pixel."""
    h, w = shape
    out = np.zeros((h, w), dtype=bool)
    pts = [(float(x), float(y)) for x, y in points]
    for r in range(h):
        for c in range(w):
            out[r, c] = any(
                _point_segment_distance(float(c), float(r), p, q) <= thickness / 2.0
                for p, q in zip(pts[:-1], pts[1:])
            )
    return out


def disk_pixels_oracle(center, radius: float, shape) -> np.ndarray:
    h, w = shape
    out = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            out[r, c] = float(np.hypot(c - float(center[0]), r - float(center[1]))) <= radius
    return out


def polygon_pixels_oracle(ring, shape) -> np.ndarray:
    """Full-frame even-odd crossing test at every pixel center."""
    h, w = shape
    ring = [(float(x), float(y)) for x, y in ring]
    n = len(ring)
    out = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            inside = False
            for i in range(n):
                x1, y1 = ring[i]
                x2, y2 = ring[(i + 1) % n]
                if (y1 <= r < y2) or (y2 <= r < y1):
                    if c < x1 + (r - y1) / (y2 - y1) * (x2 - x1):
                        inside = not inside
            out[r, c] = inside
    return out


def dropout_oracle(base: np.ndarray, dropout_prob: float, rng_seed: int) -> np.ndarray:
    """Column-run dropout of ``corrupt`` with a full-frame mask per stroke.

    Uses the library's splitmix64 stream, since which columns tear is
    defined by its draws; everything else is the plain full-frame loop.
    """
    from pagelayout._rng import Rng

    rng = Rng(rng_seed)
    out = np.asarray(base, dtype=np.float64).copy()
    q = min(1.0, dropout_prob / (4.0 - 3.0 * dropout_prob))
    labels, n_labels = ndimage.label(out > 0.5, structure=np.ones((3, 3), dtype=bool))
    for lab in range(1, n_labels + 1):
        comp = labels == lab
        cols = np.nonzero(comp.any(axis=0))[0]
        c, c_hi = int(cols.min()), int(cols.max())
        while c <= c_hi:
            if rng.uniform() < q:
                run = rng.randint(2, 6)
                out[:, c : c + run][comp[:, c : c + run]] = 0.0
                c += run
            else:
                c += 1
    return out.astype(np.float32)


def _normal_array_oracle(rng, n: int) -> np.ndarray:
    """``Rng.normal_array`` as whole-array arithmetic: one arange of counters per half, then one concatenate."""
    seed, m = rng._seed, (n + 1) // 2

    def uniform(count: int) -> np.ndarray:
        start = rng._count + 1
        rng._count += count
        idx = np.arange(start, start + count, dtype=np.uint64)
        z = np.uint64(seed) + idx * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    u1 = np.maximum(uniform(m), 2.0**-53)
    u2 = uniform(m)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]


def corrupt_oracle(maps, noise_sigma: float = 0.0, blur_size: int = 1, dropout_prob: float = 0.0, rng_seed: int = 0):
    """``synth.corrupt`` as full-frame float64 arithmetic: blur, then column-run dropout, then clamped noise.

    Every channel is one float64 frame from start to end; the normal draws
    come from ``_normal_array_oracle`` and the tears from scalar ``Rng`` draws.
    """
    from pagelayout._rng import Rng
    from pagelayout.channels import ChannelMaps

    rng = Rng(rng_seed)
    chans = {name: arr.astype(np.float64) for name, arr in maps.channels().items()}
    if blur_size > 1:
        chans = {name: ndimage.uniform_filter(arr, size=blur_size, mode="nearest") for name, arr in chans.items()}
    h, w = maps.shape
    if dropout_prob > 0:
        mean_w = 4.0
        q = min(1.0, dropout_prob / (mean_w - (mean_w - 1.0) * dropout_prob))
        fg = chans["base"] > 0.5
        labels, _ = ndimage.label(fg, structure=np.ones((3, 3), dtype=bool))
        for lab, (rows, cols) in enumerate(ndimage.find_objects(labels), start=1):
            comp = labels[rows, cols] == lab
            base = chans["base"][rows, cols]
            c = 0
            while c < comp.shape[1]:
                if rng.uniform() < q:
                    run = rng.randint(2, 6)
                    base[:, c : c + run][comp[:, c : c + run]] = 0.0
                    c += run
                else:
                    c += 1
    if noise_sigma > 0:
        for name in ("base", "end", "asc", "des", "block"):
            chans[name] = chans[name] + noise_sigma * _normal_array_oracle(rng, h * w).reshape(h, w)
        for name in ("base", "end", "block"):
            chans[name] = np.clip(chans[name], 0.0, 1.0)
        for name in ("asc", "des"):
            chans[name] = np.maximum(chans[name], 0.0)
    return ChannelMaps(**{name: arr.astype(np.float32) for name, arr in chans.items()})


def _segment_intersection_xs_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    p1 = a
    r = np.roll(a, -1, axis=0) - a
    q1 = b
    s = np.roll(b, -1, axis=0) - b
    denom = r[:, None, 0] * s[None, :, 1] - r[:, None, 1] * s[None, :, 0]
    dx = q1[None, :, 0] - p1[:, None, 0]
    dy = q1[None, :, 1] - p1[:, None, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (dx * s[None, :, 1] - dy * s[None, :, 0]) / denom
        u = (dx * r[:, None, 1] - dy * r[:, None, 0]) / denom
    ok = (np.abs(denom) > 1e-9) & (t >= -1e-9) & (t <= 1 + 1e-9) & (u >= -1e-9) & (u <= 1 + 1e-9)
    if not ok.any():
        return np.empty(0)
    ti, tj = np.nonzero(ok)
    return p1[ti, 0] + t[ti, tj] * r[ti, 0]


def _slab_crossings_oracle(ring: np.ndarray, xm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x1 = ring[:, 0][:, None]
    y1 = ring[:, 1][:, None]
    nxt = np.roll(ring, -1, axis=0)
    x2 = nxt[:, 0][:, None]
    y2 = nxt[:, 1][:, None]
    xs = xm[None, :]
    straddle = ((x1 < xs) & (xs < x2)) | ((x2 < xs) & (xs < x1))
    with np.errstate(divide="ignore", invalid="ignore"):
        ys = y1 + (xs - x1) / (x2 - x1) * (y2 - y1)
    ys = np.where(straddle, ys, np.inf)
    return np.sort(ys, axis=0), straddle.sum(axis=0)


def _interval_overlap_total_oracle(ya: np.ndarray, yb: np.ndarray) -> float:
    total = 0.0
    for i in range(0, len(ya) - 1, 2):
        for j in range(0, len(yb) - 1, 2):
            total += max(0.0, min(ya[i + 1], yb[j + 1]) - max(ya[i], yb[j]))
    return total


def intersection_area_oracle(a, b) -> float:
    """Overlap area of two ``Polygon`` objects by one scalar slab loop.

    Vertical slabs between all vertex and edge-crossing abscissae, each
    integrated at its midpoint, slab by slab and interval pair by interval
    pair.  This is the single-pair kernel the library's batched form must
    reproduce bit for bit.
    """
    ax0, _, ax1, _ = a.bounds()
    bx0, _, bx1, _ = b.bounds()
    lo, hi = max(ax0, bx0), min(ax1, bx1)
    if hi - lo <= 1e-9:
        return 0.0
    xs = np.concatenate([a.ring[:, 0], b.ring[:, 0], _segment_intersection_xs_oracle(a.ring, b.ring), [lo, hi]])
    xs = np.unique(np.clip(xs, lo, hi))
    widths = np.diff(xs)
    keep = widths > 1e-9
    if not keep.any():
        return 0.0
    xm = (xs[:-1] + xs[1:])[keep] / 2.0
    widths = widths[keep]
    ys_a, counts_a = _slab_crossings_oracle(a.ring, xm)
    ys_b, counts_b = _slab_crossings_oracle(b.ring, xm)
    total = 0.0
    for s in range(len(xm)):
        ca, cb = counts_a[s], counts_b[s]
        if ca < 2 or cb < 2:
            continue
        ya = ys_a[:ca, s]
        yb = ys_b[:cb, s]
        if ca == 2 and cb == 2:
            ov = min(ya[1], yb[1]) - max(ya[0], yb[0])
            if ov > 0:
                total += ov * widths[s]
        else:
            total += _interval_overlap_total_oracle(ya, yb) * widths[s]
    return total


def block_polygon_oracle(lines):
    """Alpha-shape outline of all member line polygon vertices.

    alpha = 1 / (2 * median line height); falls back to the convex hull when
    the alpha complex disconnects or fails to cover some member line.
    An earlier outline rule of the library, kept as a reference: the hull
    whenever the alpha shape covers less than 0.97 of some line.  The
    library's ``block_polygon`` is now the convex hull alone, which holds
    this outline.
    """
    from pagelayout.geometry import alpha_shape, convex_hull, intersection_area

    verts = np.vstack([line.polygon.ring for line in lines])
    med_h = float(np.median([line.height for line in lines]))
    shape = alpha_shape(verts, 1.0 / (2.0 * max(med_h, 1.0)))
    covered = intersection_area(shape, [line.polygon for line in lines])
    if (covered < 0.97 * np.array([line.polygon.area for line in lines])).any():
        return convex_hull(verts)
    return shape


def _merge_pair_oracle(a, b, params, max_points: int):
    from pagelayout.blocks import nearest_rank_percentile, polygon_from_baseline
    from pagelayout.geometry import Polyline
    from pagelayout.layout import TextLine

    pts = np.vstack([a.baseline.points, b.baseline.points])
    order = np.argsort(pts[:, 0], kind="stable")
    px = pts[order, 0]
    py = pts[order, 1]
    keep = np.concatenate([[True], np.diff(px) > 1e-9])
    px, py = px[keep], py[keep]
    width = px[-1] - px[0]
    n = max(2, min(max_points, int(round(width)) + 1))
    xs = np.linspace(px[0], px[-1], n)
    ys = np.interp(xs, px, py)
    asc = nearest_rank_percentile([a.ascender, b.ascender], params.height_percentile)
    des = nearest_rank_percentile([a.descender, b.descender], params.height_percentile)
    first = a if a.baseline.points[:, 0].min() <= b.baseline.points[:, 0].min() else b
    baseline = np.stack([xs, ys], axis=1)
    return TextLine(first.id, Polyline(baseline), asc, des, polygon_from_baseline(baseline, asc, des))


def merge_fixpoint_oracle(block, params, max_control_points: int):
    """In-block fragment merging by rescanning every pair after each merge.

    Sorts by (left baseline x, id), merges the first pair in row-major order
    whose midpoint |dy| and horizontal gap are within the tolerances times
    the smaller height, and starts over until no pair qualifies.  The scan
    and the pair merge are written out here; lines, polygons and the block
    outline come from the library's constructors and ``block_polygon``.
    """
    from pagelayout.blocks import block_polygon
    from pagelayout.layout import TextBlock, baseline_midpoint

    def x_interval(ln):
        xs = ln.baseline.points[:, 0]
        return (float(xs.min()), float(xs.max()))

    lines = list(block.lines)
    changed = True
    while changed:
        changed = False
        lines.sort(key=lambda ln: (x_interval(ln)[0], ln.id))
        mids = [baseline_midpoint(ln.baseline)[1] for ln in lines]
        xints = [x_interval(ln) for ln in lines]
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                a, b = lines[i], lines[j]
                h_min = min(a.height, b.height)
                dy = abs(mids[i] - mids[j])
                xa, xb = xints[i], xints[j]
                gap = max(0.0, max(xa[0], xb[0]) - min(xa[1], xb[1]))
                if dy <= params.merge_y_tolerance * h_min and gap <= params.merge_x_gap * h_min:
                    merged = _merge_pair_oracle(a, b, params, max_control_points)
                    lines = [ln for k, ln in enumerate(lines) if k not in (i, j)] + [merged]
                    changed = True
                    break
            if changed:
                break
    if len(lines) == len(block.lines):
        return block
    return TextBlock(block.id, lines, block_polygon(lines))


def polygon_window_oracle(ring, shape):
    """``polygon_window`` by one Python pass per row: straddling edges, sorted crossings, spans."""
    h, w = shape
    ring = np.asarray(ring, dtype=np.float64)
    ys = ring[:, 1]
    r0 = max(0, int(np.ceil(ys.min())))
    r1 = min(h - 1, int(np.floor(ys.max())))
    nxt = np.roll(ring, -1, axis=0)
    x1s, y1s = ring[:, 0], ring[:, 1]
    x2s, y2s = nxt[:, 0], nxt[:, 1]
    spans = []  # (row, first column, last column)
    for r in range(r0, r1 + 1):
        y = float(r)
        straddle = ((y1s <= y) & (y < y2s)) | ((y2s <= y) & (y < y1s))
        if not straddle.any():
            continue
        t = (y - y1s[straddle]) / (y2s[straddle] - y1s[straddle])
        xs = np.sort(x1s[straddle] + t * (x2s[straddle] - x1s[straddle]))
        for i in range(0, len(xs) - 1, 2):
            c0 = max(0, int(np.ceil(xs[i] - 1e-9)))
            c1 = min(w - 1, int(np.floor(xs[i + 1] + 1e-9)))
            if c1 >= c0:
                spans.append((r, c0, c1))
    if not spans:
        return (slice(0, 0), slice(0, 0)), np.zeros((0, 0), dtype=bool)
    wy0, wy1 = spans[0][0], spans[-1][0]
    wx0 = min(s[1] for s in spans)
    wx1 = max(s[2] for s in spans)
    mask = np.zeros((wy1 - wy0 + 1, wx1 - wx0 + 1), dtype=bool)
    for r, c0, c1 in spans:
        mask[r - wy0, c0 - wx0 : c1 - wx0 + 1] = True
    return (slice(wy0, wy1 + 1), slice(wx0, wx1 + 1)), mask


def _segments_cross_oracle(p1, p2, q1, q2) -> bool:
    """True if the open interiors of two segments intersect (orientation signs beyond 1e-9)."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return ((d1 > 1e-9 and d2 < -1e-9) or (d1 < -1e-9 and d2 > 1e-9)) and (
        (d3 > 1e-9 and d4 < -1e-9) or (d3 < -1e-9 and d4 > 1e-9)
    )


def drop_self_intersections_oracle(ring: np.ndarray) -> np.ndarray:
    """Vertex-dropping ring cleaner that rescans every edge pair after each drop."""

    def first_crossing(r):
        n = len(r)
        for i in range(n):
            for j in range(i + 1, n):
                if (j + 1) % n == i or (i + 1) % n == j:
                    continue
                if _segments_cross_oracle(r[i], r[(i + 1) % n], r[j], r[(j + 1) % n]):
                    return i, j
        return None

    work = ring
    for _ in range(len(ring)):
        if len(work) <= 3:
            break
        hit = first_crossing(work)
        if hit is None:
            break
        _, j = hit
        work = np.delete(work, (j + 1) % len(work), axis=0)
    return work


def _vertex_up_normals_oracle(points: np.ndarray) -> np.ndarray:
    deltas = np.diff(points, axis=0)
    lens = np.hypot(deltas[:, 0], deltas[:, 1])
    units = deltas / lens[:, None]
    tangents = np.empty_like(points)
    tangents[0] = units[0]
    tangents[-1] = units[-1]
    if len(points) > 2:
        mids = units[:-1] + units[1:]
        norms = np.hypot(mids[:, 0], mids[:, 1])
        bad = norms < 1e-9
        mids[bad] = units[1:][bad]
        norms = np.hypot(mids[:, 0], mids[:, 1])
        tangents[1:-1] = mids / norms[:, None]
    return np.stack([tangents[:, 1], -tangents[:, 0]], axis=1)


def _strip_sum_oracle(block: np.ndarray, offset_pts: np.ndarray, cols: np.ndarray, thickness: float) -> float:
    order = np.argsort(offset_pts[:, 0], kind="stable")
    ys = np.interp(cols, offset_pts[order, 0], offset_pts[order, 1])
    half = thickness / 2.0
    h = block.shape[0]
    r0 = np.ceil(ys - half - 1e-9).astype(np.int64)
    r1 = np.floor(ys + half + 1e-9).astype(np.int64)
    depth = int((r1 - r0).max()) + 1
    rows = r0[None, :] + np.arange(depth)[:, None]
    valid = (rows <= r1[None, :]) & (rows >= 0) & (rows < h)
    vals = block[np.clip(rows, 0, h - 1), np.broadcast_to(cols, rows.shape)]
    return float(np.where(valid, vals, 0.0).sum())


def adjacency_penalty_oracle(upper, lower, maps, params):
    """Per-pair boundary penalties that offset both baselines afresh for every pair."""
    xa = (upper.polygon.ring[:, 0].min(), upper.polygon.ring[:, 0].max())
    xb = (lower.polygon.ring[:, 0].min(), lower.polygon.ring[:, 0].max())
    lo = float(max(xa[0], xb[0]))
    hi = float(min(xa[1], xb[1]))
    cols = np.arange(int(math.ceil(lo)), int(math.floor(hi)) + 1)
    cols = cols[(cols >= 0) & (cols < maps.width)]
    if hi - lo <= 0 or len(cols) == 0:
        raise ValueError("not neighbours")
    pu = upper.baseline.points
    pl = lower.baseline.points
    up_strip = pu + (-upper.descender) * _vertex_up_normals_oracle(pu)
    low_strip = pl + lower.ascender * _vertex_up_normals_oracle(pl)
    t = params.penalty_area_thickness
    return (
        _strip_sum_oracle(maps.block, up_strip, cols, t) / len(cols),
        _strip_sum_oracle(maps.block, low_strip, cols, t) / len(cols),
    )


def detect_fg_oracle(maps, params) -> np.ndarray:
    """Foreground of ``detect_baselines`` from full-frame float64 temporaries, one per step."""
    base = np.asarray(maps.base, dtype=np.float64)
    if params.smooth_size == 1:
        smoothed = base.copy()
    else:
        smoothed = ndimage.uniform_filter(base, size=params.smooth_size, mode="nearest")
    win_max = ndimage.maximum_filter(smoothed, size=(params.nms_size, 1), mode="nearest")
    response = np.where(smoothed >= win_max, smoothed, 0.0)
    response = np.maximum(response - maps.end.astype(np.float64), 0.0)
    return response >= params.threshold


def alpha_shape_oracle(points, alpha: float):
    """``alpha_shape`` counting triangle edges in a dict, in first-appearance order.

    Triangulation, circumradii, boundary walk and fallbacks are the
    library's; only the boundary-edge count is written out here.
    """
    from scipy.spatial import Delaunay, QhullError

    from pagelayout.geometry import Polygon, _circumradii, _walk_boundary, convex_hull

    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) < 3:
        raise ValueError("degenerate point set")
    try:
        tri = Delaunay(pts)
    except QhullError as exc:
        raise ValueError("degenerate point set") from exc
    r_max = math.inf if alpha <= 0 else 1.0 / alpha
    kept = tri.simplices[_circumradii(pts, tri.simplices) <= r_max]
    if len(kept) == 0:
        return convex_hull(pts)
    counts: dict[tuple[int, int], int] = {}
    for s in kept:
        for u, v in ((s[0], s[1]), (s[1], s[2]), (s[2], s[0])):
            key = (u, v) if u < v else (v, u)
            counts[key] = counts.get(key, 0) + 1
    loop = _walk_boundary([e for e, c in counts.items() if c == 1])
    if loop is None or len(loop) < 3:
        return convex_hull(pts)
    try:
        return Polygon(pts[loop])
    except ValueError:
        return convex_hull(pts)


# Point-to-segment distances and containment tests written out once per use,
# each in its own arithmetic order: ``geometry._segment_distance`` and
# ``geometry._contains_within`` must equal every one of them bit for bit.


def segment_distance_grid_oracle(p, q, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Distance from every (col, row) grid center to segment p-q, with its own zero-length branch."""
    px, py = p
    qx, qy = q
    dx, dy = qx - px, qy - py
    cc, rr = np.meshgrid(cols, rows)
    seg_len2 = dx * dx + dy * dy
    if seg_len2 <= 1e-18:
        return np.hypot(cc - px, rr - py)
    t = np.clip(((cc - px) * dx + (rr - py) * dy) / seg_len2, 0.0, 1.0)
    return np.hypot(cc - (px + t * dx), rr - (py + t * dy))


def points_ring_distance_oracle(ring: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distance of many points to the ring boundary, all edges at once."""
    nxt = np.roll(ring, -1, axis=0)
    d = nxt - ring
    l2 = np.maximum((d * d).sum(axis=1), 1e-18)[None, :]
    px, py = pts[:, 0][:, None], pts[:, 1][:, None]
    t = np.clip(((px - ring[:, 0][None, :]) * d[:, 0][None, :] + (py - ring[:, 1][None, :]) * d[:, 1][None, :]) / l2, 0.0, 1.0)
    cx = ring[:, 0][None, :] + t * d[:, 0][None, :]
    cy = ring[:, 1][None, :] + t * d[:, 1][None, :]
    return np.hypot(px - cx, py - cy).min(axis=1)


def _points_in_ring_oracle(ring: np.ndarray, pts: np.ndarray) -> np.ndarray:
    inside = np.zeros(len(pts), dtype=bool)
    for (x1, y1), (x2, y2) in zip(ring, np.roll(ring, -1, axis=0)):
        straddle = ((y1 <= pts[:, 1]) & (pts[:, 1] < y2)) | ((y2 <= pts[:, 1]) & (pts[:, 1] < y1))
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = x1 + (pts[:, 1] - y1) / (y2 - y1) * (x2 - x1)
        inside ^= straddle & (pts[:, 0] < x_cross)
    return inside


def textline_contains_oracle(ring: np.ndarray, pts: np.ndarray) -> bool:
    """``TextLine``'s baseline test: no point outside the ring farther than 0.5 from it."""
    outside = ~_points_in_ring_oracle(ring, pts)
    return not (outside.any() and (points_ring_distance_oracle(ring, pts[outside]) > 0.5).any())


def cleaned_ring_contains_oracle(ring: np.ndarray, pts: np.ndarray, tol: float = 0.45) -> bool:
    """``polygon_from_baseline``'s test of a cleaned ring: every outside point within ``tol``."""
    outside = ~_points_in_ring_oracle(ring, pts)
    return bool((points_ring_distance_oracle(ring, pts[outside]) <= tol).all())


def coverage_distance_oracle(q: np.ndarray, segs: np.ndarray, k: int) -> np.ndarray:
    """Distance of points ``q`` to segment ``k`` of ``segs`` ((K, 2, 2) start and end points).

    The squared lengths of all segments are taken at once, as baseline
    coverage did before it shared the library's kernel.
    """
    d = segs[:, 1] - segs[:, 0]
    l2 = np.maximum((d * d).sum(axis=1), 1e-18)
    p = segs[k, 0]
    t = np.clip(((q[:, 0] - p[0]) * d[k, 0] + (q[:, 1] - p[1]) * d[k, 1]) / l2[k], 0.0, 1.0)
    return np.hypot(q[:, 0] - (p[0] + t * d[k, 0]), q[:, 1] - (p[1] + t * d[k, 1]))


def render_orientation_oracle(layout) -> tuple[np.ndarray, np.ndarray]:
    """``render_orientation_gt``'s ox and oy planes, with its own nearest-segment loop.

    Each pixel inside a line polygon takes the unit direction of the
    nearest baseline segment (the first on ties); ``t`` divides by the
    squared ``hypot`` length.  Fills come from the library's
    ``polygon_window``.
    """
    from pagelayout._raster import polygon_window

    h, w = layout.size
    ox = np.zeros((h, w), dtype=np.float32)
    oy = np.zeros((h, w), dtype=np.float32)
    for blk in layout.blocks:
        for line in blk.lines:
            sl, mask = polygon_window(line.polygon.ring, (h, w))
            rows, cols = np.nonzero(mask)
            rows += sl[0].start
            cols += sl[1].start
            pts = line.baseline.points
            deltas = pts[1:] - pts[:-1]
            lens = np.hypot(deltas[:, 0], deltas[:, 1])
            units = deltas / lens[:, None]
            best_d = np.full(rows.shape, np.inf)
            best_i = np.zeros(rows.shape, dtype=np.int64)
            for i, (p, dvec, length) in enumerate(zip(pts[:-1], deltas, lens)):
                t = np.clip(((cols - p[0]) * dvec[0] + (rows - p[1]) * dvec[1]) / (length * length), 0.0, 1.0)
                d = np.hypot(cols - (p[0] + t * dvec[0]), rows - (p[1] + t * dvec[1]))
                closer = d < best_d
                best_d[closer] = d[closer]
                best_i[closer] = i
            ox[rows, cols] = units[best_i, 0].astype(np.float32)
            oy[rows, cols] = units[best_i, 1].astype(np.float32)
    return ox, oy


def line_polygon_oracle(baseline, maps, params, line_id):
    """A ``TextLine`` for one baseline, its ring always built by ``polygon_from_baseline`` and clipped to the page.

    Raises ``ValueError`` as ``line_polygon`` does: for a baseline with no
    pixel on the page, and when clipping leaves no polygon area.
    """
    from pagelayout.blocks import _heights, polygon_from_baseline
    from pagelayout.geometry import clip_to_page
    from pagelayout.layout import TextLine

    asc, des, on_page = _heights([baseline], maps, params.height_percentile)
    if not on_page[0]:
        raise ValueError("baseline out of bounds")
    polygon = clip_to_page(polygon_from_baseline(baseline.points, asc[0], des[0]), *maps.shape)
    return TextLine(line_id, baseline, asc[0], des[0], polygon)


def cluster_blocks_oracle(lines, maps, params):
    """``cluster_blocks`` one pair at a time (:func:`neighbours_oracle`), closed by :func:`closure_partition_oracle`.

    Groups are ordered top to bottom by their highest baseline midpoint, ties
    by the leftmost one, and hold their lines in input order.
    """
    from pagelayout.blocks import LineGroup
    from pagelayout.layout import baseline_midpoint

    n = len(lines)
    x_ints = [line.polygon.bounds()[::2] for line in lines]
    mids = [baseline_midpoint(line.baseline) for line in lines]
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            adj[i, j] = adj[j, i] = neighbours_oracle(
                lines[i], lines[j], maps, params, x_ints[i], x_ints[j], mids[i][1], mids[j][1]
            )
    comps = sorted((sorted(c) for c in closure_partition_oracle(adj)), key=min)
    comps.sort(key=lambda idx: (min(mids[k][1] for k in idx), min(mids[k][0] for k in idx)))
    return [LineGroup(f"b{k}", [lines[k] for k in idx]) for k, idx in enumerate(comps)]


def detect_multi_orientation_oracle(maps_by_turn, omaps):
    """``detect_multi_orientation`` at default parameters without the orientation gate.

    Every frame detects on its whole ``base`` channel, and each baseline is
    built by :func:`line_polygon_oracle`; the orientation field is read only
    by the per-line angle filter, then the IoU dedup, the per-frame
    clustering (a pair at a time, :func:`cluster_blocks_oracle`), merging and
    placement run as in the library; each block is outlined by the library's
    ``block_polygon`` over its lines mapped back.
    Angle estimates go through ``pagelayout.orient.estimate_line_angle`` by
    module attribute, so a test can count the candidates.
    """
    import itertools

    import pagelayout.orient as orient
    from pagelayout.baselines import ExtractParams, detect_baselines
    from pagelayout.blocks import BlockParams, block_polygon, merge_block_lines
    from pagelayout.geometry import Polyline, clip_to_page, polygon_iou, rotate90_points
    from pagelayout.layout import PageLayout, TextBlock, TextLine, reading_key

    extract_params, block_params = ExtractParams(), BlockParams()
    size0 = maps_by_turn[0].shape
    candidates = []  # (angdist, turn, index, frame_line, its polygon in the original frame)
    for t in (0, 1, 3):
        maps = maps_by_turn[t]
        back = (4 - t) % 4
        for i, bl in enumerate(detect_baselines(maps, extract_params)):
            try:
                frame_line = line_polygon_oracle(bl, maps, block_params, f"t{t}l{i}")
                polygon = clip_to_page(orient.rotate_polygon(frame_line.polygon, maps.shape, back), *size0)
            except ValueError:
                continue
            try:
                est = orient.estimate_line_angle(polygon, omaps)
            except ValueError:
                continue
            dist = orient.angular_distance(est.angle_deg, orient.TURN_ANGLES[t])
            if dist <= orient.MAX_ANGLE_DIFF + 1e-9:
                candidates.append((dist, t, i, frame_line, polygon))

    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    kept = []
    for cand in candidates:
        if (polygon_iou(cand[4], [k[4] for k in kept]) <= orient.DEDUP_IOU).all():
            kept.append(cand)
    in_original = {id(c[3]): c[4] for c in kept}

    placed = []
    for t in (0, 1, 3):
        frame_size = maps_by_turn[t].shape
        back = (4 - t) % 4
        for group in cluster_blocks_oracle([c[3] for c in kept if c[1] == t], maps_by_turn[t], block_params):
            group = merge_block_lines(group, frame_size, block_params, extract_params.max_control_points)
            lines = []
            for line in group.lines:
                polygon = in_original.get(id(line))
                if polygon is None:  # a merged line, clipped to its frame; rotate_polygon clips it to the page
                    polygon = orient.rotate_polygon(line.polygon, frame_size, back)
                baseline = Polyline(rotate90_points(line.baseline.points, frame_size, back))
                lines.append(TextLine(line.id, baseline, line.ascender, line.descender, polygon))
            lines.sort(key=lambda ln: reading_key(ln.baseline, ln.id))
            placed.append((block_polygon(lines), lines))

    placed.sort(key=lambda p: (p[0].bounds()[1], p[0].bounds()[0]))
    line_ids = (f"l{i}" for i in itertools.count())
    blocks = [
        TextBlock(
            f"b{k}", [TextLine(next(line_ids), ln.baseline, ln.ascender, ln.descender, ln.polygon) for ln in lines], outline
        )
        for k, (outline, lines) in enumerate(placed)
    ]
    return PageLayout("page", size0[0], size0[1], blocks)


def fit_spline_oracle(rows: np.ndarray, cols: np.ndarray, max_points: int):
    """One component's spline fit on its own: uniformly spaced control points, y the mean row per x-bin."""
    from pagelayout.geometry import Polyline

    minc, maxc = int(cols.min()), int(cols.max())
    width = maxc - minc + 1
    n = max(2, min(max_points, width))
    xs = np.linspace(minc, maxc, n)
    step = (maxc - minc) / (n - 1)
    bins = np.clip(np.rint((cols - minc) / step).astype(np.int64), 0, n - 1)
    counts = np.bincount(bins, minlength=n)
    sums = np.bincount(bins, weights=rows, minlength=n)
    ys = np.full(n, np.nan)
    nz = counts > 0
    ys[nz] = sums[nz] / counts[nz]
    if not nz.all():
        idx = np.nonzero(nz)[0]
        ys = np.interp(np.arange(n), idx, ys[idx])
    return Polyline(np.stack([xs, ys], axis=1))


def extract_page_oracle(maps, extract_params=None, block_params=None, merge=True, page_id="page"):
    """``extract_page`` with a validated ``TextLine`` for every detected baseline.

    Each baseline is built by :func:`line_polygon_oracle` (never the
    library's no-repair ring test) and dropped on ``ValueError``; the lines
    are then clustered a pair at a time by :func:`cluster_blocks_oracle`,
    and merged and outlined by the library's functions.
    """
    from pagelayout.baselines import ExtractParams, detect_baselines
    from pagelayout.blocks import BlockParams, block_polygon, merge_block_lines
    from pagelayout.layout import PageLayout, TextBlock

    extract_params = extract_params or ExtractParams()
    block_params = block_params or BlockParams()
    lines = []
    for i, bl in enumerate(detect_baselines(maps, extract_params)):
        try:
            lines.append(line_polygon_oracle(bl, maps, block_params, f"l{i}"))
        except ValueError:
            pass
    groups = cluster_blocks_oracle(lines, maps, block_params)
    if merge:
        groups = [merge_block_lines(g, maps.shape, block_params, extract_params.max_control_points) for g in groups]
    blocks = [TextBlock(g.id, g.lines, block_polygon(g.lines)) for g in groups if g.lines]
    return PageLayout(page_id, maps.height, maps.width, blocks)


def sample_polyline_oracle(points, step: float = 1.0) -> np.ndarray:
    """One polyline's samples by ``np.arange`` and ``np.interp`` over its cumulative lengths, as
    ``_raster.sample_polyline`` was written before it shared the batched sampler."""
    pts = np.asarray(points, dtype=np.float64)
    cum = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(pts, axis=0).T))])
    total = cum[-1]
    ds = np.arange(0.0, total, step)
    if total - (ds[-1] if len(ds) else 0.0) > 1e-9:
        ds = np.concatenate([ds, [total]])
    return np.stack([np.interp(ds, cum, pts[:, 0]), np.interp(ds, cum, pts[:, 1])], axis=1)


def _coverage_per_segment_oracle(sources, targets, tolerance: float) -> float:
    """Baseline coverage one target segment at a time, each testing the not yet covered samples of its box."""
    from pagelayout.geometry import _segment_distance

    if not targets:
        return 0.0
    pts = np.concatenate([sample_polyline_oracle(line.points, 1.0) for line in sources])
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


def _match_per_prediction_oracle(pred, gt, iou_threshold: float) -> tuple[float, float, float]:
    """Greedy IoU matching with one one-vs-many ``polygon_iou`` call per prediction, over the truths its box touches."""
    from pagelayout.geometry import polygon_iou
    from pagelayout.metrics import f_value

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
    for _, i, j in pairs:
        if i not in used_p and j not in used_g:
            used_p.add(i)
            used_g.add(j)
    p, r = len(used_p) / len(pred), len(used_g) / len(gt)
    return (p, r, f_value(p, r))


def evaluate_oracle(pred, gt, iou_threshold: float = 0.7):
    """``metrics.evaluate`` with per-segment baseline coverage and per-prediction polygon matching."""
    from pagelayout.metrics import PageScores, f_value

    heights = [line.height for line in gt.lines()]
    tolerance = 0.25 * float(np.median(heights)) if heights else 4.0
    pred_bl = [line.baseline for line in pred.lines()]
    gt_bl = [line.baseline for line in gt.lines()]
    if not pred_bl and not gt_bl:
        base = (1.0, 1.0, 1.0)
    else:
        p = 1.0 if not pred_bl else _coverage_per_segment_oracle(pred_bl, gt_bl, tolerance)
        r = 1.0 if not gt_bl else _coverage_per_segment_oracle(gt_bl, pred_bl, tolerance)
        base = (p, r, f_value(p, r))
    line = _match_per_prediction_oracle([ln.polygon for ln in pred.lines()], [ln.polygon for ln in gt.lines()], iou_threshold)
    block = _match_per_prediction_oracle([b.polygon for b in pred.blocks], [b.polygon for b in gt.blocks], iou_threshold)
    return PageScores(gt.page_id, base, line, block)
