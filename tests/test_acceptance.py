"""Acceptance criteria for the full pipeline, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output section) and asserts the stated thresholds.
"""

import time

import numpy as np
import pytest

from pagelayout.baselines import connected_components, vertical_nms
from pagelayout.blocks import BlockParams, cluster_blocks, extract_page, nearest_rank_percentile
from pagelayout.channels import ChannelMaps, rotate_maps
from pagelayout.cli import main as cli_main
from pagelayout.geometry import Polygon, polygon_iou
from pagelayout.layout import baseline_midpoint
from pagelayout.losses import masked_mse, total_loss
from pagelayout.metrics import build_report, evaluate, match_polygons
from pagelayout.orient import detect_multi_orientation
from pagelayout.render import render_gt, render_orientation_gt
from pagelayout.scale import estimate_scale, sample_scale_augmentation
from pagelayout.synth import SynthConfig, corrupt, generate

from conftest import make_block, make_line, make_page
from oracles import (
    closure_partition_oracle,
    connected_components_oracle,
    greedy_match_oracle,
    neighbours_oracle,
    percentile_oracle,
    rect_iou_oracle,
    total_loss_oracle,
    vertical_nms_oracle,
)


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_1_clean_round_trip():
    """100 clean pages: baseline F >= 0.99, line F >= 0.97, block F >= 0.97, <= 60 s."""
    t0 = time.monotonic()
    rows = []
    for seed in range(100):
        layout = generate(SynthConfig(seed=seed))
        pred = extract_page(render_gt(layout))
        rows.append(evaluate(pred, layout))
    elapsed = time.monotonic() - t0
    agg = build_report(rows).aggregate
    fb, fl, fk = agg["baseline"]["f"], agg["line"]["f"], agg["block"]["f"]
    ok = fb >= 0.99 and fl >= 0.97 and fk >= 0.97 and elapsed <= 60.0
    report(
        "criterion 1 (clean round-trip)",
        ok,
        f"baseline F={fb:.4f} (>=0.99), line F={fl:.4f} (>=0.97), block F={fk:.4f} (>=0.97), {elapsed:.1f}s (<=60s)",
    )
    assert fb >= 0.99 and fl >= 0.97 and fk >= 0.97
    assert elapsed <= 60.0


def test_criterion_2_noisy_round_trip():
    """corrupt(sigma=0.1, blur=3, dropout=0.05): baseline F >= 0.95, block F >= 0.90."""
    rows = []
    for seed in range(100):
        layout = generate(SynthConfig(seed=seed))
        maps = corrupt(render_gt(layout), noise_sigma=0.1, blur_size=3, dropout_prob=0.05, rng_seed=seed)
        pred = extract_page(maps)
        rows.append(evaluate(pred, layout))
    agg = build_report(rows).aggregate
    fb, fl, fk = agg["baseline"]["f"], agg["line"]["f"], agg["block"]["f"]
    ok = fb >= 0.95 and fk >= 0.90
    report(
        "criterion 2 (noisy round-trip)",
        ok,
        f"baseline F={fb:.4f} (>=0.95), line F={fl:.4f} (not gated), block F={fk:.4f} (>=0.90)",
    )
    assert fb >= 0.95
    assert fk >= 0.90


def test_criterion_3_multi_orientation_round_trip():
    """50 pages with vertical text: baseline F >= 0.97 and zero duplicate lines."""
    rows = []
    duplicate_pairs = 0
    for seed in range(50):
        layout = generate(SynthConfig(seed=seed, vertical_line_prob=0.3))
        maps = render_gt(layout)
        omaps = render_orientation_gt(layout)
        pred = detect_multi_orientation({0: maps, 1: rotate_maps(maps, 1), 3: rotate_maps(maps, 3)}, omaps)
        lines = pred.lines()
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                if polygon_iou(lines[i].polygon, lines[j].polygon) > 0.5:
                    duplicate_pairs += 1
        rows.append(evaluate(pred, layout))
    fb = build_report(rows).aggregate["baseline"]["f"]
    ok = fb >= 0.97 and duplicate_pairs == 0
    report(
        "criterion 3 (multi-orientation round-trip)",
        ok,
        f"baseline F={fb:.4f} (>=0.97), duplicate pairs={duplicate_pairs} (=0)",
    )
    assert fb >= 0.97
    assert duplicate_pairs == 0


def test_criterion_4_loss_kernel_oracle():
    """1000 random 8x8 pairs: totals within 1e-6 relative; off-mask invariance bit-exact."""
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        def cm(binary_base=False):
            base = (
                (rng.uniform(0, 1, (8, 8)) > 0.6).astype(np.float32)
                if binary_base
                else rng.uniform(0, 1, (8, 8)).astype(np.float32)
            )
            return ChannelMaps(
                base,
                rng.uniform(0, 1, (8, 8)).astype(np.float32),
                rng.uniform(0, 24, (8, 8)).astype(np.float32),
                rng.uniform(0, 10, (8, 8)).astype(np.float32),
                rng.uniform(0, 1, (8, 8)).astype(np.float32),
            )

        pred, gt = cm(), cm(binary_base=True)
        got = total_loss(pred, gt).total
        want = total_loss_oracle(pred, gt, 0.01)
        rel = abs(got - want) / max(1.0, abs(want))
        worst = max(worst, rel)
    exact = True
    for _ in range(50):
        pred = rng.uniform(0, 20, (8, 8))
        gt = rng.uniform(0, 20, (8, 8))
        mask = (rng.uniform(0, 1, (8, 8)) > 0.5).astype(np.float64)
        ref = masked_mse(pred, gt, mask)
        nudged = pred.copy()
        nudged[mask == 0] = rng.uniform(-1e9, 1e9, int((mask == 0).sum()))
        if masked_mse(nudged, gt, mask) != ref:
            exact = False
    ok = worst <= 1e-6 and exact
    report(
        "criterion 4 (loss kernel oracle)",
        ok,
        f"worst relative error={worst:.2e} (<=1e-6), off-mask invariance bit-exact={exact}",
    )
    assert worst <= 1e-6
    assert exact


def test_criterion_5_scale_law():
    """P(s in [0.5, 2]) = 0.683 +/- 0.01 over 1e5 samples; half-ascender fixture gives factor 2 +/- 2%."""
    s = sample_scale_augmentation(2024, count=100_000)
    frac = float(((s >= 0.5) & (s <= 2.0)).mean())
    lines = [make_line(f"l{i}", 8, 110, 20 + 18 * i, 6.0, 2.0) for i in range(4)]
    page = make_page([make_block(f"b{i}", [ln]) for i, ln in enumerate(lines)], height=110, width=120)
    est = estimate_scale(render_gt(page))
    ok = abs(frac - 0.683) <= 0.01 and abs(est.scale_factor - 2.0) <= 0.04
    report(
        "criterion 5 (scale law)",
        ok,
        f"P(s in [0.5,2])={frac:.4f} (0.683 +/- 0.01), fixture factor={est.scale_factor:.4f} (2.0 +/- 2%)",
    )
    assert abs(frac - 0.683) <= 0.01
    assert abs(est.scale_factor - 2.0) <= 0.02 * 2.0


def test_criterion_6_algorithmic_oracles():
    """Five algorithms match brute-force references exactly on >= 500 instances each."""
    rng = np.random.default_rng(77)

    nms_ok = 0
    for _ in range(500):
        m = rng.uniform(size=(int(rng.integers(3, 33)), int(rng.integers(2, 33))))
        size = int(rng.choice([3, 5, 7, 9]))
        if np.array_equal(vertical_nms(m, size), vertical_nms_oracle(m, size)):
            nms_ok += 1

    cc_ok = 0
    for _ in range(500):
        fg = rng.uniform(size=(int(rng.integers(4, 33)), int(rng.integers(4, 33)))) < rng.uniform(0.08, 0.3)
        got = {frozenset(zip(map(int, rows), map(int, cols))) for rows, cols in connected_components(fg, 5, 9)}
        if got == connected_components_oracle(fg, 5, 9):
            cc_ok += 1

    pct_ok = 0
    for _ in range(500):
        vals = rng.uniform(0, 40, int(rng.integers(1, 24)))
        pct = int(rng.integers(0, 101))
        if nearest_rank_percentile(vals, pct) == percentile_oracle(vals, pct):
            pct_ok += 1

    match_ok = 0
    for _ in range(500):
        def rand_rects(k):
            out = []
            for _ in range(k):
                x0, y0 = rng.uniform(0, 40, 2)
                w_, h_ = rng.uniform(3, 14, 2)
                out.append(Polygon([[x0, y0], [x0 + w_, y0], [x0 + w_, y0 + h_], [x0, y0 + h_]]))
            return out

        pred = rand_rects(int(rng.integers(1, 7)))
        gt = rand_rects(int(rng.integers(1, 7)))
        iou = np.zeros((len(pred), len(gt)))
        for i, a in enumerate(pred):
            for j, b in enumerate(gt):
                iou[i, j] = rect_iou_oracle(
                    (*a.ring.min(axis=0), *a.ring.max(axis=0)), (*b.ring.min(axis=0), *b.ring.max(axis=0))
                )
        tp = greedy_match_oracle(iou, 0.7)
        p, r, _ = match_polygons(pred, gt)
        if p == tp / len(pred) and r == tp / len(gt):
            match_ok += 1

    cluster_ok = 0
    params = BlockParams()
    for _ in range(500):
        n = int(rng.integers(1, 13))
        lines = []
        for i in range(n):
            x0 = float(rng.uniform(0, 16))
            y = float(rng.uniform(6, 40))
            lines.append(make_line(f"l{i}", x0, x0 + float(rng.uniform(10, 28)), y, 5.0, 2.0))
        block_ch = (rng.uniform(0, 1, (48, 48)) > 0.85).astype(np.float32)
        z = np.zeros((48, 48), np.float32)
        maps = ChannelMaps(z, z, z, z, block_ch)
        x_ints = [ln.polygon.bounds()[::2] for ln in lines]  # (min x, max x)
        mids = [baseline_midpoint(ln.baseline)[1] for ln in lines]
        adj = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(n):
                if i != j:
                    adj[i, j] = neighbours_oracle(lines[i], lines[j], maps, params, x_ints[i], x_ints[j], mids[i], mids[j])
        want = {frozenset(f"l{i}" for i in comp) for comp in closure_partition_oracle(adj)}
        got = {frozenset(ln.id for ln in b.lines) for b in cluster_blocks(lines, maps, params)}
        if got == want:
            cluster_ok += 1

    counts = dict(nms=nms_ok, cc=cc_ok, percentile=pct_ok, greedy=match_ok, clustering=cluster_ok)
    ok = all(v == 500 for v in counts.values())
    report("criterion 6 (algorithmic oracles)", ok, f"exact matches out of 500 each: {counts}")
    assert counts == dict(nms=500, cc=500, percentile=500, greedy=500, clustering=500)


def test_criterion_7_cli_determinism(tmp_path):
    """Byte-identical CLI outputs across repeated runs and --jobs settings."""
    in_dir = tmp_path / "maps"
    gt_dir = tmp_path / "gt"
    in_dir.mkdir()
    gt_dir.mkdir()
    for seed in range(4):
        rc = cli_main(
            [
                "synth", "--seed", str(seed),
                "--out", str(gt_dir / f"p{seed}.json"),
                "--maps", str(in_dir / f"p{seed}.pncm"),
                "--noise-sigma", "0.05", "--blur", "3", "--dropout", "0.02", "--corrupt-seed", str(seed),
            ]
        )
        assert rc == 0

    outputs = []
    reports = []
    for tag, jobs in (("r1", "1"), ("r2", "2"), ("r3", "1")):
        out_dir = tmp_path / tag
        assert cli_main(["detect", "--in-dir", str(in_dir), "--out-dir", str(out_dir), "--jobs", jobs]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.glob("*.json"))})
        rpt = tmp_path / f"report_{tag}.json"
        assert cli_main(["eval", "--pred", str(out_dir), "--gt", str(gt_dir), "--report", str(rpt), "--jobs", jobs]) == 0
        reports.append(rpt.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2] and reports[0] == reports[1] == reports[2]
    report("criterion 7 (determinism)", ok, f"layouts identical={outputs[0] == outputs[1] == outputs[2]}, reports identical={reports[0] == reports[1] == reports[2]}")
    assert outputs[0] == outputs[1] == outputs[2]
    assert reports[0] == reports[1] == reports[2]
