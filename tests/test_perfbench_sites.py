"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps engine
functions by module attribute and binds some of their argument names; a
refactor that renames either would make every traced operation fail.
These tests only read ``perfbench``."""

import sys
from pathlib import Path

import pagelayout.blocks as blocks
import pagelayout.channels as channels
import pagelayout.metrics as metrics
import pagelayout.orient as orient
import pagelayout.render as render

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from layers import SITES  # noqa: E402
from spans import Recorder, installed  # noqa: E402


def test_every_site_resolves():
    for site, _ in SITES:
        assert callable(site.current()), site.name


def test_counters_bind_on_traced_pages(simple_page):
    recorder = Recorder()
    maps = render.render_gt(simple_page)
    frames = {0: maps, 1: channels.rotate_maps(maps, 1), 3: channels.rotate_maps(maps, 3)}
    with installed(recorder, [site for site, _ in SITES]):
        pred = blocks.extract_page(maps)
        metrics.evaluate(pred, simple_page)
        orient.detect_multi_orientation(frames, render.render_orientation_gt(simple_page))
        blocks.adjacency_penalty(*simple_page.lines(), maps)  # the engine itself scores pairs in one gather
    names = {s.name for s in recorder.spans}
    assert {
        "blocks.cluster_blocks",
        "blocks.adjacency_penalty",
        "blocks.merge_block_lines",
        "layout.intersection_area",
        "orient.cluster_blocks",
        "metrics._coverage",
        # orient.angle_ms and orient.candidates, the dedup, and baselines.smooth_nms_ms
        "orient.estimate_line_angle",
        "orient.polygon_iou",
        "baselines.smooth",
        "baselines.vertical_nms",
    } <= names
    counted = {name for _, name in recorder.counts}
    assert {"components", "cluster_lines", "orient_kept", "merges", "coverage_pairs"} <= counted
