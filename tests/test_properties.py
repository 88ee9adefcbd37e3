"""Properties over generated inputs (Hypothesis; the budget is the profile in conftest.py).

Extraction is total on valid maps, and its layout survives a JSON round trip
byte for byte; on lines at the page edges every polygon is clipped where it
is built, so ``PageLayout``, which rejects off-page geometry, accepts every
layout; reading a damaged ``.pncm`` fails only with ``MapFormatError``.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from pagelayout.baselines import ExtractParams, detect_baselines
from pagelayout.blocks import BlockParams, extract_page
from pagelayout.channels import ChannelMaps, MapFormatError, OrientationMaps, read_maps, rotate_maps, write_maps
from pagelayout.layout import load_layout, save_layout
from pagelayout.orient import detect_multi_orientation
from pagelayout.render import render_gt
from pagelayout.synth import SynthConfig, corrupt, generate

from conftest import edge_line_maps
from oracles import extract_page_oracle

# one-row and one-column pages, and small pages
shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 80)),
    st.tuples(st.integers(1, 80), st.just(1)),
    st.tuples(st.integers(2, 48), st.integers(2, 48)),
)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def channel_maps(draw):
    """Valid detection planes: ``base`` is noise, a binary mask or lit rows; heights reach up to 0, 1, 10 or 1e4 px."""
    h, w = draw(shapes)
    rng = np.random.default_rng(draw(seeds))
    kind = draw(st.sampled_from(["noise", "mask", "rows"]))
    if kind == "noise":
        base = rng.uniform(0, 1, (h, w))
    elif kind == "mask":
        base = (rng.uniform(0, 1, (h, w)) < 0.5).astype(np.float64)
    else:
        base = np.zeros((h, w))
        base[rng.integers(0, h, 1 + h // 8)] = 1.0
    asc, des = (rng.uniform(0, draw(st.sampled_from([0.0, 1.0, 10.0, 1e4])), (h, w)) for _ in range(2))
    end, block = (rng.uniform(0, draw(st.sampled_from([0.0, 1.0])), (h, w)) for _ in range(2))
    return ChannelMaps(base, end, asc, des, block)


# a constant unit direction (ox, oy) or, with a seed, a random direction per pixel
fields = st.tuples(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.6, -0.8)]), st.none() | seeds)


def assert_round_trips(layout):
    data = save_layout(layout)
    assert save_layout(load_layout(data)) == data


@given(channel_maps())
@example(edge_line_maps(1, 50))
def test_extract_page_is_total_and_round_trips(maps):
    assert_round_trips(extract_page(maps))


@given(channel_maps(), fields)
@example(edge_line_maps(50, 1), ((0.0, -1.0), None))
def test_multi_orientation_is_total_and_round_trips(maps, field):
    (ox, oy), seed = field
    if seed is None:
        omaps = OrientationMaps(np.full(maps.shape, ox), np.full(maps.shape, oy))
    else:
        angle = np.random.default_rng(seed).uniform(-np.pi, np.pi, maps.shape)
        omaps = OrientationMaps(np.cos(angle), np.sin(angle))
    assert_round_trips(detect_multi_orientation({t: rotate_maps(maps, t) for t in (0, 1, 3)}, omaps))


@st.composite
def noisy_pages(draw):
    """A small generated page, jittered baselines included, under criterion-2-like corruption."""
    cfg = SynthConfig(
        seed=draw(seeds),
        page_size=(256, 320),
        columns=(1, 2),
        lines_per_block=(2, 5),
        ascender_range=(6.0, draw(st.sampled_from([12.0, 20.0]))),
        baseline_jitter=draw(st.sampled_from([0.0, 1.0, 2.5])),
    )
    try:
        layout = generate(cfg)
    except ValueError:  # a rare jittered config leaves no room for a block
        assume(False)
    noise = draw(st.sampled_from([0.05, 0.1, 0.2]))
    return corrupt(render_gt(layout), noise, 3, draw(st.sampled_from([0.02, 0.05, 0.15])), rng_seed=cfg.seed)


extract_params = st.builds(
    ExtractParams,
    threshold=st.sampled_from([0.2, 0.3, 0.45]),
    min_length=st.sampled_from([2.0, 5.0, 12.0]),
    max_control_points=st.sampled_from([2, 3, 10, 25]),
)
block_params = st.builds(
    BlockParams,
    height_percentile=st.sampled_from([0.0, 50.0, 75.0, 100.0]),
    penalty_area_thickness=st.sampled_from([1.0, 2.5, 3.0, 5.0]),
    penalty_threshold=st.sampled_from([0.1, 0.3, 0.6]),
    merge_y_tolerance=st.sampled_from([0.25, 0.5, 1.0]),
    merge_x_gap=st.sampled_from([0.5, 1.0, 3.0]),
)


@given(noisy_pages(), st.booleans(), st.one_of(st.none(), extract_params), st.one_of(st.none(), block_params))
def test_extract_page_equals_the_per_fragment_oracle(maps, merge, ep, bp):
    assert save_layout(extract_page(maps, ep, bp, merge)) == save_layout(extract_page_oracle(maps, ep, bp, merge))


def edge_page(height: int, width: int, seed: int) -> ChannelMaps:
    """Rows within 3 px of the top and the bottom edge, each beside a full row that clusters with it.

    An edge row is a torn dash row (straight, regular dashes) or a wavy
    stroke torn in 1-4 places; both reach within 3 px of the left and right
    edges.  Its companion row lies 0.55-0.95 line heights inward, so the
    pieces of the edge row share its block and merge; ascender 2-20 and
    descender 0-6 px carry their polygons off the page.
    """
    rng = np.random.default_rng(seed)
    asc, des = rng.uniform(2, 20), rng.uniform(0, 6)
    base = np.zeros((height, width))
    for inward in (1, -1):
        edge_y = rng.uniform(0, 3) if inward == 1 else height - 1 - rng.uniform(0, 3)
        companion_y = edge_y + inward * rng.uniform(0.55, 0.95) * (asc + des)
        for y, torn in ((edge_y, True), (companion_y, False)):
            xs = np.arange(int(rng.integers(0, 4)), width - int(rng.integers(0, 4)))
            if not (0 <= y <= height - 1) or len(xs) == 0:
                continue
            keep = np.ones(len(xs), dtype=bool)
            if rng.uniform() < 0.5:  # a dash row
                ys = np.full(len(xs), y)
                if torn:
                    period = int(rng.integers(14, 40))
                    keep = (xs - xs[0]) % period < period - int(rng.integers(6, 10))
            else:  # a wavy stroke
                ys = y + rng.uniform(0, 2) * np.sin(xs / rng.uniform(3, 13) + rng.uniform(0, 2 * np.pi))
                for _ in range(int(rng.integers(1, 5)) if torn else 0):
                    gap = int(rng.integers(0, len(xs)))
                    keep[gap : gap + int(rng.integers(6, 10))] = False
            rows = np.clip(np.rint(ys), 0, height - 1).astype(int)
            base[rows[keep], xs[keep]] = 1.0
    zero = np.zeros((height, width))
    return ChannelMaps(base, zero, np.full((height, width), asc), np.full((height, width), des), zero)


# a page whose torn top row merges into one line, with an unclipped polygon reaching above y = 0
MERGED_EDGE_PAGE = (48, 160, 1)


@given(st.integers(8, 64), st.integers(24, 160), seeds, st.sampled_from([0, 1, 3]))
@example(*MERGED_EDGE_PAGE, 0)
def test_edge_pages_are_clipped_where_built(height, width, seed, turn):
    page = rotate_maps(edge_page(height, width, seed), turn)
    # the rows' direction, turned with the page
    field = rotate_maps(OrientationMaps(np.ones((height, width)), np.zeros((height, width))), turn)
    assert_round_trips(extract_page(page))
    assert_round_trips(detect_multi_orientation({t: rotate_maps(page, t) for t in (0, 1, 3)}, field))


def test_merged_edge_line_is_clipped_where_built():
    page = edge_page(*MERGED_EDGE_PAGE)
    layout = extract_page(page)
    assert len(layout.lines()) < len(detect_baselines(page))  # the torn rows merged
    top = layout.blocks[0].lines[0]
    assert top.baseline.points[:, 1].max() == 0.0 and top.polygon.bounds()[1] == 0.0  # its ascender is cut at y = 0


def assert_reads_or_rejects(data: bytes):
    try:
        read_maps(data)
    except MapFormatError:
        pass


@pytest.mark.parametrize("stack", [edge_line_maps(1, 1), OrientationMaps.zeros(1, 1)], ids=["detection", "orientation"])
def test_every_truncation_and_byte_mutation_of_a_one_pixel_pncm(stack):
    data = write_maps(stack)
    for n in range(len(data)):
        assert_reads_or_rejects(data[:n])
    for i in range(len(data)):
        for value in range(256):
            assert_reads_or_rejects(data[:i] + bytes([value]) + data[i + 1 :])


@given(
    st.sampled_from([ChannelMaps, OrientationMaps]),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
    seeds,
    st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=40),
)
def test_damaged_pncm_raises_only_map_format_error(cls, shape, seed, mutations):
    rng = np.random.default_rng(seed)
    planes = {name: rng.uniform(lo, 1e4 if hi is None else hi, shape) for name, (lo, hi) in cls.RANGES.items()}
    data = write_maps(cls(**planes))
    for n in range(len(data)):
        assert_reads_or_rejects(data[:n])
    for pos, value in mutations:
        i = pos % len(data)
        assert_reads_or_rejects(data[:i] + bytes([value]) + data[i + 1 :])
