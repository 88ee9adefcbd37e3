import hashlib
import json
import pickle
import warnings

import numpy as np
import pytest

from pagelayout.layout import (
    LayoutError,
    PageLayout,
    baseline_midpoint,
    load_layout,
    save_layout,
    sort_reading_order,
)
from pagelayout.blocks import extract_page
from pagelayout.channels import rotate_maps
from pagelayout.orient import detect_multi_orientation
from pagelayout.render import render_gt, render_orientation_gt
from pagelayout.synth import SynthConfig, corrupt, generate

from conftest import make_block, make_line, make_page


class TestRoundTrip:
    def test_minimal_page_round_trips_byte_identically(self):
        page = make_page([make_block("b0", [make_line("l0", 5, 60, 20, 8.0, 2.5)])])
        data = save_layout(page)
        again = save_layout(load_layout(data))
        assert data == again

    def test_two_line_page_round_trips(self, simple_page):
        data = save_layout(simple_page)
        assert save_layout(load_layout(data)) == data

    def test_generated_pages_round_trip(self):
        for seed in range(100):
            layout = generate(SynthConfig(seed=seed, page_size=(384, 512), columns=(1, 2)))
            data = save_layout(layout)
            back = load_layout(data)
            assert save_layout(back) == data
            for a, b in zip(layout.lines(), back.lines()):
                assert np.allclose(a.baseline.points, b.baseline.points, atol=1e-6)
                assert np.allclose(a.polygon.ring, b.polygon.ring, atol=1e-6)

    def test_canonical_bytes_for_equal_layouts(self, simple_page):
        rebuilt = load_layout(save_layout(simple_page))
        assert save_layout(rebuilt) == save_layout(simple_page)


class TestValidation:
    def test_zero_ascender_rejected(self):
        with pytest.raises(LayoutError, match="ascender"):
            make_line("l0", 0, 50, 20, 0.0, 3.0)

    def test_negative_descender_rejected(self):
        with pytest.raises(LayoutError, match="descender"):
            make_line("l0", 0, 50, 20, 5.0, -1.0)

    def test_load_rejects_zero_ascender(self, simple_page):
        doc = json.loads(save_layout(simple_page))
        doc["blocks"][0]["lines"][0]["ascender"] = 0.0
        with pytest.raises(LayoutError, match="ascender"):
            load_layout(json.dumps(doc).encode())

    def test_load_reports_path_of_bad_field(self, simple_page):
        doc = json.loads(save_layout(simple_page))
        doc["blocks"][0]["lines"][1]["baseline"] = [[0, 0]]
        with pytest.raises(LayoutError, match=r"blocks\[0\].lines\[1\].baseline"):
            load_layout(json.dumps(doc).encode())

    def test_load_rejects_nonfinite_coordinate(self, simple_page):
        doc = save_layout(simple_page).decode()
        doc = doc.replace("20.0", "NaN", 1)
        with pytest.raises(LayoutError):
            load_layout(doc.encode())

    def test_load_rejects_bad_height_type(self, simple_page):
        doc = json.loads(save_layout(simple_page))
        doc["height"] = 64.5
        with pytest.raises(LayoutError, match="height"):
            load_layout(json.dumps(doc).encode())

    def test_layout_error_pickles_with_path_and_message(self):
        err = pickle.loads(pickle.dumps(LayoutError("blocks[0].id", "expected a string")))
        assert type(err) is LayoutError
        assert (err.path, err.message, str(err)) == ("blocks[0].id", "expected a string", "blocks[0].id: expected a string")

    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda doc: doc.update(height=10**400), "height"),
            (lambda doc: doc.update(width=-(2**31) - 1), "width"),
            (lambda doc: doc["blocks"][0]["lines"][0].update(ascender=1e200), r"blocks\[0\].lines\[0\].ascender"),
            (lambda doc: doc["blocks"][0]["lines"][0].update(descender=10**400), r"blocks\[0\].lines\[0\].descender"),
            (lambda doc: doc["blocks"][0]["polygon"][1].__setitem__(0, 1e200), r"blocks\[0\].polygon\[1\]"),
            (lambda doc: doc["blocks"][0]["lines"][0]["baseline"][0].__setitem__(1, -(10**400)), r"lines\[0\].baseline\[0\]"),
        ],
        ids=["height", "width", "ascender", "descender", "block-polygon", "baseline"],
    )
    def test_load_rejects_out_of_range_numbers(self, simple_page, edit, path):
        doc = json.loads(save_layout(simple_page))
        edit(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LayoutError, match=path + ": magnitude above 2147483648"):
                load_layout(json.dumps(doc).encode())

    def test_load_rejects_huge_page_and_geometry(self):
        # one block on a page of height 10**400; one spanning 0..1e200 with a baseline to 5e199
        big_page = {"page_id": "p", "height": 10**400, "width": 10, "blocks": [
            {"id": "b0", "polygon": [[0, 0], [10, 0], [10, 10], [0, 10]], "lines": [
                {"id": "l0", "baseline": [[1, 5], [9, 5]], "ascender": 2, "descender": 1,
                 "polygon": [[1, 3], [9, 3], [9, 6], [1, 6]]}]}]}
        big = 1e200
        huge_geometry = {"page_id": "p", "height": 10, "width": 10, "blocks": [
            {"id": "b0", "polygon": [[0, 0], [big, 0], [big, big], [0, big]], "lines": [
                {"id": "l0", "baseline": [[0, big / 2], [big / 2, big / 2]], "ascender": 2, "descender": 1,
                 "polygon": [[0, 0], [big, 0], [big, big], [0, big]]}]}]}
        for doc, path in ((big_page, "height"), (huge_geometry, r"blocks\[0\].lines\[0\].baseline\[0\]")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(LayoutError, match=path + ": magnitude above"):
                    load_layout(json.dumps(doc).encode())

    def test_load_accepts_numbers_at_the_bound(self):
        doc = {"page_id": "p", "height": 2**31, "width": 2**31, "blocks": []}
        assert load_layout(json.dumps(doc).encode()).size == (2**31, 2**31)

    @pytest.mark.parametrize("height", [10.5, 10.0, np.float32(12), True, 0, -3, "12"])
    def test_page_size_must_be_a_positive_integer(self, height):
        """A fractional size would be cut by ``save_layout``'s int, leaving geometry off the loaded page."""
        block = make_block("b0", [make_line("l0", 2, 18, 8, 2.0, 2.4)])  # the polygon reaches y = 10.4
        with pytest.raises(LayoutError, match="^size: height must be a positive integer") as err:
            make_page([block], height=height, width=20)
        assert err.value.path == "size"

    def test_numpy_integer_page_size_is_an_int(self):
        page = make_page([make_block("b0", [make_line("l0", 2, 18, 8, 2.0, 2.4)])], height=np.int64(12), width=np.uint16(20))
        assert type(page.height) is int and type(page.width) is int
        assert load_layout(save_layout(page)) == page

    def test_duplicate_line_ids_rejected(self):
        l0 = make_line("l0", 8, 80, 20, 10.0, 3.0)
        l1 = make_line("l0", 12, 84, 32, 8.5, 4.5)
        with pytest.raises(LayoutError, match="duplicate"):
            make_page([make_block("b0", [l0, l1])])

    def test_empty_block_rejected(self):
        from pagelayout.geometry import Polygon
        from pagelayout.layout import TextBlock

        with pytest.raises(LayoutError, match="non-empty"):
            TextBlock("b0", [], Polygon([[0, 0], [1, 0], [1, 1]]))

    def test_uncovered_line_rejected_first_in_reading_order(self):
        from pagelayout.geometry import Polygon
        from pagelayout.layout import TextBlock

        lines = [make_line(f"l{i}", 10, 50, 20 * (i + 1), 6.0, 2.0) for i in range(3)]
        top = Polygon([[0, 0], [100, 0], [100, 40], [0, 40]])  # all of l0, 6 of l1's 8 rows, none of l2
        with pytest.raises(LayoutError, match=r"covers only 0\.75 of line 'l1'"):
            TextBlock("b0", lines[::-1], top)

    def test_out_of_bounds_geometry_is_rejected(self):
        line = make_line("l0", -5, 80, 6, 5.0, 3.0)  # reaches left of x=0
        with pytest.raises(LayoutError, match=r"^line 'l0'\.polygon: reaches off the page") as err:
            make_page([make_block("b0", [line])], height=64, width=96)
        assert err.value.path == "line 'l0'.polygon"

    def test_page_box_is_decided_alike_everywhere(self):
        """``PageLayout``, ``clip_to_page`` and the fragment ring check take the same rings as on the page:
        edges touching the page's sides, and -0.0, are on it; 1 ulp past a side is off."""
        from pagelayout.blocks import _clean_rings
        from pagelayout.geometry import Polygon, Polyline, clip_to_page
        from pagelayout.layout import TextBlock, TextLine

        h, w = 30, 40
        below, above = float(np.nextafter(0.0, -1.0)), (float(np.nextafter(w, np.inf)), float(np.nextafter(h, np.inf)))
        table = [  # x0, y0, x1, y1 of a rectangle ring, and whether it lies on the page
            (0.0, 10.0, 10.0, 20.0, True),
            (30.0, 10.0, w, 20.0, True),
            (10.0, 0.0, 20.0, 10.0, True),
            (10.0, 20.0, 20.0, h, True),
            (below, 10.0, 10.0, 20.0, False),
            (30.0, 10.0, above[0], 20.0, False),
            (10.0, below, 20.0, 10.0, False),
            (10.0, 20.0, 20.0, above[1], False),
            (-0.0, -0.0, 10.0, 10.0, True),
        ]
        for x0, y0, x1, y1, on_page in table:
            ring = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
            baseline = np.array([[x0 + 2, (y0 + y1) / 2], [x1 - 2, (y0 + y1) / 2]])
            polygon = Polygon(ring)
            line = TextLine("l0", Polyline(baseline), 5.0, 2.0, polygon)
            try:
                make_page([TextBlock("b0", [line], polygon)], height=h, width=w)
                accepted = True
            except LayoutError:
                accepted = False
            kept = clip_to_page(polygon, h, w) is polygon
            clean = bool(_clean_rings(ring[None], baseline[None], h, w)[0])
            assert (accepted, kept, clean) == (on_page,) * 3, (x0, y0, x1, y1)

    def test_load_rejects_off_page_line_polygon(self):
        page = make_page([make_block("b0", [make_line("l0", 8, 95, 20, 10.0, 3.0)])], height=64, width=96)
        doc = json.loads(save_layout(page))
        ring = doc["blocks"][0]["lines"][0]["polygon"]
        ring[int(np.argmax([x for x, _ in ring]))][0] = page.width + 1  # the block still covers the line
        with pytest.raises(LayoutError) as err:
            load_layout(json.dumps(doc))
        assert err.value.path == "line 'l0'.polygon"


class TestReadingOrder:
    def test_top_line_first(self, simple_page):
        assert [ln.id for ln in simple_page.blocks[0].lines] == ["l0", "l1"]

    def test_tie_broken_by_left_x(self):
        left = make_line("right-id", 5, 40, 20, 6.0, 2.0)
        right = make_line("a-id", 50, 90, 20, 6.0, 2.0)
        block = make_block("b0", [right, left])
        assert [ln.id for ln in block.lines] == ["right-id", "a-id"]

    def test_matches_midpoint_sort_oracle(self):
        rng = np.random.default_rng(7)
        lines = []
        for i in range(10):
            y = 15 + 22 * i + float(rng.uniform(-2, 2))
            x0 = float(rng.uniform(0, 20))
            lines.append(make_line(f"l{i}", x0, x0 + 60, y, 8.0, 2.0))
        perm = list(rng.permutation(10))
        shuffled = [lines[i] for i in perm]
        expected = [
            ln.id
            for ln in sorted(
                shuffled, key=lambda ln: (baseline_midpoint(ln.baseline)[1], baseline_midpoint(ln.baseline)[0])
            )
        ]
        assert [ln.id for ln in sort_reading_order(shuffled)] == expected


class TestPartition:
    def test_every_line_in_exactly_one_block(self):
        for seed in range(20):
            layout = generate(SynthConfig(seed=seed, page_size=(384, 512)))
            ids = [ln.id for ln in layout.lines()]
            assert len(ids) == len(set(ids))


# sha256 of ``save_layout`` of detected pages.  These pins guard the output
# bytes of the whole pipeline; they move only in a change that says why its
# output changes.
OUTPUT_PINS = {
    ("clean", 0): "9ab6512b86477ef274ea8aac216ea5a7902537ae5a294e8c78cc944da3229859",
    ("clean", 1): "85e759e068df459c83e2ad992809cf992b1a7573ace43913b9151411ce45bbda",
    ("noisy", 0): "ff341d40dec049b15d5e91d98fc9107237822f46ec59d7a5459aad0059a3a9fb",
    ("noisy", 1): "e93fb2ce51c9cdf83b23575a7f22567e2a78bcf3da933ab2baea5518cfda257e",
    ("multi", 3): "62a2fa99eea04e604b4037c674c3d770531b862f266481c916349d0be8647f5c",
    ("multi", 10): "4664dea6c45b12b4a537cdcf1880d28e467764b8a1564bfa4f13bbeaac541e46",
}


def detected_page(kind: str, seed: int) -> PageLayout:
    """``extract_page`` of a clean or a noisy (criterion-2 corruption) page, or ``detect_multi_orientation``
    of a page with vertical lines."""
    if kind == "multi":
        gt = generate(SynthConfig(seed=seed, vertical_line_prob=0.3))
        maps = render_gt(gt)
        return detect_multi_orientation({0: maps, 1: rotate_maps(maps, 1), 3: rotate_maps(maps, 3)}, render_orientation_gt(gt))
    maps = render_gt(generate(SynthConfig(seed=seed)))
    if kind == "noisy":
        maps = corrupt(maps, 0.1, 3, 0.05, rng_seed=seed)
    return extract_page(maps)


class TestOutputPins:
    @pytest.mark.parametrize("kind, seed", list(OUTPUT_PINS), ids=[f"{k}-{s}" for k, s in OUTPUT_PINS])
    def test_layout_bytes_are_pinned(self, kind, seed):
        page = detected_page(kind, seed)
        if kind == "multi":  # the page has vertical lines, found in a rotated frame
            assert any(np.ptp(ln.baseline.points[:, 1]) > np.ptp(ln.baseline.points[:, 0]) for ln in page.lines())
        assert hashlib.sha256(save_layout(page)).hexdigest() == OUTPUT_PINS[kind, seed]
