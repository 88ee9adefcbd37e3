import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))

# Property tests replay the same examples on every run and keep no example
# database; a small budget keeps them to a few seconds.  Hypothesis still
# caches the literals of local source files under its home directory, so
# that directory is a temporary one, removed when the run ends.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=30)
settings.load_profile("tier1")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

from pagelayout.blocks import outline_block, polygon_from_baseline
from pagelayout.channels import ChannelMaps
from pagelayout.geometry import Polyline
from pagelayout.layout import PageLayout, TextLine


def make_line(line_id, x0, x1, y, ascender, descender):
    """Straight horizontal text line fixture."""
    pts = np.array([[float(x0), float(y)], [float(x1), float(y)]])
    return TextLine(line_id, Polyline(pts), ascender, descender, polygon_from_baseline(pts, ascender, descender))


def make_block(block_id, lines):
    return outline_block(block_id, lines)


def edge_line_maps(height, width):
    """Baseline on every pixel, ascender 5, no descender: every line polygon lies above a pixel row."""
    one, zero = np.ones((height, width), np.float32), np.zeros((height, width), np.float32)
    return ChannelMaps(one, zero, 5 * one, zero, zero)


def make_page(blocks, height=128, width=128, page_id="fixture"):
    return PageLayout(page_id, height, width, blocks)


@pytest.fixture
def simple_page():
    """One block, two stacked neighbour lines on a 64x96 page."""
    l0 = make_line("l0", 8, 80, 20, 10.0, 3.0)
    l1 = make_line("l1", 12, 84, 32, 8.5, 4.5)
    return make_page([make_block("b0", [l0, l1])], height=64, width=96)
