import numpy as np
import pytest

from pagelayout._rng import Rng
from pagelayout.channels import ChannelMaps
from pagelayout.render import render_gt
from pagelayout.scale import (
    TARGET_ASCENDER,
    estimate_scale,
    sample_scale_augmentation,
)

from conftest import make_block, make_line, make_page


def maps_with_ascender(value, h=32, w=32):
    base = np.zeros((h, w), np.float32)
    base[10, 4:28] = 1.0
    asc = np.where(base > 0, np.float32(value), np.float32(0))
    z = np.zeros((h, w), np.float32)
    return ChannelMaps(base, z, asc, z, z)


class TestEstimateScale:
    def test_target_ascender_gives_unit_factor(self):
        est = estimate_scale(maps_with_ascender(12.0))
        assert est.median_ascender == 12.0
        assert est.scale_factor == 1.0

    def test_double_ascender_halves(self):
        assert estimate_scale(maps_with_ascender(24.0)).scale_factor == 0.5

    def test_half_ascender_doubles(self):
        assert estimate_scale(maps_with_ascender(6.0)).scale_factor == 2.0

    def test_no_text_detected(self):
        with pytest.raises(ValueError, match="no text detected"):
            estimate_scale(ChannelMaps.zeros(16, 16))

    def test_masked_values_only(self):
        maps = maps_with_ascender(12.0)
        asc = maps.asc.copy()
        asc[maps.base == 0] = 99.0  # off-mask values must not matter
        maps2 = ChannelMaps(maps.base, maps.end, asc, maps.des, maps.block)
        assert estimate_scale(maps2).scale_factor == 1.0

    def test_scale_consistency_on_rendered_pages(self):
        # rendering the same layout at 2x scale doubles the median ascender
        def page_at(k):
            lines = [
                make_line("l0", 8 * k, 88 * k, 20 * k, 8.0 * k, 3.0 * k),
                make_line("l1", 8 * k, 88 * k, 31 * k, 7.0 * k, 4.0 * k),
            ]
            return make_page([make_block("b0", lines)], height=64 * k, width=96 * k)

        est1 = estimate_scale(render_gt(page_at(1)))
        est2 = estimate_scale(render_gt(page_at(2)))
        assert est2.median_ascender == pytest.approx(2 * est1.median_ascender, abs=1.0)
        assert est2.scale_factor == pytest.approx(est1.scale_factor / 2, rel=0.1)


class TestScaleAugmentation:
    def test_closed_form(self):
        for seed in range(20):
            assert sample_scale_augmentation(seed) == 2.0 ** Rng(seed).normal()

    def test_deterministic_per_seed(self):
        assert sample_scale_augmentation(42) == sample_scale_augmentation(42)
        assert sample_scale_augmentation(42) != sample_scale_augmentation(43)

    def test_batch_matches_distribution(self):
        s = sample_scale_augmentation(7, count=20000)
        frac = float(((s >= 0.5) & (s <= 2.0)).mean())
        assert frac == pytest.approx(0.6827, abs=0.02)

    def test_positive(self):
        s = sample_scale_augmentation(3, count=1000)
        assert (s > 0).all()

    def test_target_constant(self):
        assert TARGET_ASCENDER == 12.0
