import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from pagelayout._rng import BLOCK, Rng
from pagelayout.channels import write_maps
from pagelayout.geometry import intersection_area
from pagelayout.layout import baseline_midpoint, save_layout
from pagelayout.render import render_gt
from pagelayout.channels import ChannelMaps
from pagelayout.synth import SynthConfig, corrupt, generate

from oracles import corrupt_oracle, dropout_oracle


class TestGenerate:
    def test_smoke_single_column(self):
        layout = generate(SynthConfig(seed=1, columns=(1, 1), lines_per_block=(3, 3)))
        assert len(layout.blocks) >= 1
        assert all(len(b.lines) == 3 for b in layout.blocks)

    def test_deterministic_per_seed(self):
        cfg = SynthConfig(seed=9, vertical_line_prob=0.5)
        assert save_layout(generate(cfg)) == save_layout(generate(cfg))

    def test_different_seeds_differ(self):
        assert save_layout(generate(SynthConfig(seed=1))) != save_layout(generate(SynthConfig(seed=2)))

    def test_infeasible_page_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            generate(SynthConfig(seed=0, page_size=(40, 40)))

    def test_random_config_sweep_valid_layouts(self):
        rng = np.random.default_rng(0)
        made = 0
        for trial in range(200):
            h = int(rng.integers(320, 700))
            w = int(rng.integers(380, 900))
            a_lo = float(rng.uniform(6, 14))
            cfg = SynthConfig(
                seed=int(rng.integers(0, 2**32)),
                page_size=(h, w),
                columns=(1, int(rng.integers(1, 4))),
                lines_per_block=(2, int(rng.integers(2, 7))),
                ascender_range=(a_lo, a_lo + float(rng.uniform(2, 12))),
                vertical_line_prob=float(rng.choice([0.0, 0.3, 1.0])),
                baseline_jitter=float(rng.choice([0.0, 0.0, 0.5])),
            )
            layout = generate(cfg)  # constructors enforce the model invariants
            made += 1
            lines = layout.lines()
            assert lines
            # no two line polygons overlap
            for i in range(len(lines)):
                for j in range(i + 1, len(lines)):
                    a, b = lines[i].polygon, lines[j].polygon
                    ax0, ay0, ax1, ay1 = a.bounds()
                    bx0, by0, bx1, by1 = b.bounds()
                    if ax1 < bx0 or bx1 < ax0 or ay1 < by0 or by1 < ay0:
                        continue
                    assert intersection_area(a, b) < 1e-6, (cfg.seed, lines[i].id, lines[j].id)
        assert made == 200

    def test_in_block_pairs_satisfy_neighbour_distance(self):
        for seed in range(30):
            layout = generate(SynthConfig(seed=seed))
            for block in layout.blocks:
                for a, b in zip(block.lines[:-1], block.lines[1:]):
                    dy = abs(baseline_midpoint(a.baseline)[1] - baseline_midpoint(b.baseline)[1])
                    assert dy < max(a.height, b.height), (seed, block.id)

    def test_blocks_vertically_separated(self):
        for seed in range(20):
            layout = generate(SynthConfig(seed=seed, columns=(1, 1)))
            blocks = layout.blocks
            for a, b in zip(blocks[:-1], blocks[1:]):
                last = a.lines[-1]
                first = b.lines[0]
                dy = baseline_midpoint(first.baseline)[1] - baseline_midpoint(last.baseline)[1]
                assert dy >= max(last.height, first.height)


class TestCorrupt:
    def test_identity_parameters(self):
        maps = render_gt(generate(SynthConfig(seed=3, page_size=(320, 384))))
        out = corrupt(maps, noise_sigma=0.0, blur_size=1, dropout_prob=0.0, rng_seed=5)
        for name in ("base", "end", "asc", "des", "block"):
            assert np.array_equal(getattr(out, name), getattr(maps, name))

    def test_full_dropout_clears_base(self):
        maps = render_gt(generate(SynthConfig(seed=3, page_size=(320, 384))))
        out = corrupt(maps, dropout_prob=1.0, rng_seed=5)
        assert not out.base.any()
        assert out.asc.sum() == maps.asc.sum()  # other channels untouched

    def test_hash_stable_per_seed(self):
        maps = render_gt(generate(SynthConfig(seed=3, page_size=(320, 384))))
        h1 = hashlib.sha256(write_maps(corrupt(maps, 0.1, 3, 0.05, rng_seed=11))).hexdigest()
        h2 = hashlib.sha256(write_maps(corrupt(maps, 0.1, 3, 0.05, rng_seed=11))).hexdigest()
        h3 = hashlib.sha256(write_maps(corrupt(maps, 0.1, 3, 0.05, rng_seed=12))).hexdigest()
        assert h1 == h2
        assert h1 != h3
        assert h1 == "c5a063fa83baf72741fb47e4917fd86b6bdb84f4c452d2354df9dd06fa6dd49a"  # as whole-frame arithmetic made it

    def test_values_stay_in_range(self):
        maps = render_gt(generate(SynthConfig(seed=4, page_size=(320, 384))))
        out = corrupt(maps, noise_sigma=0.3, blur_size=3, dropout_prob=0.2, rng_seed=1)
        for name in ("base", "end", "block"):
            arr = getattr(out, name)
            assert arr.min() >= 0.0 and arr.max() <= 1.0
        assert out.asc.min() >= 0.0 and out.des.min() >= 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(dropout_prob=4 / 3), dict(dropout_prob=2.0), dict(dropout_prob=-0.5), dict(dropout_prob=float("nan")),
        dict(noise_sigma=-0.1), dict(noise_sigma=float("nan")), dict(noise_sigma=float("inf")),
        dict(blur_size=0), dict(blur_size=-3),
    ])
    def test_bad_arguments_raise_value_error(self, kwargs):
        with pytest.raises(ValueError, match="dropout_prob|noise_sigma|blur_size"):
            corrupt(ChannelMaps.zeros(8, 8), **kwargs)

    def test_peak_memory_stays_below_eight_frames(self):
        # Whole-frame float64 arithmetic peaked at 37.6 MB here (10.6 float64 frames); five float64 plus five
        # float32 frames are 26.5 MB.  Block-wise noise keeps one float64 frame and the float32 outputs.
        maps = render_gt(generate(SynthConfig(seed=0)))
        h, w = maps.shape
        tracemalloc.start()
        try:
            corrupt(maps, 0.1, 3, 0.05, rng_seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (h, w) == (576, 768)
        assert peak < 8 * h * w * 8, peak


def _random_maps(shape, seed):
    rng = np.random.default_rng(seed)
    base = (rng.uniform(size=shape) < 0.4).astype(np.float32)
    unit = rng.uniform(size=shape).astype(np.float32)
    height = rng.uniform(0.0, 9.0, size=shape).astype(np.float32)
    return ChannelMaps(base, unit, height, 0.5 * height, 1.0 - unit)


class TestCorruptOracle:
    """Block-wise corruption gives exactly the planes of whole-frame float64 arithmetic."""

    GRID = list(itertools.product((0.0, 0.3), (1, 5), (0.0, 0.3, 1.0)))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (7, 9), (91, 91), (128, 128), (129, 131)])
    def test_parameter_grid(self, shape):
        # odd h*w drops the last sine; 91x91 is under one block of pairs, 128x128 fills one exactly,
        # and 129x131 (odd) spills into a second
        maps = _random_maps(shape, shape[0])
        for k, (sigma, blur, drop) in enumerate(self.GRID):
            assert corrupt(maps, sigma, blur, drop, rng_seed=k) == corrupt_oracle(maps, sigma, blur, drop, rng_seed=k)

    def test_generated_page_grid(self):
        maps = render_gt(generate(SynthConfig(seed=3, page_size=(320, 384))))
        for k, (sigma, blur, drop) in enumerate(self.GRID):
            assert corrupt(maps, sigma, blur, drop, rng_seed=k) == corrupt_oracle(maps, sigma, blur, drop, rng_seed=k)

    def test_criterion_2_pages(self):
        for seed in range(16):
            maps = render_gt(generate(SynthConfig(seed=seed)))
            assert corrupt(maps, 0.1, 3, 0.05, rng_seed=seed) == corrupt_oracle(maps, 0.1, 3, 0.05, rng_seed=seed)


class TestRngArrays:
    """Array draws take the values and the counter advance of scalar draws, across block edges."""

    SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]

    @pytest.mark.parametrize("n", SIZES)
    def test_uniform_array(self, n):
        """The top 53 bits of array draws are the uniform doubles of scalar ``uniform()``."""
        rng, ref = Rng(17), Rng(17)
        rng.u64(), ref.u64()
        draws = rng.u64_array(n)
        want = np.array([ref.uniform() for _ in range(n)])
        assert ((draws >> np.uint64(11)) * 2.0**-53).tobytes() == want.tobytes()
        assert rng.u64() == ref.u64()

    @pytest.mark.parametrize("n", SIZES)
    def test_normal_array(self, n):
        rng, ref = Rng(5), Rng(5)
        m = (n + 1) // 2
        u = np.array([(ref.u64() >> 11) * 2.0**-53 for _ in range(2 * m)])
        r = np.sqrt(-2.0 * np.log(np.maximum(u[:m], 2.0**-53)))
        theta = 2.0 * np.pi * u[m:]
        want = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        assert rng.normal_array(n).tobytes() == want.tobytes()
        assert rng.u64() == ref.u64()

    @pytest.mark.parametrize("n", SIZES)
    def test_u64_array(self, n):
        rng, ref = Rng(2**64 - 1), Rng(2**64 - 1)
        assert rng.u64_array(n).tolist() == [ref.u64() for _ in range(n)]
        assert rng.u64() == ref.u64()


class TestDropout:
    """Window-local dropout tears exactly the pixels of the full-frame loop."""

    @staticmethod
    def check(maps, p, seed):
        got = corrupt(maps, noise_sigma=0.0, blur_size=1, dropout_prob=p, rng_seed=seed)
        assert np.array_equal(got.base, dropout_oracle(maps.base, p, seed))
        for name in ("end", "asc", "des", "block"):
            assert np.array_equal(getattr(got, name), getattr(maps, name))

    @pytest.mark.parametrize("p", [0.05, 0.5, 1.0])
    def test_generated_pages(self, p):
        for seed in range(3):
            self.check(render_gt(generate(SynthConfig(seed=seed, page_size=(288, 384)))), p, seed)

    @pytest.mark.parametrize("p", [0.05, 0.5, 1.0])
    def test_strokes_touching_the_frame_border(self, p):
        rng = np.random.default_rng(9)
        for seed in range(4):
            base = np.zeros((40, 56), dtype=np.float32)
            base[0:2, 3:30] = 1.0  # top edge
            base[20:23, 40:56] = 1.0  # right edge
            base[37:40, 0:25] = 1.0  # bottom-left corner
            base[5:35, 0:2] = 1.0  # left edge
            base[rng.uniform(size=base.shape) < 0.08] = 1.0  # scattered specks and bridges
            z = np.zeros_like(base)
            self.check(ChannelMaps(base, z, z, z, z), p, seed)
