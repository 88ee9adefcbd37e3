import hashlib

import numpy as np
import pytest

from pagelayout.channels import write_maps
from pagelayout.geometry import intersection_area
from pagelayout.layout import baseline_midpoint, save_layout
from pagelayout.render import render_gt
from pagelayout.channels import ChannelMaps
from pagelayout.synth import SynthConfig, corrupt, generate

from oracles import dropout_oracle


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

    def test_values_stay_in_range(self):
        maps = render_gt(generate(SynthConfig(seed=4, page_size=(320, 384))))
        out = corrupt(maps, noise_sigma=0.3, blur_size=3, dropout_prob=0.2, rng_seed=1)
        for name in ("base", "end", "block"):
            arr = getattr(out, name)
            assert arr.min() >= 0.0 and arr.max() <= 1.0
        assert out.asc.min() >= 0.0 and out.des.min() >= 0.0


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
