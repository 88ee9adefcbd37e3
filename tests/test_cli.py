import json
import os
import stat
import subprocess
import sys
from dataclasses import fields, replace
from inspect import signature
from pathlib import Path

import numpy as np
import pytest

from pagelayout.baselines import ExtractParams
from pagelayout.blocks import BlockParams
from pagelayout.channels import ChannelMaps, write_maps
from pagelayout.cli import _params_from_args, build_parser, main
from pagelayout.layout import load_layout, save_layout
from pagelayout.losses import DEFAULT_HEIGHT_WEIGHT, total_loss
from pagelayout.metrics import DEFAULT_IOU_THRESHOLD, evaluate
from pagelayout.render import RenderParams, render_gt
from pagelayout.scale import DEFAULT_SCALE_THRESHOLD, estimate_scale
from pagelayout.synth import SynthConfig, corrupt, generate

from conftest import edge_line_maps

SRC = Path(__file__).resolve().parent.parent / "src"


def run(args):
    return main([str(a) for a in args])


class TestSubcommands:
    def test_synth_detect_eval_round_trip(self, tmp_path):
        layout = tmp_path / "l.json"
        maps = tmp_path / "m.pncm"
        pred = tmp_path / "p.json"
        report = tmp_path / "r.json"
        assert run(["synth", "--seed", 7, "--out", layout, "--maps", maps]) == 0
        assert run(["detect", "--maps", maps, "--out", pred]) == 0
        assert run(["eval", "--pred", pred, "--gt", layout, "--report", report]) == 0
        agg = json.loads(report.read_text())["aggregate"]
        assert agg["baseline"]["f"] >= 0.99
        assert agg["line"]["f"] >= 0.97
        assert agg["block"]["f"] >= 0.97

    def test_loss_self_is_zero(self, tmp_path, capsys):
        maps = tmp_path / "m.pncm"
        assert run(["synth", "--seed", 3, "--out", tmp_path / "l.json", "--maps", maps]) == 0
        assert run(["loss", maps, maps]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["total"] == 0.0
        assert out["lambda"] == 0.01

    def test_detect_on_zero_maps_yields_empty_layout(self, tmp_path):
        maps = tmp_path / "z.pncm"
        maps.write_bytes(write_maps(ChannelMaps.zeros(64, 64)))
        out = tmp_path / "p.json"
        assert run(["detect", "--maps", maps, "--out", out]) == 0
        layout = load_layout(out.read_bytes())
        assert layout.blocks == []

    def test_detect_on_a_one_row_page(self, tmp_path):
        # every line polygon lies above the page's only pixel row: no line is left, and that is no input error
        maps = tmp_path / "row.pncm"
        maps.write_bytes(write_maps(edge_line_maps(1, 50)))
        out = tmp_path / "p.json"
        assert run(["detect", "--maps", maps, "--out", out]) == 0
        assert load_layout(out.read_bytes()).blocks == []

    def test_synth_defaults_match_library(self, tmp_path):
        layout = tmp_path / "l.json"
        maps = tmp_path / "m.pncm"
        assert run(["synth", "--seed", 3, "--out", layout, "--maps", maps]) == 0
        expected = generate(SynthConfig(seed=3))
        assert layout.read_bytes() == save_layout(expected)
        assert maps.read_bytes() == write_maps(render_gt(expected, RenderParams()))

    def test_parser_defaults_match_library(self):
        def default(*argv):
            return build_parser().parse_args(list(argv))

        assert default("eval", "--pred", "p", "--gt", "g").iou_threshold == DEFAULT_IOU_THRESHOLD
        assert default("loss", "p", "g").lam == DEFAULT_HEIGHT_WEIGHT
        assert default("detect").scale_threshold == DEFAULT_SCALE_THRESHOLD
        assert signature(estimate_scale).parameters["raw_threshold"].default == DEFAULT_SCALE_THRESHOLD
        assert signature(evaluate).parameters["iou_threshold"].default == DEFAULT_IOU_THRESHOLD
        assert signature(total_loss).parameters["lam"].default == DEFAULT_HEIGHT_WEIGHT
        synth = default("synth", "--seed", "0", "--out", "l.json")
        corrupt_defaults = {name: p.default for name, p in signature(corrupt).parameters.items() if name != "maps"}
        assert corrupt_defaults == dict(noise_sigma=0.0, blur_size=1, dropout_prob=0.0, rng_seed=0)
        assert (synth.noise_sigma, synth.blur, synth.dropout, synth.corrupt_seed) == tuple(corrupt_defaults.values())

    def test_render_gt_matches_synth_maps(self, tmp_path):
        layout = tmp_path / "l.json"
        m1 = tmp_path / "a.pncm"
        m2 = tmp_path / "b.pncm"
        assert run(["synth", "--seed", 5, "--out", layout, "--maps", m1]) == 0
        assert run(["render-gt", "--layout", layout, "--maps", m2]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_multi_orient_detect(self, tmp_path):
        layout = tmp_path / "l.json"
        pred = tmp_path / "p.json"
        report = tmp_path / "r.json"
        assert (
            run(
                [
                    "synth", "--seed", 2, "--out", layout,
                    "--maps-rotated", tmp_path / "m", "--orient-maps", tmp_path / "o.pncm",
                    "--vertical-line-prob", 1.0,
                ]
            )
            == 0
        )
        assert (
            run(
                [
                    "detect", "--maps", tmp_path / "m.0.pncm",
                    "--maps-90", tmp_path / "m.90.pncm", "--maps-270", tmp_path / "m.270.pncm",
                    "--orient-maps", tmp_path / "o.pncm", "--multi-orient", "--out", pred,
                ]
            )
            == 0
        )
        assert run(["eval", "--pred", pred, "--gt", layout, "--report", report]) == 0
        agg = json.loads(report.read_text())["aggregate"]
        assert agg["baseline"]["f"] >= 0.97

    def test_report_scale(self, tmp_path, capsys):
        # page whose every ascender is half the target -> factor 2
        from pagelayout.layout import save_layout
        from conftest import make_block, make_line, make_page

        lines = [make_line(f"l{i}", 8, 88, 20 + 18 * i, 6.0, 2.0) for i in range(3)]
        page = make_page([make_block(f"b{i}", [ln]) for i, ln in enumerate(lines)], height=96, width=96)
        layout = tmp_path / "l.json"
        layout.write_bytes(save_layout(page))
        maps = tmp_path / "m.pncm"
        assert run(["render-gt", "--layout", layout, "--maps", maps]) == 0
        assert run(["detect", "--maps", maps, "--report-scale"]) == 0
        est = json.loads(capsys.readouterr().out)
        assert est["target_ascender"] == 12.0
        assert est["scale_factor"] == pytest.approx(2.0, rel=0.02)


class TestParamFlags:
    def parse(self, *flags):
        return _params_from_args(build_parser().parse_args(["detect", *flags]))

    def test_defaults_are_the_dataclass_defaults(self):
        assert self.parse() == (ExtractParams(), BlockParams())

    def test_each_flag_sets_its_own_field(self):
        for cls, index in ((ExtractParams, 0), (BlockParams, 1)):
            for f in fields(cls):
                value = f.default + (2 if isinstance(f.default, int) else 0.25)
                got = self.parse("--" + f.name.replace("_", "-"), str(value))
                want = [ExtractParams(), BlockParams()]
                want[index] = replace(want[index], **{f.name: value})
                assert got == tuple(want), f.name


class TestErrors:
    def test_unknown_flag_exits_1(self, capsys):
        assert run(["detect", "--bogus"]) == 1

    def test_missing_file_exits_1(self, tmp_path):
        assert run(["detect", "--maps", tmp_path / "nope.pncm", "--out", tmp_path / "p.json"]) == 1

    def test_corrupt_container_exits_1(self, tmp_path):
        bad = tmp_path / "bad.pncm"
        bad.write_bytes(b"garbage")
        assert run(["detect", "--maps", bad, "--out", tmp_path / "p.json"]) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--dropout", 4 / 3), ("--dropout", 2), ("--dropout", -0.5),
        ("--noise-sigma", -0.1), ("--noise-sigma", "nan"), ("--noise-sigma", "inf"), ("--blur", 0),
    ])
    def test_bad_corruption_flag_exits_1_and_writes_nothing(self, tmp_path, capsys, flag, value):
        out, maps = tmp_path / "l.json", tmp_path / "m.pncm"
        assert run(["synth", "--seed", 1, "--out", out, "--maps", maps, flag, repr(value) if isinstance(value, float) else value]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists() and not maps.exists()

    def test_batch_multi_orient_rejected(self, tmp_path):
        # the per-page flags would apply page a's 90/270/orientation maps to every page
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        synth = ["synth", "--seed", 10, "--out", tmp_path / "l.json"]
        assert run(synth + ["--maps-rotated", tmp_path / "m", "--orient-maps", tmp_path / "o.pncm"]) == 0
        (in_dir / "a.pncm").write_bytes((tmp_path / "m.0.pncm").read_bytes())
        args = [
            "detect", "--in-dir", in_dir, "--out-dir", tmp_path / "out", "--multi-orient",
            "--maps-90", tmp_path / "m.90.pncm", "--maps-270", tmp_path / "m.270.pncm",
            "--orient-maps", tmp_path / "o.pncm",
        ]
        assert run(args) == 1
        assert not (tmp_path / "out" / "a.json").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_continues_past_a_bad_page(self, tmp_path, capsys, jobs):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        for seed in range(3):
            assert run(["synth", "--seed", seed, "--out", tmp_path / f"l{seed}.json", "--maps", in_dir / f"p{seed}.pncm"]) == 0
        good = (in_dir / "p1.pncm").read_bytes()
        (in_dir / "p0b.pncm").write_bytes(good[: len(good) // 2])  # truncated, sorted between good pages
        out_dir = tmp_path / "out"
        capsys.readouterr()
        assert run(["detect", "--in-dir", in_dir, "--out-dir", out_dir, "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert "1 of 4 pages failed" in err and str(in_dir / "p0b.pncm") in err
        assert sorted(p.name for p in out_dir.iterdir()) == ["p0.json", "p1.json", "p2.json"]
        for seed in range(3):  # each written whole, as a single-page run writes it
            single = tmp_path / f"single{seed}.json"
            assert run(["detect", "--maps", in_dir / f"p{seed}.pncm", "--out", single]) == 0
            assert (out_dir / f"p{seed}.json").read_bytes() == single.read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_outputs_keep_umask_mode_and_symlinks(self, tmp_path, jobs):
        in_dir, out_dir, elsewhere = tmp_path / "in", tmp_path / "out", tmp_path / "elsewhere"
        for d in (in_dir, out_dir, elsewhere):
            d.mkdir()
        for seed in range(2):
            assert run(["synth", "--seed", seed, "--out", tmp_path / f"l{seed}.json", "--maps", in_dir / f"p{seed}.pncm"]) == 0
        (out_dir / "p1.json").symlink_to(elsewhere / "p1.json")
        old_umask = os.umask(0o027)  # unlike mkstemp's 0600
        try:
            assert run(["detect", "--in-dir", in_dir, "--out-dir", out_dir, "--jobs", jobs]) == 0
            (tmp_path / "plain.json").write_bytes(b"{}")
        finally:
            os.umask(old_umask)
        want = stat.S_IMODE((tmp_path / "plain.json").stat().st_mode)
        assert want == 0o640
        assert stat.S_IMODE((out_dir / "p0.json").stat().st_mode) == want
        assert (out_dir / "p1.json").is_symlink()  # written through, not replaced
        assert stat.S_IMODE((elsewhere / "p1.json").stat().st_mode) == want
        assert json.loads((elsewhere / "p1.json").read_bytes())
        assert sorted(p.name for p in out_dir.iterdir()) == ["p0.json", "p1.json"]  # no temporaries left

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_eval_continues_past_bad_pages_and_writes_no_report(self, tmp_path, jobs):
        # in a subprocess with a timeout, so a pool that hangs on a failed page fails the test
        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        for d in (pred_dir, gt_dir):
            d.mkdir()
        for seed in range(3):
            assert run(["synth", "--seed", seed, "--out", gt_dir / f"p{seed}.json"]) == 0
            (pred_dir / f"p{seed}.json").write_bytes((gt_dir / f"p{seed}.json").read_bytes())
        (pred_dir / "p0.json").write_text("{}")  # malformed: no page_id
        (pred_dir / "p2.json").write_text('{"page_id": "p2", "height": 1e999}')
        report = tmp_path / "r.json"
        args = ["eval", "--pred", pred_dir, "--gt", gt_dir, "--report", report, "--jobs", jobs]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "pagelayout.cli", *map(str, args)], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 1, proc.stderr
        assert "2 of 3 pages failed" in proc.stderr
        assert str(pred_dir / "p0.json") in proc.stderr and str(pred_dir / "p2.json") in proc.stderr
        assert str(pred_dir / "p1.json") not in proc.stderr
        assert not report.exists()

    def test_single_page_fails_in_the_batch_format(self, tmp_path, capsys):
        maps, out = tmp_path / "nope.pncm", tmp_path / "p.json"
        assert run(["detect", "--maps", maps, "--out", out]) == 1
        assert capsys.readouterr().err.startswith(f"error: 1 of 1 pages failed:\n  {maps}: ")
        assert not out.exists()
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert run(["eval", "--pred", bad, "--gt", bad, "--report", tmp_path / "r.json"]) == 1
        assert capsys.readouterr().err.startswith(f"error: 1 of 1 pages failed:\n  {bad}: $: expected an object")
        assert not (tmp_path / "r.json").exists()

    def test_every_output_written_through_symlinks_without_temporaries(self, tmp_path):
        work, elsewhere = tmp_path / "work", tmp_path / "elsewhere"
        work.mkdir()
        elsewhere.mkdir()
        gt, maps = tmp_path / "gt.json", tmp_path / "gt.pncm"
        assert run(["synth", "--seed", 4, "--out", gt, "--maps", maps]) == 0
        commands = {
            "synth.json": ["synth", "--seed", 4, "--out", work / "synth.json", "--maps", work / "synth.pncm"],
            "render.pncm": ["render-gt", "--layout", gt, "--maps", work / "render.pncm"],
            "detect.json": ["detect", "--maps", maps, "--out", work / "detect.json"],
            "loss.json": ["loss", maps, maps, "--out", work / "loss.json"],
            "eval.json": ["eval", "--pred", gt, "--gt", gt, "--report", work / "eval.json"],
        }
        names = sorted([*commands, "synth.pncm"])
        old_inodes = {}
        for name in names:
            (elsewhere / name).write_bytes(b"old")
            old_inodes[name] = (elsewhere / name).stat().st_ino
            (work / name).symlink_to(elsewhere / name)
        for argv in commands.values():
            assert run(argv) == 0
        assert sorted(p.name for p in work.iterdir()) == names
        assert sorted(p.name for p in elsewhere.iterdir()) == names  # no temporaries left in either
        for name in names:
            assert (work / name).is_symlink()
            assert (elsewhere / name).stat().st_ino != old_inodes[name], f"{name} rewritten in place, not renamed over"
        assert (elsewhere / "synth.json").read_bytes() == gt.read_bytes()
        assert (elsewhere / "synth.pncm").read_bytes() == maps.read_bytes() == (elsewhere / "render.pncm").read_bytes()
        assert json.loads((elsewhere / "loss.json").read_text())["total"] == 0.0
        assert json.loads((elsewhere / "eval.json").read_text())["aggregate"]["block"]["f"] == 1.0
        assert load_layout((elsewhere / "detect.json").read_bytes()).blocks

    @pytest.mark.parametrize("threshold", ["-0.1", "1.5", "nan"])
    def test_eval_iou_threshold_outside_unit_interval_exits_1(self, tmp_path, capsys, threshold):
        layout = tmp_path / "l.json"
        layout.write_bytes(save_layout(generate(SynthConfig(seed=1, page_size=(384, 512)))))
        report = tmp_path / "r.json"
        assert run(["eval", "--pred", layout, "--gt", layout, "--iou-threshold", threshold, "--report", report]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "iou_threshold must lie in [0, 1]" in err
        assert not report.exists()

    def test_eval_mismatched_modes_exits_1(self, tmp_path):
        f = tmp_path / "x.json"
        f.write_text("{}")
        assert run(["eval", "--pred", f, "--gt", tmp_path]) == 1


class TestDeterminism:
    def build_corpus(self, root, n=4):
        in_dir = root / "maps"
        gt_dir = root / "gt"
        in_dir.mkdir()
        gt_dir.mkdir()
        for seed in range(n):
            assert (
                run(
                    [
                        "synth", "--seed", seed, "--out", gt_dir / f"page{seed}.json",
                        "--maps", in_dir / f"page{seed}.pncm",
                        "--noise-sigma", 0.05, "--blur", 3, "--dropout", 0.02, "--corrupt-seed", seed,
                    ]
                )
                == 0
            )
        return in_dir, gt_dir

    def test_repeat_runs_and_jobs_byte_identical(self, tmp_path):
        in_dir, gt_dir = self.build_corpus(tmp_path)
        outs = {}
        for tag, jobs in (("a", 1), ("b", 2), ("c", 1)):
            out_dir = tmp_path / f"out_{tag}"
            assert run(["detect", "--in-dir", in_dir, "--out-dir", out_dir, "--jobs", jobs]) == 0
            outs[tag] = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.json"))}
        assert outs["a"] == outs["b"] == outs["c"]

        reports = []
        for tag, jobs in (("a", 1), ("b", 2)):
            report = tmp_path / f"report_{tag}.json"
            assert run(["eval", "--pred", tmp_path / "out_a", "--gt", gt_dir, "--report", report, "--jobs", jobs]) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]
