"""Batch command-line front-end.

Subcommands: ``synth`` (generate fixture layouts and maps), ``render-gt``
(layout to channel maps), ``detect`` (channel maps to layout, optionally
multi-orientation), ``loss`` (compare two map stacks), ``eval`` (score
predicted layouts against ground truth).  All tunables default to the
engine's standard constants.  Outputs are deterministic for identical
inputs, seeds and ``--jobs`` settings.

Exit codes: 0 success, 1 input/usage error, 2 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from dataclasses import fields
from pathlib import Path

from .baselines import ExtractParams
from .blocks import BlockParams, extract_page
from .channels import ChannelMaps, MapFormatError, OrientationMaps, read_maps, rotate_maps, write_maps
from .layout import LayoutError, load_layout, save_layout
from .losses import total_loss
from .metrics import build_report, evaluate
from .orient import detect_multi_orientation
from .render import RenderParams, render_gt, render_orientation_gt
from .scale import estimate_scale
from .synth import SynthConfig, corrupt, generate


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage instead of argparse's 2
        raise CliError(f"{message}\n{self.format_usage()}")


def _range_pair(text: str, cast=float) -> tuple:
    parts = text.split(":")
    if len(parts) == 1:
        parts = [parts[0], parts[0]]
    if len(parts) != 2:
        raise CliError(f"expected LO:HI, got {text!r}")
    return (cast(parts[0]), cast(parts[1]))


def _add_param_flags(p: argparse.ArgumentParser):
    """One flag per ExtractParams/BlockParams field, named and defaulted after it."""
    g = p.add_argument_group("extraction parameters")
    for cls in (ExtractParams, BlockParams):
        for f in fields(cls):
            g.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)


def _params_from_args(args) -> tuple[ExtractParams, BlockParams]:
    def build(cls):
        return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})

    return build(ExtractParams), build(BlockParams)


def build_parser() -> _Parser:
    parser = _Parser(prog="pagelayout", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic layout (and optionally its GT maps)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="layout JSON output path")
    p.add_argument("--maps", help="also write rendered GT detection maps (.pncm)")
    p.add_argument("--orient-maps", help="also write rendered GT orientation maps (.pncm)")
    p.add_argument("--maps-rotated", help="prefix: write <prefix>.{0,90,270}.pncm rotated detection maps")
    p.add_argument("--page-size", type=lambda s: _range_pair(s, int), default=(576, 768), help="H:W")
    p.add_argument("--columns", type=lambda s: _range_pair(s, int), default=(1, 3))
    p.add_argument("--lines-per-block", type=lambda s: _range_pair(s, int), default=(2, 5))
    p.add_argument("--ascender-range", type=_range_pair, default=(8.0, 24.0))
    p.add_argument("--descender-ratio", type=_range_pair, default=(0.2, 0.5))
    p.add_argument("--vertical-line-prob", type=float, default=0.0)
    p.add_argument("--baseline-jitter", type=float, default=0.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--blur", type=int, default=1)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--corrupt-seed", type=int, default=0)

    p = sub.add_parser("render-gt", help="render GT channel maps from a layout")
    p.add_argument("--layout", required=True)
    p.add_argument("--maps", required=True, help="detection maps output (.pncm)")
    p.add_argument("--orient-maps", help="orientation maps output (.pncm)")
    p.add_argument("--baseline-thickness", type=float, default=3.0)
    p.add_argument("--endpoint-radius", type=float, default=3.0)
    p.add_argument("--block-boundary-thickness", type=float, default=3.0)

    p = sub.add_parser("detect", help="extract a layout from channel maps")
    p.add_argument("--maps", help="detection maps input (.pncm)")
    p.add_argument("--out", help="layout JSON output path")
    p.add_argument("--in-dir", help="batch mode: directory of .pncm inputs")
    p.add_argument("--out-dir", help="batch mode: directory for .json outputs")
    p.add_argument("--jobs", type=int, default=1, help="parallel page workers in batch mode")
    p.add_argument("--multi-orient", action="store_true")
    p.add_argument("--maps-90", help="turn-1 detection maps (multi-orient)")
    p.add_argument("--maps-270", help="turn-3 detection maps (multi-orient)")
    p.add_argument("--orient-maps", help="orientation maps (multi-orient)")
    p.add_argument("--no-line-merge", action="store_true", help="disable in-block line merging")
    p.add_argument("--report-scale", action="store_true", help="print the scale estimate as JSON")
    p.add_argument("--scale-threshold", type=float, default=0.3)
    _add_param_flags(p)

    p = sub.add_parser("loss", help="training-objective breakdown between two map stacks")
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--lam", type=float, default=0.01, help="height-loss weight")
    p.add_argument("--out")

    p = sub.add_parser("eval", help="score predicted layouts against ground truth")
    p.add_argument("--pred", required=True, help="layout JSON file or directory")
    p.add_argument("--gt", required=True, help="layout JSON file or directory")
    p.add_argument("--report", help="report JSON output path (default stdout)")
    p.add_argument("--iou-threshold", type=float, default=0.7)
    p.add_argument("--jobs", type=int, default=1)
    return parser


def _read_detection(path: str) -> ChannelMaps:
    maps = read_maps(Path(path).read_bytes())
    if not isinstance(maps, ChannelMaps):
        raise CliError(f"{path}: expected detection channels")
    return maps


def _read_orientation(path: str) -> OrientationMaps:
    maps = read_maps(Path(path).read_bytes())
    if not isinstance(maps, OrientationMaps):
        raise CliError(f"{path}: expected orientation channels")
    return maps


def _cmd_synth(args) -> int:
    cfg = SynthConfig(
        seed=args.seed,
        page_size=args.page_size,
        columns=args.columns,
        lines_per_block=args.lines_per_block,
        ascender_range=args.ascender_range,
        descender_ratio=args.descender_ratio,
        vertical_line_prob=args.vertical_line_prob,
        baseline_jitter=args.baseline_jitter,
    )
    layout = generate(cfg)
    Path(args.out).write_bytes(save_layout(layout))
    needs_maps = args.maps or args.maps_rotated
    if needs_maps:
        maps = render_gt(layout)
        if args.noise_sigma > 0 or args.blur > 1 or args.dropout > 0:
            maps = corrupt(maps, args.noise_sigma, args.blur, args.dropout, args.corrupt_seed)
        if args.maps:
            Path(args.maps).write_bytes(write_maps(maps))
        if args.maps_rotated:
            for turns, tag in ((0, "0"), (1, "90"), (3, "270")):
                Path(f"{args.maps_rotated}.{tag}.pncm").write_bytes(write_maps(rotate_maps(maps, turns)))
    if args.orient_maps:
        Path(args.orient_maps).write_bytes(write_maps(render_orientation_gt(layout)))
    return 0


def _cmd_render_gt(args) -> int:
    layout = load_layout(Path(args.layout).read_bytes())
    params = RenderParams(args.baseline_thickness, args.endpoint_radius, args.block_boundary_thickness)
    Path(args.maps).write_bytes(write_maps(render_gt(layout, params)))
    if args.orient_maps:
        Path(args.orient_maps).write_bytes(write_maps(render_orientation_gt(layout)))
    return 0


def _detect_single(maps_path: str, args) -> bytes:
    ep, bp = _params_from_args(args)
    maps = _read_detection(maps_path)
    page_id = Path(maps_path).stem
    if args.multi_orient:
        if not (args.maps_90 and args.maps_270 and args.orient_maps):
            raise CliError("--multi-orient requires --maps-90, --maps-270 and --orient-maps")
        maps_by_turn = {0: maps, 1: _read_detection(args.maps_90), 3: _read_detection(args.maps_270)}
        layout = detect_multi_orientation(
            maps_by_turn,
            _read_orientation(args.orient_maps),
            ep,
            bp,
            merge=not args.no_line_merge,
            page_id=page_id,
        )
    else:
        layout = extract_page(maps, ep, bp, merge=not args.no_line_merge, page_id=page_id)
    return save_layout(layout)


def _detect_worker(task):
    maps_path, out_path, args = task
    Path(out_path).write_bytes(_detect_single(maps_path, args))
    return out_path


def _cmd_detect(args) -> int:
    if args.report_scale:
        if not args.maps:
            raise CliError("--report-scale requires --maps")
        est = estimate_scale(_read_detection(args.maps), args.scale_threshold)
        print(json.dumps(est.as_dict()))
        return 0
    if args.in_dir:
        if not args.out_dir:
            raise CliError("--in-dir requires --out-dir")
        in_dir = Path(args.in_dir)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        tasks = [
            (str(path), str(out_dir / (path.stem + ".json")), args)
            for path in sorted(in_dir.glob("*.pncm"))
        ]
        if not tasks:
            raise CliError(f"no .pncm files in {in_dir}")
        if args.jobs > 1:
            with multiprocessing.Pool(min(args.jobs, len(tasks))) as pool:
                pool.map(_detect_worker, tasks)
        else:
            for task in tasks:
                _detect_worker(task)
        return 0
    if not (args.maps and args.out):
        raise CliError("detect needs --maps and --out (or --in-dir/--out-dir)")
    Path(args.out).write_bytes(_detect_single(args.maps, args))
    return 0


def _cmd_loss(args) -> int:
    pred = _read_detection(args.pred)
    gt = _read_detection(args.gt)
    breakdown = total_loss(pred, gt, lam=args.lam)
    text = json.dumps(breakdown.as_dict())
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _eval_pair(task):
    pred_path, gt_path, iou = task
    pred = load_layout(Path(pred_path).read_bytes())
    gt = load_layout(Path(gt_path).read_bytes())
    return evaluate(pred, gt, iou_threshold=iou)


def _cmd_eval(args) -> int:
    pred_path = Path(args.pred)
    gt_path = Path(args.gt)
    if pred_path.is_dir() != gt_path.is_dir():
        raise CliError("--pred and --gt must both be files or both be directories")
    if pred_path.is_dir():
        gt_files = {p.stem: p for p in sorted(gt_path.glob("*.json"))}
        pred_files = {p.stem: p for p in sorted(pred_path.glob("*.json"))}
        missing = sorted(set(gt_files) - set(pred_files))
        if missing:
            raise CliError(f"missing predictions for pages: {', '.join(missing)}")
        tasks = [(str(pred_files[stem]), str(path), args.iou_threshold) for stem, path in sorted(gt_files.items())]
    else:
        tasks = [(str(pred_path), str(gt_path), args.iou_threshold)]
    if not tasks:
        raise CliError("nothing to evaluate")
    if args.jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(min(args.jobs, len(tasks))) as pool:
            pages = pool.map(_eval_pair, tasks)
    else:
        pages = [_eval_pair(t) for t in tasks]
    report = build_report(pages)
    text = json.dumps(report.as_dict())
    if args.report:
        Path(args.report).write_text(text + "\n")
    else:
        print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "synth": _cmd_synth,
            "render-gt": _cmd_render_gt,
            "detect": _cmd_detect,
            "loss": _cmd_loss,
            "eval": _cmd_eval,
        }[args.command]
        return handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LayoutError, MapFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
