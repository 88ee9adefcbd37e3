"""Batch command-line front-end.

Subcommands: ``synth`` (generate fixture layouts and maps), ``render-gt``
(layout to channel maps), ``detect`` (channel maps to layout, optionally
multi-orientation), ``loss`` (compare two map stacks), ``eval`` (score
predicted layouts against ground truth).  All tunables default to the
engine's standard constants.  Outputs are deterministic for identical
inputs, seeds and ``--jobs`` settings.

Exit codes: 0 success, 1 input/usage error, 2 internal invariant failure.
Batch ``detect`` goes on past pages that fail, lists them on stderr and
exits with the highest of their codes; each of its outputs is written to a
temporary file in its directory and renamed into place, so none is ever
left half-written.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
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


# input and usage errors: exit code 1
_INPUT_ERRORS = (CliError, LayoutError, MapFormatError, OSError, ValueError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage instead of argparse's 2
        raise CliError(f"{message}\n{self.format_usage()}")


def _range_type(cast):
    """argparse type for ``LO:HI`` (or one value for both) parsed with ``cast``."""

    def parse(text: str) -> tuple:
        parts = text.split(":")
        if len(parts) == 1:
            parts = [parts[0], parts[0]]
        if len(parts) != 2:
            raise CliError(f"expected LO:HI, got {text!r}")
        return (cast(parts[0]), cast(parts[1]))

    parse.__name__ = f"{cast.__name__} range"
    return parse


def _add_field_flags(p: argparse.ArgumentParser, title: str, *classes, skip: tuple[str, ...] = ()):
    """One flag per dataclass field, named and defaulted after it; tuples parse as LO:HI."""
    g = p.add_argument_group(title)
    for cls in classes:
        for f in fields(cls):
            if f.name in skip:
                continue
            kw = {"type": type(f.default)}
            if isinstance(f.default, tuple):
                kw = {"type": _range_type(type(f.default[0])), "metavar": "LO:HI"}
            g.add_argument("--" + f.name.replace("_", "-"), default=f.default, **kw)


def _from_args(cls, args):
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _params_from_args(args) -> tuple[ExtractParams, BlockParams]:
    return _from_args(ExtractParams, args), _from_args(BlockParams, args)


def build_parser() -> _Parser:
    parser = _Parser(prog="pagelayout", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic layout (and optionally its GT maps)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="layout JSON output path")
    p.add_argument("--maps", help="also write rendered GT detection maps (.pncm)")
    p.add_argument("--orient-maps", help="also write rendered GT orientation maps (.pncm)")
    p.add_argument("--maps-rotated", help="prefix: write <prefix>.{0,90,270}.pncm rotated detection maps")
    _add_field_flags(p, "generator parameters (--page-size is H:W)", SynthConfig, skip=("seed",))
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--blur", type=int, default=1)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--corrupt-seed", type=int, default=0)

    p = sub.add_parser("render-gt", help="render GT channel maps from a layout")
    p.add_argument("--layout", required=True)
    p.add_argument("--maps", required=True, help="detection maps output (.pncm)")
    p.add_argument("--orient-maps", help="orientation maps output (.pncm)")
    _add_field_flags(p, "render parameters", RenderParams)

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
    _add_field_flags(p, "extraction parameters", ExtractParams, BlockParams)

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
    layout = generate(_from_args(SynthConfig, args))
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
    Path(args.maps).write_bytes(write_maps(render_gt(layout, _from_args(RenderParams, args))))
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


def _write_atomic(path: Path, data: bytes):
    """Write through a temporary file in the target's directory, so ``path`` is never left partial.

    The file gets the mode ``Path.write_bytes`` would give it (0666 less the
    umask), and a symlink at ``path`` is written through, not replaced.
    """
    target = Path(os.path.realpath(path))
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _detect_worker(task) -> tuple[int, str] | None:
    """Detect one page of a batch; None on success, else (exit code, message)."""
    maps_path, out_path, args = task
    try:
        _write_atomic(Path(out_path), _detect_single(maps_path, args))
    except _INPUT_ERRORS as exc:
        return 1, f"{maps_path}: {exc}"
    except Exception as exc:  # internal invariant failure
        return 2, f"{maps_path}: internal error: {type(exc).__name__}: {exc}"
    return None


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
        if args.multi_orient:
            # --maps-90/--maps-270/--orient-maps name one page's files
            raise CliError("--multi-orient takes one page (--maps ...), not --in-dir")
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
                failures = [f for f in pool.map(_detect_worker, tasks) if f]
        else:
            failures = [f for f in map(_detect_worker, tasks) if f]
        if failures:
            print(f"error: {len(failures)} of {len(tasks)} pages failed:", file=sys.stderr)
            for _, message in failures:
                print(f"  {message}", file=sys.stderr)
            return max(code for code, _ in failures)
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
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
