"""Batch command-line front-end.

Subcommands: ``synth`` (generate fixture layouts and maps), ``render-gt``
(layout to channel maps), ``detect`` (channel maps to layout, optionally
multi-orientation), ``loss`` (compare two map stacks), ``eval`` (score
predicted layouts against ground truth).  All tunables default to the
engine's standard constants.  Outputs are deterministic for identical
inputs, seeds and ``--jobs`` settings.

Exit codes: 0 success, 1 input/usage error, 2 internal invariant failure.
``detect`` and ``eval`` go on past pages that fail, list them on stderr and
exit with the highest of their codes; a single page is a batch of one and
fails the same way.  ``eval`` then writes no report.  Every output is
written to a temporary file in its directory and renamed into place, so none
is ever left half-written, and an output path must name a regular file (or a
symlink to one), not a device; ``loss`` and ``eval`` print to stdout without
``--out`` and ``--report``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from dataclasses import fields
from functools import partial
from inspect import signature
from pathlib import Path

from .baselines import ExtractParams
from .blocks import BlockParams, extract_page
from .channels import ChannelMaps, MapFormatError, OrientationMaps, read_maps, rotate_maps, write_maps
from .layout import LayoutError, load_layout, save_layout
from .losses import DEFAULT_HEIGHT_WEIGHT, total_loss
from .metrics import DEFAULT_IOU_THRESHOLD, build_report, evaluate
from .orient import detect_multi_orientation
from .render import RenderParams, render_gt, render_orientation_gt
from .scale import DEFAULT_SCALE_THRESHOLD, estimate_scale
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


# synth's corruption flags (argparse dest) and the ``corrupt`` parameter each one sets
_CORRUPT_FLAGS = {"noise_sigma": "noise_sigma", "blur": "blur_size", "dropout": "dropout_prob", "corrupt_seed": "rng_seed"}


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
    for dest, name in _CORRUPT_FLAGS.items():  # at corrupt's defaults the maps stay clean
        default = signature(corrupt).parameters[name].default
        p.add_argument("--" + dest.replace("_", "-"), type=type(default), default=default)

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
    p.add_argument("--scale-threshold", type=float, default=DEFAULT_SCALE_THRESHOLD)
    _add_field_flags(p, "extraction parameters", ExtractParams, BlockParams)

    p = sub.add_parser("loss", help="training-objective breakdown between two map stacks")
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--lam", type=float, default=DEFAULT_HEIGHT_WEIGHT, help="height-loss weight")
    p.add_argument("--out")

    p = sub.add_parser("eval", help="score predicted layouts against ground truth")
    p.add_argument("--pred", required=True, help="layout JSON file or directory")
    p.add_argument("--gt", required=True, help="layout JSON file or directory")
    p.add_argument("--report", help="report JSON output path (default stdout)")
    p.add_argument("--iou-threshold", type=float, default=DEFAULT_IOU_THRESHOLD)
    p.add_argument("--jobs", type=int, default=1)
    return parser


def _read_maps(path: str, cls=ChannelMaps):
    """The map stack at ``path``, which must be a ``cls`` (detection channels by default)."""
    maps = read_maps(Path(path).read_bytes())
    if not isinstance(maps, cls):
        raise CliError(f"{path}: expected channels {', '.join(cls.RANGES)}")
    return maps


def _write_atomic(path, data: bytes):
    """Write through a temporary file in the target's directory, so ``path`` is never left partial.

    The file gets the mode a plain ``open`` would give it (0666 less the
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


def _emit(text: str, path: str | None):
    """One JSON document to ``path``, or to stdout without one."""
    if path:
        _write_atomic(path, (text + "\n").encode())
    else:
        print(text)


def _cmd_synth(args) -> int:
    layout = generate(_from_args(SynthConfig, args))
    if args.maps or args.maps_rotated:  # corrupt before writing: bad corruption flags leave no files
        maps = corrupt(render_gt(layout), **{name: getattr(args, dest) for dest, name in _CORRUPT_FLAGS.items()})
    _write_atomic(args.out, save_layout(layout))
    if args.maps:
        _write_atomic(args.maps, write_maps(maps))
    if args.maps_rotated:
        for turns, tag in ((0, "0"), (1, "90"), (3, "270")):
            _write_atomic(f"{args.maps_rotated}.{tag}.pncm", write_maps(rotate_maps(maps, turns)))
    if args.orient_maps:
        _write_atomic(args.orient_maps, write_maps(render_orientation_gt(layout)))
    return 0


def _cmd_render_gt(args) -> int:
    layout = load_layout(Path(args.layout).read_bytes())
    _write_atomic(args.maps, write_maps(render_gt(layout, _from_args(RenderParams, args))))
    if args.orient_maps:
        _write_atomic(args.orient_maps, write_maps(render_orientation_gt(layout)))
    return 0


def _page(work, task) -> tuple[int, object]:
    """``(0, work(task))``, or ``(exit code, message)`` for page ``task[0]``: no exception crosses processes."""
    try:
        return 0, work(task)
    except _INPUT_ERRORS as exc:
        return 1, f"{task[0]}: {exc}"
    except Exception as exc:  # internal invariant failure
        return 2, f"{task[0]}: internal error: {type(exc).__name__}: {exc}"


def _run_pages(work, tasks: list, jobs: int) -> tuple[list, int]:
    """``work`` on every page, in ``jobs`` processes if more than one: (results in task order, 0),
    or, with the failed pages listed on stderr, ([], their highest exit code)."""
    run = partial(_page, work)
    if jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            outcomes = pool.map(run, tasks)
    else:
        outcomes = [run(task) for task in tasks]
    failures = [(code, message) for code, message in outcomes if code]
    if not failures:
        return [result for _, result in outcomes], 0
    print(f"error: {len(failures)} of {len(tasks)} pages failed:", file=sys.stderr)
    for _, message in failures:
        print(f"  {message}", file=sys.stderr)
    return [], max(code for code, _ in failures)


def _detect_page(task):
    """Detect the page at ``maps_path`` and write its layout to ``out_path``."""
    maps_path, out_path, args = task
    ep, bp = _params_from_args(args)
    maps = _read_maps(maps_path)
    page_id = Path(maps_path).stem
    if args.multi_orient:
        maps_by_turn = {0: maps, 1: _read_maps(args.maps_90), 3: _read_maps(args.maps_270)}
        orient_maps = _read_maps(args.orient_maps, OrientationMaps)
        layout = detect_multi_orientation(maps_by_turn, orient_maps, ep, bp, merge=not args.no_line_merge, page_id=page_id)
    else:
        layout = extract_page(maps, ep, bp, merge=not args.no_line_merge, page_id=page_id)
    _write_atomic(out_path, save_layout(layout))


def _cmd_detect(args) -> int:
    if args.report_scale:
        if not args.maps:
            raise CliError("--report-scale requires --maps")
        print(json.dumps(estimate_scale(_read_maps(args.maps), args.scale_threshold).as_dict()))
        return 0
    if args.in_dir:
        if not args.out_dir:
            raise CliError("--in-dir requires --out-dir")
        if args.multi_orient:
            # --maps-90/--maps-270/--orient-maps name one page's files
            raise CliError("--multi-orient takes one page (--maps ...), not --in-dir")
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        tasks = [(str(path), str(out_dir / (path.stem + ".json")), args) for path in sorted(Path(args.in_dir).glob("*.pncm"))]
        if not tasks:
            raise CliError(f"no .pncm files in {args.in_dir}")
    elif not (args.maps and args.out):
        raise CliError("detect needs --maps and --out (or --in-dir/--out-dir)")
    elif args.multi_orient and not (args.maps_90 and args.maps_270 and args.orient_maps):
        raise CliError("--multi-orient requires --maps-90, --maps-270 and --orient-maps")
    else:
        tasks = [(args.maps, args.out, args)]
    return _run_pages(_detect_page, tasks, args.jobs)[1]


def _cmd_loss(args) -> int:
    breakdown = total_loss(_read_maps(args.pred), _read_maps(args.gt), lam=args.lam)
    _emit(json.dumps(breakdown.as_dict()), args.out)
    return 0


def _eval_page(task):
    pred_path, gt_path, iou = task
    pred = load_layout(Path(pred_path).read_bytes())
    try:
        gt = load_layout(Path(gt_path).read_bytes())
    except LayoutError as exc:
        raise CliError(f"ground truth {gt_path}: {exc}") from exc
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
    # a mean over the pages that did not fail would read as the score of the whole set
    pages, code = _run_pages(_eval_page, tasks, args.jobs)
    if not code:
        _emit(json.dumps(build_report(pages).as_dict()), args.report)
    return code


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
