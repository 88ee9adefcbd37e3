"""One benchmark process: set up a workload, then run its timed loop.

``run.py`` starts this file with its own arguments plus ``--workdir`` and,
for the extra set-ups it times, ``--setup-only``.  Set-up is everything
from this process's first line to the end of the warm-up page: imports,
corpus building and warm-up.  The timed loop is a closed loop with one
caller, one page at a time.  The process prints one JSON record as the last
line of its standard output.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402

import pagelayout  # noqa: E402
import pagelayout.blocks as blocks  # noqa: E402
import pagelayout.channels as channels  # noqa: E402
import pagelayout.geometry as geometry  # noqa: E402
import pagelayout.layout as layout  # noqa: E402
import pagelayout.metrics as metrics  # noqa: E402
import pagelayout.orient as orient  # noqa: E402
import pagelayout.render as render  # noqa: E402
import pagelayout.synth as synth  # noqa: E402

from layers import ROOT_SPAN, SITES, Summary  # noqa: E402
from spans import Recorder, installed, write_spans  # noqa: E402
from stats import nearest_rank  # noqa: E402

# Ground-truth line-count quartiles of the default generator (seeds 0-159):
# each corpus takes a quarter of its pages from each stratum, so every seed
# gets the same mix of light and heavy pages.
STRATA_EDGES = (16, 28, 38)
# Page seeds of corpus --seed s are drawn from s * SEED_STRIDE + 0, 1, 2, ...
SEED_STRIDE = 100_000
MAX_CANDIDATES_PER_PAGE = 50
# Untraced runs time at least this many pages, so p75 has 10 samples beyond it.
MIN_OPS = 40

NOISE = dict(noise_sigma=0.1, blur_size=3, dropout_prob=0.05)  # criterion 2
VERTICAL_LINE_PROB = 0.3  # criterion 3
FLOORS = {  # aggregate F floors of acceptance criteria 1-3
    "clean_roundtrip": {"baseline": 0.99, "line": 0.97, "block": 0.97},
    "noisy_roundtrip": {"baseline": 0.95, "block": 0.90},
    "multi_orient_detect": {"baseline": 0.97},
}


@dataclass
class Output:
    data: bytes  # canonical layout JSON
    detect_s: float  # time inside extract_page / detect_multi_orientation
    pred: layout.PageLayout
    scores: metrics.PageScores | None


def stratified_pages(seed: int, k: int, make_layout):
    """``k`` (page seed, layout) pairs, k/4 per line-count stratum, interleaved."""
    quota = k // (len(STRATA_EDGES) + 1)
    strata = [[] for _ in range(len(STRATA_EDGES) + 1)]
    for j in itertools.count():
        if all(len(s) == quota for s in strata):
            break
        if j >= MAX_CANDIDATES_PER_PAGE * k:
            raise RuntimeError(f"line-count strata not filled after {j} candidate pages")
        page = seed * SEED_STRIDE + j
        gt = make_layout(page)
        stratum = strata[bisect.bisect_left(STRATA_EDGES, len(gt.lines()))]
        if len(stratum) < quota:
            stratum.append((page, gt))
    return [pair for group in zip(*strata) for pair in group]


def duplicate_pairs(pred: layout.PageLayout, iou: float = 0.5) -> int:
    """Line pairs with polygon IoU above ``iou`` (criterion 3 requires none)."""
    lines = pred.lines()
    boxes = [line.polygon.bounds() for line in lines]
    count = 0
    for i in range(len(lines)):
        ax0, ay0, ax1, ay1 = boxes[i]
        for j in range(i + 1, len(lines)):
            bx0, by0, bx1, by1 = boxes[j]
            if ax1 < bx0 or bx1 < ax0 or ay1 < by0 or by1 < ay0:
                continue  # disjoint boxes: IoU is 0
            if geometry.polygon_iou(lines[i].polygon, lines[j].polygon) > iou:
                count += 1
    return count


class RoundTrip:
    """generate -> render_gt [-> corrupt] -> extract_page -> save_layout -> evaluate."""

    def __init__(self, seed: int, pages: int, noisy: bool):
        self.seed, self.k, self.noisy = seed, pages, noisy

    def build(self, workdir: Path):
        pairs = stratified_pages(self.seed, self.k, lambda p: synth.generate(synth.SynthConfig(seed=p)))
        self.pages = [page for page, _ in pairs]

    def run(self, page: int) -> Output:
        gt = synth.generate(synth.SynthConfig(seed=page))
        maps = render.render_gt(gt)
        if self.noisy:
            maps = synth.corrupt(maps, rng_seed=page, **NOISE)
        t0 = time.perf_counter()
        pred = blocks.extract_page(maps)
        detect_s = time.perf_counter() - t0
        data = layout.save_layout(pred)
        return Output(data, detect_s, pred, metrics.evaluate(pred, gt))

    def score(self, page: int, out: Output):
        return out.scores, 0

    def cleanup(self):
        pass


class MultiOrient:
    """read 4 .pncm containers -> detect_multi_orientation -> save_layout; scored afterwards."""

    TAGS = ("0", "90", "270", "orient")

    def __init__(self, seed: int, pages: int):
        self.seed, self.k = seed, pages

    def _path(self, page: int, tag: str) -> Path:
        return self.dir / f"{page}.{tag}.pncm"

    def build(self, workdir: Path):
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        config = lambda p: synth.SynthConfig(seed=p, vertical_line_prob=VERTICAL_LINE_PROB)  # noqa: E731
        pairs = stratified_pages(self.seed, self.k, lambda p: synth.generate(config(p)))
        self.gt = {}
        for page, gt in pairs:
            maps = render.render_gt(gt)
            stacks = (maps, channels.rotate_maps(maps, 1), channels.rotate_maps(maps, 3), render.render_orientation_gt(gt))
            for tag, stack in zip(self.TAGS, stacks):
                self._path(page, tag).write_bytes(channels.write_maps(stack))
            self.gt[page] = gt
        self.pages = [page for page, _ in pairs]

    def run(self, page: int) -> Output:
        m0, m90, m270, omaps = (channels.read_maps(self._path(page, tag).read_bytes()) for tag in self.TAGS)
        t0 = time.perf_counter()
        pred = orient.detect_multi_orientation({0: m0, 1: m90, 3: m270}, omaps)
        detect_s = time.perf_counter() - t0
        return Output(layout.save_layout(pred), detect_s, pred, None)

    def score(self, page: int, out: Output):
        return metrics.evaluate(out.pred, self.gt[page]), duplicate_pairs(out.pred)

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "clean_roundtrip": lambda seed: RoundTrip(seed, pages=48, noisy=False),
    "noisy_roundtrip": lambda seed: RoundTrip(seed, pages=40, noisy=True),
    "multi_orient_detect": lambda seed: MultiOrient(seed, pages=16),
}


class Runner:
    """Runs operations, checks each output and keeps the samples."""

    def __init__(self, workload, recorder: Recorder | None):
        self.workload = workload
        self.recorder = recorder
        self.reference: dict[int, bytes] = {}
        self.scores: dict[int, metrics.PageScores] = {}
        self.samples: list[tuple[int, float, float]] = []  # (page, op ms, detect ms)
        self.traced: list[tuple[int, float, float]] = []
        self.traced_pages: list[object] = []
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, page: int, out: Output) -> str | None:
        if layout.save_layout(layout.load_layout(out.data)) != out.data:
            return "load_layout(save_layout(x)) re-serializes to other bytes"
        if self.reference.setdefault(page, out.data) != out.data:
            return "repeated page gave other bytes"
        if page not in self.scores:
            self.scores[page], dups = self.workload.score(page, out)
            if dups:
                return f"{dups} line pairs with IoU > 0.5"
        return None

    def attempt(self, page: int, traced: bool = False, step: int = 0):
        self.attempted += 1
        try:
            if traced:
                self.recorder.page = step
                self.traced_pages.append(self.recorder.page)
                with installed(self.recorder, [site for site, _ in SITES]):
                    idx = self.recorder.open(ROOT_SPAN)
                    try:
                        out = self.workload.run(page)
                    finally:
                        self.recorder.close(idx)
                root = self.recorder.spans[idx]
                op_s = (root.end - root.start) / 1e9
            else:
                t0 = time.perf_counter()
                out = self.workload.run(page)
                op_s = time.perf_counter() - t0
            problem = self.check(page, out)
        except Exception:  # one bad page must not stop the run; it is counted
            traceback.print_exc()
            self.failures.append(f"page {page}: raised")
            return
        if problem:
            self.failures.append(f"page {page}: {problem}")
            return
        (self.traced if traced else self.samples).append((page, op_s * 1000.0, out.detect_s * 1000.0))

    def loop(self, seconds: float):
        """Cycle over the corpus for ``seconds``, and for at least one pass.

        Untraced runs also make at least MIN_OPS operations.
        """
        pages = self.workload.pages
        min_steps = len(pages) if self.recorder is not None else max(len(pages), MIN_OPS)
        t0 = time.perf_counter()
        for step in itertools.count():
            if step >= min_steps and time.perf_counter() - t0 >= seconds:
                break
            page = pages[step % len(pages)]
            if self.recorder is None:
                self.attempt(page)
            else:  # untraced and traced run of the same page, alternating which goes first
                for traced in (False, True) if step % 2 == 0 else (True, False):
                    self.attempt(page, traced, step)


def quality(workload, scores) -> dict:
    report = metrics.build_report([scores[p] for p in workload.pages if p in scores])
    return report.aggregate


def layout_digest(workload, reference) -> str:
    h = hashlib.sha256()
    for page in workload.pages:
        data = reference.get(page, b"")
        h.update(f"{page}:{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def trace_report(recorder: Recorder, runner: Runner) -> dict:
    summary = Summary(recorder.spans, recorder.counts, runner.traced_pages)
    traced = [ms for _, ms, _ in runner.traced]
    untraced = [ms for _, ms, _ in runner.samples]
    per_layer = summary.metrics()
    overhead = 0.0  # no sample on one side: every such page failed its checks
    if traced and untraced:
        t50, u50 = nearest_rank(traced, 50), nearest_rank(untraced, 50)
        overhead = 100.0 * (t50 - u50) / u50
    per_layer["trace.overhead_pct"] = (overhead, "%")
    return {
        "metrics": per_layer,
        "stages": summary.stage_ms(),
        "layers": summary.layer_ms(),
        "traced_ops": len(runner.traced),
        "traced_ms_mean": sum(traced) / len(traced) if traced else 0.0,
        "untraced_ms_mean": sum(untraced) / len(untraced) if untraced else 0.0,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans-out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(pagelayout.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported pagelayout from {pagelayout.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    recorder = Recorder() if args.trace and not args.setup_only else None
    try:
        workload.build(args.workdir)
        runner = Runner(workload, recorder)
        runner.attempt(workload.pages[0])  # warm-up: counted and checked, not timed
        runner.samples.clear()
        setup_s = time.perf_counter() - T_START
        record = {"setup_s": setup_s}
        if not args.setup_only:
            runner.loop(args.seconds)
            record.update(
                pages=workload.pages,
                samples=runner.samples,
                attempted=runner.attempted,
                failures=runner.failures,
                quality=quality(workload, runner.scores),
                floors=FLOORS[args.workload],
                layout_sha256=layout_digest(workload, runner.reference),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                versions={"numpy": numpy.__version__, "scipy": scipy.__version__},
            )
            if recorder is not None:
                record["trace"] = trace_report(recorder, runner)
                if args.spans_out is not None:
                    write_spans(recorder.spans, args.spans_out)
    finally:
        workload.cleanup()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
