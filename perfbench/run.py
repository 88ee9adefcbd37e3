"""pagelayout benchmark: one workload, one corpus seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload clean_roundtrip --seed 0 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each was chosen):
clean_roundtrip, noisy_roundtrip, multi_orient_detect.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
Lines before it give the environment, the corpus, the checks, a digest of
all output layouts and, for traced runs, the per-stage table.

The program is imported from ``src/`` of the checkout this file sits in.
Set-up is timed in SETUP_REPEATS fresh processes and reported as their
median; the timed loop runs in the last of them, alone on the machine as
far as this benchmark is concerned.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import nearest_rank, samples_beyond, tail_percentile  # noqa: E402

WORKLOADS = ("clean_roundtrip", "noisy_roundtrip", "multi_orient_detect")
DEFAULT_SEED = 0
HELDOUT_SEED = 7919  # not used while tuning: a gain claimed on DEFAULT_SEED is confirmed here too
SETUP_REPEATS = 3
TAIL_PCT = 75
DEADLINE_S = 175.0
RUN_DIR = ROOT / ".perfbench-run"
SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def environment(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "threads": "1 (BLAS/OpenMP)",
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'none' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_workers(args) -> tuple[list[float], dict]:
    """Extra set-ups (in parallel with each other), then the measured process alone."""
    env = {**os.environ, **SINGLE_THREAD}
    deadline = time.monotonic() + DEADLINE_S
    base = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]  # fmt: skip
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"

    def start(i: int, extra: list[str]) -> subprocess.Popen:
        cmd = base + ["--workdir", str(RUN_DIR / f"{tag}-{i}")] + extra
        return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def finish(proc: subprocess.Popen) -> dict:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    procs: list[subprocess.Popen] = []
    try:
        setups = []
        if not args.trace:  # traced runs report no set-up time
            procs = [start(i, ["--setup-only"]) for i in range(1, SETUP_REPEATS)]
            setups = [finish(p)["setup_s"] for p in procs]
        spans_out = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        procs.append(start(0, ["--spans-out", str(spans_out)] if args.trace else []))
        record = finish(procs[-1])
        return setups + [record["setup_s"]], record
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for i in range(SETUP_REPEATS):
            shutil.rmtree(RUN_DIR / f"{tag}-{i}", ignore_errors=True)


def end_to_end(setups: list[float], record: dict) -> dict[str, tuple[float, str]]:
    op_ms = [ms for _, ms, _ in record["samples"]]
    detect_ms = [ms for _, _, ms in record["samples"]]
    q = record["quality"]
    return {
        "page_ms_p50": (nearest_rank(op_ms, 50), "ms"),
        f"page_ms_p{TAIL_PCT}": (nearest_rank(op_ms, TAIL_PCT), "ms"),
        "detect_ms_p50": (nearest_rank(detect_ms, 50), "ms"),
        f"detect_ms_p{TAIL_PCT}": (nearest_rank(detect_ms, TAIL_PCT), "ms"),
        "pages_per_s": (len(op_ms) / (sum(op_ms) / 1000.0), "1/s"),
        "setup_s": (nearest_rank(setups, 50), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "baseline_f": (q["baseline"]["f"], "F"),
        "line_f": (q["line"]["f"], "F"),
        "block_f": (q["block"]["f"], "F"),
    }


def quality_metrics(record: dict) -> dict[str, tuple[float, str]]:
    q = record["quality"]
    return {
        f"metrics.{kind}_{short}": (q[kind][long], "P/R")
        for kind in ("baseline", "line", "block")
        for short, long in (("p", "precision"), ("r", "recall"))
    }


def print_trace(trace: dict):
    stages = trace["stages"]
    total = trace["traced_ms_mean"]
    print(f"per-stage ms/page (traced, inclusive, mean over {trace['traced_ops']} pages):")
    for stage, ms in stages.items():
        print(f"  {stage:<22} {ms:9.2f}" if ms else f"  {stage:<22} {'-':>9}")
    print(f"  {'other stages':<22} {total - sum(stages.values()):9.2f}")
    print(f"  {'total':<22} {total:9.2f}   (untraced mean {trace['untraced_ms_mean']:.2f})")
    print("per-layer self ms/page: " + ", ".join(f"{k} {v:.2f}" for k, v in trace["layers"].items()))
    m = {k: v for k, (v, _) in trace["metrics"].items()}
    print(
        f"blocks: {m['blocks.lines']:.1f} lines/page enter cluster_blocks, {m['blocks.merges']:.1f} merges/page, "
        f"{m['blocks.lines'] - m['blocks.merges']:.1f} lines/page leave merge_block_lines"
    )
    unattributed = m["trace.unattributed_pct"]
    verdict = "ok" if unattributed <= 5.0 else "TOO HIGH: per-layer times miss part of page_ms"
    print(f"trace check: unattributed {unattributed:.2f}% of traced page time (<= 5%: {verdict})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pagelayout" / "__init__.py").is_file():
        print(f"error: no pagelayout sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    try:
        setups, record = run_workers(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not args.trace and not record["samples"]:
        print(f"error: no operation passed its checks: {record['failures'][:3]}", file=sys.stderr)
        return 1
    failed = len(record["failures"])
    attempted = record["attempted"]
    q = record["quality"]
    floor_misses = [
        f"{kind} F {q[kind]['f']:.4f} < {floor}" for kind, floor in record["floors"].items() if q[kind]["f"] < floor
    ]
    n = len(record["samples"])
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(environment(record["versions"])))
    print(
        f"corpus: {len(record['pages'])} pages, page seeds {min(record['pages'])}..{max(record['pages'])}; "
        f"{n} untraced pages timed, {samples_beyond(n, TAIL_PCT)} beyond p{TAIL_PCT} "
        f"(highest percentile with >= 10 beyond: {tail_percentile(n) or 'none'}); "
        f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s"
    )
    print(f"layout_sha256: {record['layout_sha256']}")
    print(
        f"checks: {attempted} operations, {failed} failed (failed_frac {failed / attempted:.4f}); "
        + ("F floors met" if not floor_misses else "F floors MISSED: " + "; ".join(floor_misses))
    )
    for failure in record["failures"]:
        print(f"  failed: {failure}")

    if args.trace:
        print_trace(record["trace"])
        metrics = {**record["trace"]["metrics"], **quality_metrics(record)}
    else:
        metrics = end_to_end(setups, record)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:14.6f} {unit}")
    # 0 at a healthy commit, so it travels as "attempted"/"failed" rather than as a bounded metric
    print(f"  {'failed_frac':<34} {failed / attempted:14.6f} ratio")
    result = {
        "correct": failed == 0 and not floor_misses,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
