"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/steadiness.py --workloads clean_roundtrip --seeds 0-9

For every end-to-end metric this prints the median over the runs and the
interquartile distance as a share of the median (``statistics.quantiles``
quartiles), next to the metric's bound in BENCHMARK.json.  A spread above
the bound fails; the benchmark aims for spreads below a third of it.
``setup_s`` is exempt from the spread rule.  Raw results go to
``.perfbench-run/steadiness-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import quartile_spread  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"), help="inclusive range, e.g. 0-9")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {}
    worst = 0.0
    for workload in args.workloads:
        runs = results.setdefault(workload, [])
        for seed in args.seeds:
            t0 = time.monotonic()
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]  # fmt: skip
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = time.monotonic() - t0
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']} "
                  f"wall {result['wall_s']:.1f}s", flush=True)  # fmt: skip
        print(f"\n{workload}: {len(runs)} runs, mean wall {statistics.mean(r['wall_s'] for r in runs):.1f}s")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            spread = quartile_spread(values) if len(values) >= 2 else 0.0
            if name != "setup_s":
                worst = max(worst, spread / bound)
            flag = "exempt" if name == "setup_s" else ("FAIL" if spread > bound else ("ok" if spread < bound / 3 else "wide"))
            print(f"  {name:<16} median {statistics.median(values):12.5f}  spread {spread:7.4f}  bound {bound:5.3f}  {flag}")
        print()
    out = ROOT / ".perfbench-run" / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": args.seconds, "seeds": args.seeds, "results": results}, indent=1))
    print(f"worst spread / bound (setup_s exempt): {worst:.3f}; raw results in {out}")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
