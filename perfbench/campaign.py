"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/campaign.py [--seeds 0-9] [--workloads a,b] [--out FILE] [--against FILE]

Run from the root of a crext checkout.  Runs `run.py` once per seed and
workload with `--trace 0` and BENCHMARK.json's `run_seconds`, taking the
workloads round-robin so that drift in machine speed falls on all of them
alike.  For every end-to-end metric it prints the median of the runs and
the spread, the distance between the first and third quartile as a share
of the median, beside the metric's bound.  With `--against`, a previous
`--out` file, it also prints how much worse each median got.  Exits 1 if a
run is incorrect, if a spread (other than setup_s's) exceeds its bound, or
if a median got worse than the previous one by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run.py failed on {workload} seed {seed}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(metric: dict, before: float, after: float) -> float:
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            result = run_once(workload, seed, spec["run_seconds"])
            runs[workload].append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed={seed} correct={result['correct']} {values}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    previous = json.loads(args.against.read_text()) if args.against else {}

    ok = all(r["correct"] for rs in runs.values() for r in rs)
    for workload, results in runs.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            line = f"{workload:15s} {name:20s} median={median:10.4f}"
            if len(values) >= 2:
                s = spread(values)
                line += f" spread={s:.4f} bound={bound} ({s / bound:.2f} of bound)"
                ok &= name == "setup_s" or s <= bound
            if workload in previous:
                before = statistics.median(r["metrics"][name]["value"] for r in previous[workload])
                w = worsening(metric, before, median)
                line += f" worse_than_previous={w:+.4f}"
                ok &= w <= bound
            print(line)
    print("campaign:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
