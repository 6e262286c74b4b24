"""Cold-process benchmark of the `verify` command.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a crext checkout; the program is taken from `src/`
there.  Every sample is one fresh `verify` process, run in a closed loop
with one client and one process at a time, because in-process caches
(energy workspaces, Kummer quadrature rules, sympy's cache) would otherwise
carry work from one sample into the next.  One untimed import warms the
caches; then rounds of samples are taken while the next round would be at
least half done by `--seconds`.  Metrics are medians over the samples.

With `--trace 0` each round is one `verify` sample, and the end-to-end
metrics named in BENCHMARK.json are reported; `setup_s` is the import time
measured inside each sample.  With `--trace 1` each round is one untraced
sample, one traced sample and one `python -X importtime` import, and the
per-layer metrics are reported.

Every sample's report must pass, hold the workload's entry count and hash
to the same sha256 as every other sample of the run.  A sample that exits
non-zero or raises counts its entries as failed; it is never dropped.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the
line before it holds the details (environment, sample counts, the report
digest, every sampled value).  Exits 2 without a result when the checkout
holds no crext sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

from spans import COUNTS
from workloads import WORKLOADS, isolation_errors

HERE = Path(__file__).resolve().parent
SAMPLE_TIMEOUT_S = 120.0
IMPORT_PACKAGES = ("sympy", "scipy", "numpy")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
    for package in ("numpy", "scipy", "sympy"):
        env[package] = metadata.version(package)
    return env


def parse_importtime(text: str) -> dict:
    """Import seconds per package from `python -X importtime` output.

    sympy, scipy and numpy are charged the cumulative time of their imports
    that no other of the three triggered (so sympy includes mpmath, and
    scipy the numpy submodules it pulls in); crext is charged only the self
    time of its own modules.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        head, cum_us, name = line.split("|")
        try:
            self_us, cum_us = int(head.split(":", 1)[1]), int(cum_us)
        except ValueError:  # the column header
            continue
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, self_us, cum_us, name.strip()))
    totals = {package: 0 for package in IMPORT_PACKAGES + ("crext",)}
    # importtime prints children before parents; walk backwards to see parents first.
    open_packages = []
    for depth, self_us, cum_us, name in reversed(rows):
        del open_packages[depth:]
        package = name.split(".", 1)[0]
        if package == "crext":
            totals["crext"] += self_us
        elif package in IMPORT_PACKAGES and not set(open_packages) & set(IMPORT_PACKAGES):
            totals[package] += cum_us
        open_packages.append(package)
    return {f"import.{package}_s": us / 1e6 for package, us in totals.items()}


class Bench:
    """Spawns sample processes for one workload at one seed."""

    def __init__(self, root: Path, work: Path, workload, seed: int):
        self.work = work
        self.workload = workload
        self.config = work / "config.json"
        self.config.write_text(json.dumps(workload.config_for(seed)))
        # Bytecode caching stays on, as for an installed `verify`.
        dropped = ("CREXT_VERIFY_OUT", "PYTHONDONTWRITEBYTECODE")
        self.env = {k: v for k, v in os.environ.items() if k not in dropped}
        self.env["PYTHONPATH"] = str(root / "src")
        self.spawned = 0
        self.errors = []

    def _spawn(self, args) -> tuple[int, float, float, str]:
        """Run one process; returns (exit status, wall s, peak RSS MB, stderr)."""
        self.spawned += 1
        err_path = self.work / f"stderr-{self.spawned}.txt"
        with open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                env=self.env,
                cwd=self.work,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            watchdog = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, err_path.read_text(errors="replace")

    def _fail(self, what: str, stderr: str) -> None:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        self.errors.append(f"{what}: {tail[0]}")

    def import_sample(self, *flags: str) -> str | None:
        """Import crext.cli in a fresh interpreter; returns its stderr."""
        status, _, _, stderr = self._spawn([*flags, "-c", "import crext.cli"])
        if status != 0:
            self._fail(f"import sample exited {status}", stderr)
            return None
        return stderr

    def verify_sample(self, traced: bool) -> dict:
        n = self.spawned + 1
        timings, report = self.work / f"timings-{n}.json", self.work / f"report-{n}.json"
        args = [str(HERE / "child.py"), str(timings)]
        args += ["--trace"] if traced else []
        args += ["--", "--config", str(self.config), "--out", str(report)]
        status, wall, rss_mb, stderr = self._spawn(args)
        sample = {"traced": traced, "status": status, "wall_s": wall, "peak_rss_mb": rss_mb}
        try:
            text = report.read_bytes()
            payload = json.loads(text)
        except (OSError, ValueError):
            text, payload = b"", {}
        entries = payload.get("entries", [])
        expected = self.workload.entries
        passed = sum(1 for entry in entries[:expected] if entry.get("passed") is True)
        sample["attempted"] = expected
        sample["failed"] = expected - passed
        sample["sha256"] = hashlib.sha256(text).hexdigest() if text else None
        if timings.exists():
            sample.update(json.loads(timings.read_text()))
        if status != 0 or not timings.exists():
            self._fail(f"verify sample exited {status}", stderr)
        elif payload.get("passed") is not True or len(entries) != expected:
            self.errors.append(
                f"report passed={payload.get('passed')} with {len(entries)} entries, "
                f"expected {expected} passing"
            )
        return sample


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[list, list]:
    """Rounds of samples while the next round would be half done by `seconds`."""
    verify, importtimes = [], []
    bench.import_sample()  # warms the bytecode and file caches; not timed
    start = perf_counter()
    while True:
        began = perf_counter()
        verify.append(bench.verify_sample(traced=False))
        if trace:
            verify.append(bench.verify_sample(traced=True))
            importtimes.append(bench.import_sample("-X", "importtime"))
        now = perf_counter()
        if now - start + (now - began) / 2 > seconds:
            return verify, [parse_importtime(text) for text in importtimes if text is not None]


def end_to_end(verify: list) -> dict:
    return {
        "wall_s": _median([s["wall_s"] for s in verify]),
        "setup_s": _median([s["import_s"] for s in verify if "import_s" in s]),
        "verify_s": _median([s["verify_s"] for s in verify if "verify_s" in s]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in verify]),
    }


def per_layer(bench: Bench, verify: list, importtimes: list) -> dict:
    plain = [s for s in verify if not s["traced"] and "verify_s" in s]
    traced = [s for s in verify if s["traced"] and s.get("layers")]
    metrics = {}
    for key in importtimes[0] if importtimes else ():
        metrics[key] = _median([sample[key] for sample in importtimes])
    layers = [s["layers"] for s in traced]
    for key in layers[0] if layers else ():
        metrics[key] = _median([sample[key] for sample in layers])
    metrics["report.render_s"] = _median([s["render_s"] for s in traced])
    metrics["trace.overhead_s"] = _median([s["verify_s"] for s in traced]) - _median(
        [s["verify_s"] for s in plain]
    )
    if layers:
        counts = [{key: sample[key] for key in COUNTS} for sample in layers]
        if any(c != counts[0] for c in counts):
            bench.errors.append(f"traced counts differ between samples: {counts}")
        bench.errors.extend(isolation_errors(bench.workload, counts[0]))
        metrics.update(counts[0])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Cold-process benchmark of `verify`.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "crext" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {root} is not a crext checkout (needs src/crext and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workload = WORKLOADS[args.workload]

    scratch = root / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        bench = Bench(root, work, workload, args.seed)
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        verify, importtimes = measure(bench, seconds, bool(args.trace))
        if args.trace:
            computed = per_layer(bench, verify, importtimes)
            wanted = spec["per_layer"]
        else:
            computed = end_to_end(verify)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    digests = sorted({s["sha256"] for s in verify if s["sha256"]})
    if len(digests) != 1:
        bench.errors.append(f"{len(digests)} distinct report digests across samples")
    attempted = sum(s["attempted"] for s in verify)
    failed = sum(s["failed"] for s in verify)
    computed["checks_passed_frac"] = 1.0 - failed / attempted
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "samples": len(verify),
        "importtime_samples": len(importtimes),
        "report_sha256": digests[0] if len(digests) == 1 else digests,
        "checks_failed_frac": failed / attempted,
        "errors": bench.errors,
        "values": {
            key: [s.get(key) for s in verify]
            for key in ("traced", "status", "wall_s", "import_s", "verify_s", "peak_rss_mb")
        },
    }
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        bench.errors.append(f"no value measured for {', '.join(missing)}")
    for error in bench.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps(details))
    metrics = {m["name"]: {"value": computed.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not bench.errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
