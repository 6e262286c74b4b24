"""The benchmark's own checks.

    python3 -m pytest -q -p no:cacheprovider perfbench/test_perfbench.py

Run from the root of a crext checkout; takes about a minute, most of it in
two traced `verify` runs per workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest

from spans import COUNTS, TracingError, rebind
from workloads import WORKLOADS, isolation_errors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture
def workdir():
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=scratch))
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        scratch.rmdir()
    except OSError:
        pass


def _traced_counts(workload, seed: int, workdir: Path) -> dict:
    config, timings = workdir / "config.json", workdir / "timings.json"
    config.write_text(json.dumps(workload.config_for(seed)))
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(timings), "--trace", "--",
         "--config", str(config), "--out", str(workdir / "report.json")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=True,
        timeout=170,
    )
    layers = json.loads(timings.read_text())["layers"]
    return {key: layers[key] for key in COUNTS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly_and_layers_stay_isolated(name, workdir):
    workload = WORKLOADS[name]
    first = _traced_counts(workload, 0, workdir)
    second = _traced_counts(workload, 0, workdir)
    assert first == second
    assert isolation_errors(workload, first) == []


def test_a_binding_left_unpatched_fails_loudly():
    probe = types.ModuleType("crext._perfbench_probe")

    def layer_function():
        return 1

    probe.layer_function = layer_function
    probe.held = [layer_function]
    sys.modules[probe.__name__] = probe
    try:
        with pytest.raises(TracingError, match="crext._perfbench_probe.held"):
            rebind(layer_function, lambda: 2)
        assert probe.layer_function() == 2
    finally:
        del sys.modules[probe.__name__]


def test_refuses_a_directory_without_the_program(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
