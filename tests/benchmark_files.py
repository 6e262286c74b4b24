"""The benchmark's own modules, loaded read-only from `perfbench/` by path.

The tests read the tracer's names (`spans.py`) and the workload configs
(`workloads.py`) from the files the benchmark runs, so a refactor that
breaks either shows in the regular test run.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(stem: str):
    spec = importlib.util.spec_from_file_location(f"_benchmark_{stem}", PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def load_spans():
    return _load("spans")


def load_workloads() -> dict:
    return _load("workloads").WORKLOADS
