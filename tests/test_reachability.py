"""Every function in `src/crext` is one that `verify` runs, and the work it does is pinned.

A child process runs `crext.cli.main` under `sys.setprofile` on the three
benchmark workloads (read from `perfbench/workloads.py` by path, as
`test_benchmark_bindings` reads `spans.py`) and on one flag-driven
`--format table` run.  It counts, run by run, every entry into a code
object (a generator counts each resume) and records the points of each
`special.kummer_u_batch` result.  Each function and method defined in the
package must be entered, or be on `NOT_ENTERED` with the reason it stays.
A fresh process starts with cold caches, so a body that a cache hit would
skip is still entered.

The work ledger `tests/data/work_ledger.json` holds, per workload, the
entries into each package function by dotted name and the points of each
Kummer U batch in call order; one test requires the child's figures to
equal it exactly.  Unlike timings, they do not drift with the machine.
The child runs the workloads in one process in a fixed order, so caches
(profiles, workspaces, Gauss-Jacobi rules) carry from one workload into
the next: a later workload's figures assume the earlier ones ran.  A change
that moves the work on purpose re-records the ledger with

    PYTHONPATH=src python tests/test_reachability.py

and its diff is the work that moved.  A third test keeps every module's
`__all__` resolvable and its lines within 100 columns.
"""

import ast
import functools
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import crext.cli
from benchmark_files import load_workloads

PACKAGE = Path(crext.cli.__file__).resolve().parent

_TRACED = "a SPANS name of the benchmark tracer, and an ODE referee in the tests"

# Defined in the package but entered by no run below, each with its reason.
NOT_ENTERED = {
    "extend.ModeSolution.derivatives": _TRACED,
    "extend.FourthOrderMode.derivatives": _TRACED,
    "extend.FourthOrderMode.lop": _TRACED,
    "scatter.recurrence_p": "public: the recurrence polynomial p_l as a fresh Poly",
    "scatter.recurrence_g": "public: the reflected recurrence polynomial g_l as a fresh Poly",
    "special._min_z": "names the smallest point in the overflow and non-convergence errors",
}

LEDGER = Path(__file__).resolve().parent / "data" / "work_ledger.json"

_CHILD = r"""
import contextlib, io, json, os, sys

counts, points, batch = {}, [], None


def profile(frame, event, arg):
    if event == "call":
        counts[frame.f_code] = counts.get(frame.f_code, 0) + 1
    elif event == "return" and frame.f_code is batch and arg is not None:
        points.append(int(arg.size))


def bucket():
    calls, found = list(counts.items()), list(points)
    counts.clear()
    points.clear()
    calls = [[os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name, n] for c, n in calls]
    return {"calls": calls, "u_points": found}


sys.setprofile(profile)
import crext.cli

batch = crext.cli.special.kummer_u_batch.__code__
buckets = [bucket()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        status = crext.cli.main(argv)
    if status != 0:
        raise SystemExit(f"verify {argv} exited {status}")
    buckets.append(bucket())
sys.setprofile(None)
print(json.dumps(buckets))
"""


def _defined() -> dict:
    """(file, first line) -> dotted name of every def in the package.

    The first line is a decorated function's first decorator, as its code
    object reports it.
    """
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[str(path), first] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path, f"{path.stem}.")
    return out


@functools.cache
def _child_run() -> dict:
    """Run label -> {"calls": {dotted name: entries}, "u_points": [...]} from one child.

    The labels are "import", each workload's name in its fixed order, and
    "table".  Code objects that are no package function (modules,
    comprehensions) are left out.
    """
    workloads = load_workloads()
    defined = _defined()
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for name, workload in workloads.items():
            config = Path(tmp) / f"{name}.json"
            config.write_text(json.dumps(workload.config_for(0)))
            runs.append(["--config", str(config)])
        runs.append(["algebra", "--format", "table", "--expansion-dims", "2,3", "--seed", "1"])
        path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path}
        env.pop("CREXT_VERIFY_OUT", None)
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, json.dumps(runs)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
    assert child.returncode == 0, child.stderr
    out = {}
    for label, bucket in zip(["import", *workloads, "table"], json.loads(child.stdout)):
        calls = {}
        for file, line, code_name, entries in bucket["calls"]:
            dotted = defined.get((file, line))
            if dotted is not None and dotted.rsplit(".", 1)[-1] == code_name:
                calls[dotted] = calls.get(dotted, 0) + entries
        out[label] = {"calls": dict(sorted(calls.items())), "u_points": bucket["u_points"]}
    return out


def work_ledger() -> dict:
    """Workload -> the child's figures for it."""
    return {name: _child_run()[name] for name in load_workloads()}


def test_verify_enters_every_function_of_the_package():
    entered = {name for run in _child_run().values() for name in run["calls"]}
    defined = _defined()
    assert set(NOT_ENTERED) <= set(defined.values()), "NOT_ENTERED names a function that is gone"
    missed = sorted(name for name in defined.values() if name not in entered)
    assert missed == sorted(NOT_ENTERED), (
        "functions verify never enters must go, or join NOT_ENTERED with a reason; "
        "NOT_ENTERED names that verify now enters must leave it"
    )


def test_the_work_of_each_workload_equals_its_ledger():
    ledger = json.loads(LEDGER.read_text())
    measured = work_ledger()
    assert sorted(measured) == sorted(ledger), "the workloads changed; re-record the ledger"
    moved = [
        f"{name} {dotted}: {ledger[name]['calls'].get(dotted)} -> {figures['calls'].get(dotted)}"
        for name, figures in measured.items()
        for dotted in sorted(set(figures["calls"]) | set(ledger[name]["calls"]))
        if figures["calls"].get(dotted) != ledger[name]["calls"].get(dotted)
    ]
    moved += [
        f"{name} kummer_u_batch points: {ledger[name]['u_points']} -> {figures['u_points']}"
        for name, figures in measured.items()
        if figures["u_points"] != ledger[name]["u_points"]
    ]
    assert moved == [], "the work moved; re-record the ledger if on purpose:\n" + "\n".join(moved)


def test_every_export_resolves_and_no_source_line_passes_100_columns():
    for path in sorted(PACKAGE.glob("*.py")):
        dotted = "crext" if path.stem == "__init__" else f"crext.{path.stem}"
        module = importlib.import_module(dotted)

        def resolves(name):
            # A package's `__all__` may name its submodules, which `import *` loads.
            if hasattr(module, name):
                return True
            return hasattr(module, "__path__") and bool(importlib.util.find_spec(f"{dotted}.{name}"))

        stale = [name for name in getattr(module, "__all__", ()) if not resolves(name)]
        assert not stale, f"{path.name} exports names it does not define: {stale}"
        lines = path.read_text().splitlines()
        wide = [n for n, line in enumerate(lines, 1) if len(line) > 100]
        assert not wide, f"{path.name} has lines over 100 columns: {wide}"


if __name__ == "__main__":
    LEDGER.write_text(json.dumps(work_ledger(), indent=1) + "\n")
