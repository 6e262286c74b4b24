"""Every function in `src/crext` is one that `verify` runs.

A child process runs `crext.cli.main` under `sys.setprofile` on the three
benchmark workloads (read from `perfbench/workloads.py` by path, as
`test_benchmark_bindings` reads `spans.py`) and on one flag-driven
`--format table` run, and reports every code object it entered.  Each
function and method defined in the package must be among them, or on
`NOT_ENTERED` with the reason it stays.  A fresh process starts with cold
caches, so a body that a cache hit would skip is still entered.  A second
test keeps every module's `__all__` resolvable and its lines within 100
columns.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
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

_CHILD = r"""
import contextlib, io, json, os, sys

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
import crext.cli

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        status = crext.cli.main(argv)
    if status != 0:
        raise SystemExit(f"verify {argv} exited {status}")
sys.setprofile(None)
print(json.dumps(sorted({(os.path.realpath(c.co_filename), c.co_firstlineno) for c in entered})))
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


def test_verify_enters_every_function_of_the_package(tmp_path):
    runs = []
    for name, workload in load_workloads().items():
        config = tmp_path / f"{name}.json"
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
    entered = {(file, line) for file, line in json.loads(child.stdout)}
    defined = _defined()
    assert set(NOT_ENTERED) <= set(defined.values()), "NOT_ENTERED names a function that is gone"
    missed = sorted(name for key, name in defined.items() if key not in entered)
    assert missed == sorted(NOT_ENTERED), (
        "functions verify never enters must go, or join NOT_ENTERED with a reason; "
        "NOT_ENTERED names that verify now enters must leave it"
    )


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
