"""The names the benchmark's tracer wraps must keep resolving in crext.

`perfbench/spans.py` is loaded from its file, read-only: it lists every
crext function the traced benchmark run wraps, and the foreign functions
it counts at crext's by-name bindings.  A refactor that renames or moves
one of them fails here, in the regular test run, and not only when the
benchmark is run.
"""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import crext.cli  # noqa: F401  (imports every crext layer)
from benchmark_files import load_spans


def test_every_traced_name_resolves_to_a_crext_function():
    spans = load_spans()
    assert spans.SPANS
    for module_name, path, *_ in spans.SPANS:
        owner = sys.modules[module_name]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        target = vars(owner).get(attr)
        assert isinstance(target, types.FunctionType), f"{module_name}.{path} does not resolve"
        assert target.__module__ == module_name, f"{module_name}.{path} is defined elsewhere"


def test_counted_foreign_functions_are_bound_by_name_in_crext():
    spans = load_spans()
    for module_name, attr, *_ in spans.FOREIGN:
        original = getattr(importlib.import_module(module_name), attr)
        holders = [
            name
            for name, module in sys.modules.items()
            if name.startswith("crext.") and vars(module).get(attr) is original
        ]
        assert holders, f"no crext module binds {module_name}.{attr} by name"
    from scipy.integrate import solve_ivp

    assert crext.extend.solve_ivp is solve_ivp


def test_importing_the_cli_alone_loads_every_module_the_tracer_wraps():
    # The tracer installs its wrappers right after `import crext.cli` in a
    # fresh process.  Here that import runs alone, so a module that only a
    # test or a later call would load shows up missing.
    spans = load_spans()
    wanted = {name for name, *_ in spans.SPANS} | {name for name, *_ in spans.FOREIGN}
    src = str(Path(crext.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, crext.cli; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert sorted(wanted - set(loaded)) == []
