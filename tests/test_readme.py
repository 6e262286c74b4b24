"""The README's library sketch runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_sketch_runs():
    (sketch,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    for name in ("verify_dtn_theorem", "fit_boundary_expansion", "trace_equality_check"):
        assert name in sketch
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run(
        [sys.executable, "-c", sketch], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
