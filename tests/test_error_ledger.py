"""Every measured error stays within a factor of 10 of its recorded value.

A fault far below any tolerance can still move an error by orders of
magnitude, and the verdicts would not show it.  `tests/data/error_ledger.json`
records, for each benchmark workload (read from `perfbench/workloads.py` by
path) at seed 0, the measured error of every report entry.  An error may not
leave [recorded/10, 10·recorded], both sides floored at 1e-15 so that
rounding noise near zero does not count, and an exact 0.0 must stay 0.0.

A change that moves an error on purpose re-records the ledger with

    PYTHONPATH=src python tests/test_error_ledger.py

and its diff is the list of moved entries.
"""

import json
import math
import tempfile
from pathlib import Path

from crext.cli import build_parser, load_config, run_suites
from benchmark_files import load_workloads

LEDGER = Path(__file__).resolve().parent / "data" / "error_ledger.json"
SEED = 0
FLOOR = 1e-15


def measure() -> dict:
    """workload -> entry id -> measured error, each workload run in-process."""
    ledger = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in sorted(load_workloads().items()):
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(workload.config_for(SEED)))
            report = run_suites(*load_config(build_parser().parse_args(["--config", str(path)])))
            errors = {entry.check_id: entry.measured_error for entry in report.entries}
            assert len(errors) == len(report.entries), f"{name} repeats an entry id"
            ledger[name] = errors
    return ledger


def _moved(measured: float, recorded: float) -> bool:
    if recorded == 0.0 or not math.isfinite(measured):
        return measured != 0.0
    m, r = max(measured, FLOOR), max(recorded, FLOOR)
    return not r / 10 <= m <= 10 * r


def test_no_measured_error_leaves_its_ledger_band():
    ledger = json.loads(LEDGER.read_text())
    measured = measure()
    assert {name: sorted(errors) for name, errors in measured.items()} == {
        name: sorted(errors) for name, errors in ledger.items()
    }, "the entry ids changed; re-record the ledger"
    moved = [
        f"{name} {check_id}: {ledger[name][check_id]!r} -> {error!r}"
        for name, errors in measured.items()
        for check_id, error in errors.items()
        if _moved(error, ledger[name][check_id])
    ]
    assert moved == [], "errors left their ledger band:\n" + "\n".join(moved)


if __name__ == "__main__":
    LEDGER.write_text(json.dumps(measure(), indent=1, sort_keys=True) + "\n")
