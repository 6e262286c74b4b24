"""Result records and deterministic renderers for the verification runs.

One check is one measured comparison against an explicit tolerance.  Every
entry carries a self-contained anchor stating the identity being exercised
and the parameter point it was exercised at, so a report can be read and
reproduced without the code at hand.  Rendering is deliberately inert:
given the same configuration the JSON output is byte-identical across runs
on one machine and BLAS build (sorted keys, fixed indentation, no
timestamps, no host information), which keeps reports diffable and
reviewable; another BLAS kernel can move the last digits of some measured
errors.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

__all__ = ["CheckEntry", "VerificationReport", "render_json", "render_table"]


@dataclass(frozen=True)
class CheckEntry:
    """One graded comparison: identity, parameter point, error, verdict."""

    check_id: str
    paper_anchor: str
    parameters: dict
    measured_error: float
    tolerance: float
    passed: bool

    @staticmethod
    def graded(
        check_id: str, anchor: str, parameters: dict, measured_error, tolerance
    ) -> "CheckEntry":
        err = float(measured_error)
        tol = float(tolerance)
        return CheckEntry(check_id, anchor, dict(parameters), err, tol, err <= tol)


def _zero_bucket() -> dict:
    return {"checks": 0, "failures": 0, "max_error": 0.0}


@dataclass
class VerificationReport:
    """An ordered collection of check entries plus run metadata."""

    seed: int
    suites: tuple[str, ...]
    entries: list[CheckEntry] = field(default_factory=list)

    def extend(self, more) -> None:
        self.entries.extend(more)

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def summary(self) -> dict:
        buckets = {name: _zero_bucket() for name in self.suites}
        total = _zero_bucket()
        for entry in self.entries:
            suite = entry.check_id.split(".", 1)[0]
            for bucket in (buckets.setdefault(suite, _zero_bucket()), total):
                bucket["checks"] += 1
                bucket["failures"] += 0 if entry.passed else 1
                bucket["max_error"] = max(bucket["max_error"], entry.measured_error)
        buckets["total"] = total
        return buckets

    def to_payload(self) -> dict:
        return {
            "seed": self.seed,
            "suites": list(self.suites),
            "passed": self.passed,
            "summary": self.summary(),
            "entries": [asdict(entry) for entry in self.entries],
        }


def render_json(report: VerificationReport) -> str:
    return json.dumps(report.to_payload(), sort_keys=True, indent=2) + "\n"


def render_table(report: VerificationReport) -> str:
    header = ("check", "anchor", "error", "tolerance", "status")
    rows = [
        (
            entry.check_id,
            entry.paper_anchor,
            f"{entry.measured_error:.3e}",
            f"{entry.tolerance:.1e}",
            "pass" if entry.passed else "FAIL",
        )
        for entry in report.entries
    ]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(5)
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip(),
        "  ".join("-" * widths[i] for i in range(5)),
    ]
    lines.extend(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    )
    lines.append("")
    for suite, bucket in report.summary().items():
        lines.append(
            f"{suite}: {bucket['checks']} checks, {bucket['failures']} failures, "
            f"max error {bucket['max_error']:.3e}"
        )
    lines.append("result: " + ("pass" if report.passed else "FAIL"))
    return "\n".join(lines) + "\n"
