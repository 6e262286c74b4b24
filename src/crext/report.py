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
import math
from dataclasses import asdict, dataclass, field

__all__ = ["CheckEntry", "VerificationReport", "render_json", "render_table", "worst_error"]


def worst_error(errors) -> float:
    """The largest of `errors` and 0.0, or NaN when any error is NaN.

    Python's `max` keeps its running value past a NaN, so a NaN measurement
    would read as a pass; here it fails every tolerance instead.
    """
    values = [0.0, *map(float, errors)]
    return math.nan if any(map(math.isnan, values)) else max(values)


def _strict_dict(pairs) -> dict:
    """The dict of `pairs`, a non-finite float named "nan", "inf" or "-inf" as RFC 8259 needs."""
    return {k: v if not isinstance(v, float) or math.isfinite(v) else str(v) for k, v in pairs}


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
        """Pass when 0 <= error <= tolerance; a negative or NaN error fails."""
        err = float(measured_error)
        tol = float(tolerance)
        return CheckEntry(check_id, anchor, dict(parameters), err, tol, 0.0 <= err <= tol)


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
        by_suite = {name: [] for name in self.suites}
        for entry in self.entries:
            by_suite.setdefault(entry.check_id.split(".", 1)[0], []).append(entry)
        by_suite["total"] = self.entries
        return {
            suite: {
                "checks": len(entries),
                "failures": sum(not entry.passed for entry in entries),
                "max_error": worst_error(entry.measured_error for entry in entries),
            }
            for suite, entries in by_suite.items()
        }

    def to_payload(self) -> dict:
        return {
            "seed": self.seed,
            "suites": list(self.suites),
            "passed": self.passed,
            "summary": {suite: _strict_dict(b.items()) for suite, b in self.summary().items()},
            "entries": [asdict(entry, dict_factory=_strict_dict) for entry in self.entries],
        }


def render_json(report: VerificationReport) -> str:
    return json.dumps(report.to_payload(), sort_keys=True, indent=2, allow_nan=False) + "\n"


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
