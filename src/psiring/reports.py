"""Check records, reports, and deterministic rendering.

A report is the machine-readable outcome of one CLI run: the echoed
configuration, a list of check records, and an overall status that fails
exactly when some record fails.  A record marked informative does not fail
the run; it flags a finding.  A budget refusal is no record: the run stops
with a BudgetError, exit code 2.

Rendering is byte-deterministic for a fixed (config, seed): keys are sorted,
table rows come in series.degree_grid order (total degree, then the vector),
and wall-clock timings are included only when explicitly requested.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .errors import UsageError

PASS = "pass"
FAIL = "fail"
INFORMATIVE = "informative"

# Central table of claim anchors: every check name maps to the mathematical
# statement it exercises, in words owned by this package.
CHECK_ANCHORS = {
    "slice-vs-series": "graded slice dimension equals the series coefficient",
    "series-anchor-e": "coefficient at e_i equals n-2",
    "series-anchor-pair": "coefficient at e_i+e_j equals (n-2)^2-(n-3)",
    "series-all-ones": "three-point series has every coefficient 1",
    "conifold-coefficients": "two-points-two-extras coefficients equal a+b+1",
    "curve-module-factorization": "curve module series equals the one-extra-point series",
    "groebner-slice-agreement": "standard monomial count equals the slice dimension",
    "krull-dimension": "leading-term Krull dimension equals the predicted value",
    "groebner-cross-field": "leading terms agree between rational and prime runs",
    "vanishing-oracle": "every relation vanishes at sampled configurations",
    "channel-independence": "pair products are independent of the comparison channel",
    "singular-locus-bound": "singular locus is strictly smaller than the variety",
    "koszul-b2": "second dual dimension equals commutators plus pair relations",
    "koszul-dual-vs-series": "dual dimensions match the inverted series coefficients",
    "presentation-audit": "relation counts and degrees match the construction",
}


@dataclass(frozen=True)
class CheckRecord:
    """One verified claim: what was checked, what was expected, what came out."""

    name: str
    inputs: dict
    expected: str
    got: str
    status: str

    @property
    def anchor(self) -> str:
        return CHECK_ANCHORS.get(self.name, self.name)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "inputs": self.inputs,
            "expected": self.expected,
            "got": self.got,
            "status": self.status,
        }


def make_check(name: str, inputs: dict, expected, got, ok: bool | None = None,
               informative: bool = False) -> CheckRecord:
    """Build a record; ok defaults to expected == got."""
    if name not in CHECK_ANCHORS:
        raise KeyError(f"check name {name!r} has no anchor entry")
    if ok is None:
        ok = expected == got
    if ok:
        status = PASS
    else:
        status = INFORMATIVE if informative else FAIL
    return CheckRecord(name=name, inputs=inputs, expected=str(expected),
                       got=str(got), status=status)


@dataclass
class Report:
    """Everything one run produced, ready to render."""

    tool: str
    version: str
    config: dict
    checks: list[CheckRecord] = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    payload: dict = field(default_factory=dict)
    timings: dict | None = None

    def add(self, record: CheckRecord):
        self.checks.append(record)

    def add_table(self, name: str, columns: list[str], rows: list[list]):
        """Rows must already be in their canonical sorted order."""
        self.tables[name] = {"columns": columns, "rows": rows}

    @property
    def overall(self) -> str:
        return FAIL if any(c.status == FAIL for c in self.checks) else PASS

    @property
    def exit_code(self) -> int:
        return 0 if self.overall == PASS else 1

    def to_dict(self) -> dict:
        out = {
            "tool": self.tool,
            "version": self.version,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "overall": self.overall,
        }
        if self.tables:
            out["tables"] = self.tables
        if self.payload:
            out["payload"] = self.payload
        if self.timings is not None:
            out["timings"] = self.timings
        return out


def render(report: Report, fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps(report.to_dict(), sort_keys=True, indent=2,
                           default=str) + "\n").encode()
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "md":
        return _render_md(report)
    raise UsageError(f"unknown format {fmt!r}")


def _render_csv(report: Report) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if report.tables:
        for name in sorted(report.tables):
            t = report.tables[name]
            w.writerow([f"# table: {name}"])
            w.writerow(t["columns"])
            for row in t["rows"]:
                w.writerow(row)
    if report.checks:
        w.writerow(["# checks"])
        w.writerow(["name", "status", "expected", "got"])
        for c in report.checks:
            w.writerow([c.name, c.status, c.expected, c.got])
    if report.payload:
        w.writerow(["# payload"])
        for k in sorted(report.payload):
            w.writerow([k, json.dumps(report.payload[k], sort_keys=True, default=str)])
    if report.timings is not None:
        w.writerow(["# timings"])
        w.writerow(["name", "seconds"])
        for k in sorted(report.timings):
            w.writerow([k, f"{report.timings[k]:.3f}"])
    w.writerow(["# overall", report.overall])
    return buf.getvalue().encode()


def _render_md(report: Report) -> bytes:
    lines = [f"# {report.tool} report", ""]
    cfg = json.dumps(report.config, sort_keys=True)
    lines += [f"- version: {report.version}", f"- config: `{cfg}`",
              f"- overall: **{report.overall}**", ""]
    if report.checks:
        lines += ["| check | status | expected | got |",
                  "| --- | --- | --- | --- |"]
        for c in report.checks:
            lines.append(f"| {c.name} | {c.status} | {c.expected} | {c.got} |")
        lines.append("")
    for name in sorted(report.tables):
        t = report.tables[name]
        lines.append(f"## {name}")
        lines.append("| " + " | ".join(t["columns"]) + " |")
        lines.append("|" + "---|" * len(t["columns"]))
        for row in t["rows"]:
            lines.append("| " + " | ".join(str(x) for x in row) + " |")
        lines.append("")
    if report.payload:
        lines += ["## payload", "```json",
                  json.dumps(report.payload, sort_keys=True, indent=2, default=str), "```", ""]
    if report.timings is not None:
        lines.append("## timings")
        for k in sorted(report.timings):
            lines.append(f"- {k}: {report.timings[k]:.3f}s")
        lines.append("")
    return ("\n".join(lines)).encode()
