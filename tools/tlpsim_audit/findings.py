"""Finding model, waiver application, and report rendering."""

import json
from dataclasses import dataclass, field


@dataclass
class Finding:
    """One checker verdict, anchored to a file and line.

    `file` is repo-root-relative so output and JSON are stable across
    checkouts; `line` is 1-based. `waived` findings are kept (they feed
    the JSON report and the waiver-hygiene summary) but do not fail the
    run.
    """

    check: str
    file: str
    line: int
    message: str
    waived: bool = False
    waive_reason: str = ""

    def key(self):
        return (self.file, self.line, self.check, self.message)


@dataclass
class Report:
    findings: list = field(default_factory=list)
    # Checker-specific context for machine consumers (component lists,
    # header counts, ...).
    summary: dict = field(default_factory=dict)

    def add(self, finding):
        self.findings.append(finding)

    def extend(self, other):
        self.findings.extend(other.findings)
        self.summary.update(other.summary)

    def active(self):
        return [f for f in self.findings if not f.waived]

    def waived(self):
        return [f for f in self.findings if f.waived]

    def sort(self):
        self.findings.sort(key=Finding.key)


def apply_waivers(findings, waivers_by_file):
    """Mark findings covered by a `tlpsim:waive(<check>)` comment.

    @p waivers_by_file maps root-relative path -> {line: [(check,
    reason)]}, where `line` is the line the waiver covers (the waiver's
    own line, and — for a comment-only line — the next code line; see
    source.SourceFile.waivers).
    """
    for f in findings:
        for check, reason in waivers_by_file.get(f.file, {}).get(f.line, []):
            if check == f.check:
                f.waived = True
                f.waive_reason = reason
    return findings


def render_text(report, show_waived=False):
    lines = []
    for f in report.findings:
        if f.waived and not show_waived:
            continue
        tag = "waived" if f.waived else "error"
        lines.append(f"{f.file}:{f.line}: {tag}: [{f.check}] {f.message}")
    return "\n".join(lines)


def render_json(report, checks_run):
    return json.dumps(
        {
            "version": 1,
            "checks": list(checks_run),
            "findings": [
                {
                    "check": f.check,
                    "file": f.file,
                    "line": f.line,
                    "message": f.message,
                    "waived": f.waived,
                    "waive_reason": f.waive_reason,
                }
                for f in report.findings
            ],
            "summary": report.summary,
        },
        indent=2,
        sort_keys=True,
    )
