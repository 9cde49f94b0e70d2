"""Finding model, waiver application, and report rendering."""

from dataclasses import dataclass, field


@dataclass
class Finding:
    """One checker verdict, anchored to a file and line.

    `file` is repo-root-relative so output is stable across checkouts;
    `line` is 1-based. `waived` findings are kept (--show-waived prints
    them) but do not fail the run. A finding that is not `waivable`
    stands even on a line that carries a waiver for its check.
    """

    check: str
    file: str
    line: int
    message: str
    waivable: bool = True
    waived: bool = False

    def key(self):
        return (self.file, self.line, self.check, self.message)


@dataclass
class Report:
    findings: list = field(default_factory=list)

    def add(self, finding):
        self.findings.append(finding)

    def extend(self, other):
        self.findings.extend(other.findings)

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
        for check, _ in waivers_by_file.get(f.file, {}).get(f.line, []):
            if check == f.check and f.waivable:
                f.waived = True
    return findings


def render_text(report, show_waived=False):
    lines = []
    for f in report.findings:
        if f.waived and not show_waived:
            continue
        tag = "waived" if f.waived else "error"
        lines.append(f"{f.file}:{f.line}: {tag}: [{f.check}] {f.message}")
    return "\n".join(lines)

