"""CLI driver: load every source file under src/, run checkers, report.

    python3 -m tools.tlpsim_audit [--root DIR]
        [--checks determinism,layering,schema,reset,hotpath]
        [--werror] [--show-waived] [--list-checks]

Exit status: 0 clean (or findings without --werror — they still
print), 1 findings under --werror, 2 usage/environment errors.
"""

import argparse
import sys
from pathlib import Path

from . import CHECKS
from .checks import CHECKERS
from .findings import Finding, Report, apply_waivers, render_text
from .source import SourceFile

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_sources(root):
    """{root-relative POSIX path: SourceFile} for every .cc/.hh under
    root/src, in path order."""
    paths = sorted(p for suffix in (".cc", ".hh")
                   for p in (root / "src").rglob(f"*{suffix}"))
    return {p.relative_to(root).as_posix(): SourceFile(p) for p in paths}


def waiver_hygiene(files):
    """Reason-less waivers and waivers naming unknown checks are
    findings themselves — the audit trail must stay meaningful."""
    report = Report()
    for rel, sf in sorted(files.items()):
        for line, entries in sorted(sf.waivers.items()):
            for check, reason in entries:
                # Each waiver is recorded on its own line and possibly
                # echoed onto the next code line; only report the
                # declaration site.
                if "tlpsim:waive" not in (sf.lines[line - 1]
                                          if line <= len(sf.lines)
                                          else ""):
                    continue
                if check not in CHECKS:
                    report.add(Finding(
                        "waiver", rel, line,
                        f"waiver names unknown check '{check}' "
                        f"(known: {', '.join(CHECKS)})"))
                elif not reason.strip():
                    report.add(Finding(
                        "waiver", rel, line,
                        f"waiver for '{check}' carries no reason; "
                        f"write `// tlpsim:waive({check}) <why>`"))
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tlpsim-audit",
        description="semantic static analysis for tlpsim "
                    "(determinism, layering, schema-drift, reset, "
                    "hotpath)")
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="directory holding src/ (default: the "
                             "repository this tool lives in)")
    parser.add_argument("--checks", default=",".join(CHECKS),
                        help="comma-separated subset of: "
                             + ", ".join(CHECKS))
    parser.add_argument("--werror", action="store_true",
                        help="exit 1 when any unwaived finding remains")
    parser.add_argument("--show-waived", action="store_true",
                        help="print waived findings too")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args(argv)

    if args.list_checks:
        for c in CHECKS:
            print(c)
        return 0

    selected = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in selected if c not in CHECKERS]
    if unknown:
        print(f"tlpsim-audit: unknown check(s): {', '.join(unknown)} "
              f"(known: {', '.join(CHECKS)})", file=sys.stderr)
        return 2

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"tlpsim-audit: no src/ directory under {root}",
              file=sys.stderr)
        return 2
    files = load_sources(root)

    report = Report()
    for check in selected:
        report.extend(CHECKERS[check](files))
    report.extend(waiver_hygiene(files))

    waivers_by_file = {rel: sf.waivers for rel, sf in files.items()}
    apply_waivers(report.findings, waivers_by_file)
    report.sort()

    text = render_text(report, show_waived=args.show_waived)
    if text:
        print(text)

    active, waived = report.active(), report.waived()
    print(f"tlpsim-audit: {len(active)} finding(s), "
          f"{len(waived)} waived, checks: {', '.join(selected)}",
          file=sys.stderr)
    if active and args.werror:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
