"""layering — enforce the module include DAG.

A future sharded simulator gets carved along module boundaries, which
only works while the boundaries are real. This checker enforces the
declared DAG over `#include "module/..."` edges:

    common <- {mem, trace, tlb, store}
           <- {prefetch, tracefile}
           <- {cache, offchip, workloads}
           <- {filter, core}
           <- sim
           <- cli

(ALLOWED below is the authoritative edge set; store is a leaf on
common that sim and cli may use — the Runner persists through it.)
Upward or sideways includes and modules absent from the DAG are
findings; the declared DAG itself is verified acyclic on every run, so
nobody can "fix" a finding by declaring a cycle.

That every header compiles on its own is the build's check, not this
one's: CMakeLists.txt compiles one generated translation unit per
header (target tlpsim_header_check).
"""

import re

from ..findings import Finding, Report

CHECK = "layering"

# module -> modules it may include (its own module is always allowed).
ALLOWED = {
    "common": set(),
    "mem": {"common"},
    "trace": {"common"},
    "tlb": {"common"},
    "store": {"common"},
    "prefetch": {"common", "mem"},
    "cache": {"common", "mem", "prefetch"},
    "offchip": {"common", "mem", "prefetch"},
    "filter": {"common", "mem", "prefetch", "offchip"},
    "tracefile": {"common", "trace"},
    "workloads": {"common", "trace", "tracefile"},
    "core": {"common", "mem", "offchip", "tlb", "trace"},
    "sim": {"common", "cache", "core", "filter", "mem", "offchip",
            "prefetch", "store", "tlb", "trace", "tracefile",
            "workloads"},
    "cli": {"common", "cache", "core", "filter", "mem", "offchip",
            "prefetch", "sim", "store", "tlb", "trace", "tracefile",
            "workloads"},
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def _assert_acyclic():
    """Defensive: the *declared* DAG must itself be a DAG."""
    state = {}

    def visit(node, stack):
        state[node] = "visiting"
        for dep in ALLOWED.get(node, ()):
            if state.get(dep) == "visiting":
                raise AssertionError(
                    f"layering: declared module graph has a cycle "
                    f"through {' -> '.join(stack + [node, dep])}")
            if dep not in state:
                visit(dep, stack + [node])
        state[node] = "done"

    for node in ALLOWED:
        if node not in state:
            visit(node, [])


def _module_of(rel):
    parts = rel.split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


def _check_includes(files, report):
    for rel, sf in sorted(files.items()):
        module = _module_of(rel)
        if module is None:
            continue
        if module not in ALLOWED:
            report.add(Finding(
                CHECK, rel, 1,
                f"module '{module}' is not in the declared DAG; add it "
                f"to layering.ALLOWED with its permitted dependencies"))
            continue
        for lineno, code in enumerate(sf.keep_lines, start=1):
            m = INCLUDE_RE.match(code)
            if not m or "/" not in m.group(1):
                continue
            target = m.group(1).split("/")[0]
            if target == module or target in ALLOWED[module]:
                continue
            if target not in ALLOWED:
                report.add(Finding(
                    CHECK, rel, lineno,
                    f"include of unknown module '{target}' "
                    f"(not in the declared DAG)"))
            else:
                report.add(Finding(
                    CHECK, rel, lineno,
                    f"module '{module}' may not include "
                    f"'{m.group(1)}': declared deps are "
                    f"{{{', '.join(sorted(ALLOWED[module])) or 'none'}}}"
                    f"; either invert the dependency or widen the DAG "
                    f"deliberately in layering.ALLOWED"))


def run(files):
    _assert_acyclic()
    report = Report()
    _check_includes(files, report)
    return report
