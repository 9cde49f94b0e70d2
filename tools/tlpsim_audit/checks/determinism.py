"""determinism — ban nondeterminism sources in simulation code.

The paper's tables are only reproducible because every design point is
bit-identical across jobs, shards, and store resumes. This checker bans
the constructs that silently break that contract:

  * wall-clock and OS entropy reads: time()/clock()/gettimeofday/
    clock_gettime, system_clock/steady_clock/high_resolution_clock,
    rand()/srand/random_device, getrandom, /dev/urandom;
  * pointer-keyed ordered containers (std::map/set over T*): iteration
    order follows allocation addresses, which ASLR reshuffles per run;
  * iteration over std::unordered_map/unordered_set: bucket order is
    implementation- and size-history-dependent, so any result-affecting
    walk must go through a sorted snapshot instead.

Scope: every .cc/.hh under src/ except the non-simulation surfaces
(src/cli/, src/store/ — drivers and persistence tooling may read
clocks; the watchdog in src/common/ carries explicit waivers instead,
because it lives in a module simulation code links). Deterministic
seeded PRNGs (common/rng.hh, std::mt19937 with a fixed seed) are
allowed: the hazard is entropy, not pseudo-randomness.
"""

import re

from ..findings import Finding, Report

EXEMPT_PREFIXES = ("src/cli/", "src/store/")

CHECK = "determinism"

# (regex over code-only text, message)
BANNED = [
    (re.compile(r"\b(?:std\s*::\s*)?s?rand\s*\("),
     "rand()/srand() is seeded per-process; use common/rng.hh"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device reads OS entropy; use common/rng.hh with a "
     "fixed seed"),
    (re.compile(r"\b(?:system|steady|high_resolution)_clock\b"),
     "wall-clock read in simulation code; simulated time must come "
     "from the core's cycle counter"),
    (re.compile(r"\b(?:time|clock)\s*\(\s*(?:NULL|nullptr)?\s*\)"),
     "time()/clock() reads wall-clock time; simulated time must come "
     "from the core's cycle counter"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime|getrandom)\s*\("),
     "OS time/entropy syscall in simulation code"),
]

URANDOM_RE = re.compile(r"/dev/u?random")

PTR_KEYED_RE = re.compile(
    r"\bstd\s*::\s*(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?"
    r"[A-Za-z_][\w:]*\s*\*")

UNORDERED_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?unordered_(?:multi)?(?:map|set)\s*<")
# `unordered_map<...> name;` / `... name{...};` / `... name = ...;`
UNORDERED_NAME_RE = re.compile(r">\s*(\w+)\s*(?:[;{=(]|$)")

RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;]*?):([^;)]*)\)")


def _unordered_vars(code):
    """Names declared in this file with an unordered container type."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        # Walk the template argument list to its closing '>'.
        i = m.end() - 1
        depth = 0
        while i < len(code):
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        tail = code[i:i + 200]
        nm = UNORDERED_NAME_RE.match(tail)
        if nm:
            names.add(nm.group(1))
    return names


def run(files):
    report = Report()
    for rel, sf in sorted(files.items()):
        if not rel.startswith("src/"):
            continue
        if any(rel.startswith(p) for p in EXEMPT_PREFIXES):
            continue
        unordered = _unordered_vars(sf.code)
        for lineno, code in enumerate(sf.code_lines, start=1):
            raw = sf.lines[lineno - 1]
            for pattern, message in BANNED:
                if pattern.search(code):
                    report.add(Finding(CHECK, rel, lineno, message))
            if URANDOM_RE.search(raw):
                report.add(Finding(
                    CHECK, rel, lineno,
                    "/dev/(u)random read in simulation code"))
            if PTR_KEYED_RE.search(code):
                report.add(Finding(
                    CHECK, rel, lineno,
                    "pointer-keyed ordered container: iteration order "
                    "follows allocation addresses, which ASLR "
                    "reshuffles per run; key by a stable id instead"))
            for m in RANGE_FOR_RE.finditer(code):
                expr = m.group(2).strip().lstrip("&*").strip()
                root_var = re.split(r"[.\->\[(]", expr, maxsplit=1)[0] \
                    .strip()
                if root_var in unordered:
                    report.add(Finding(
                        CHECK, rel, lineno,
                        f"iteration over unordered container "
                        f"'{root_var}': bucket order is not "
                        f"deterministic; iterate a sorted snapshot, or "
                        f"waive if provably order-insensitive"))
            for name in unordered:
                if re.search(rf"\b{re.escape(name)}\s*\.\s*begin\s*\(",
                             code):
                    report.add(Finding(
                        CHECK, rel, lineno,
                        f"iterator walk over unordered container "
                        f"'{name}': bucket order is not deterministic; "
                        f"iterate a sorted snapshot, or waive if "
                        f"provably order-insensitive"))
    return report
