"""hotpath — ban allocation constructs on the per-cycle path.

TLP's FLP and SLP consult and train a perceptron on every load and on
every L1D prefetch candidate, so that code runs millions of times per
design point and must not touch the allocator. Per-cycle code is
bracketed by `// tlpsim:hot` and `// tlpsim:endhot` comments; inside a
region this checker bans:

  * `new` / `make_unique` / `make_shared`;
  * `std::function` (type-erased callables allocate and call
    indirectly; the simulator uses direct virtual interfaces);
  * node-based containers (`std::deque`, `std::map`, `std::list`, ...);
  * string construction (`std::string(...)`, `std::to_string`,
    string streams);
  * container growth (`push_back` / `emplace_back` / `resize` /
    `reserve` / `insert` / `emplace`).

Only container growth can be waived, with
`// tlpsim:waive(hotpath) <reason>` asserting that the container's
capacity is reserved up front or recycled (a Ring, a pooled vector);
every other finding of this check stands even on a waived line. An
unmatched `tlpsim:endhot`, a nested `tlpsim:hot` and a region never
closed are findings too, so a region cannot silently swallow the rest
of a file or never start.

Headers a hot region includes are not walked: layering's declared DAG
already keeps every module holding hot code to the simulation modules.
tests/test_hotpath_alloc.cpp is the dynamic twin: it counts allocations
per simulated cycle, including in helpers outside any region, while
this check also covers branches no test run takes.
"""

import re

from ..findings import Finding, Report

CHECK = "hotpath"

MARK_RE = re.compile(r"\btlpsim:(hot|endhot)\b")

# (regex over code-only text, message, waivable)
BANNED = [
    (re.compile(r"\bnew\b"), "operator new in hot region", False),
    (re.compile(r"\bmake_(unique|shared)\b"),
     "heap allocation (make_unique/make_shared) in hot region", False),
    (re.compile(r"\bstd::function\b"),
     "std::function in hot region (use a direct virtual interface)", False),
    (re.compile(r"\bstd::(deque|list|map|multimap|set|multiset"
                r"|unordered_map|unordered_set|unordered_multimap"
                r"|unordered_multiset)\b"),
     "node-based container in hot region (use FlatTable/Ring/vector)",
     False),
    (re.compile(r"\bstd::string\s*\(|\bstd::to_string\b"
                r"|\bostringstream\b|\bstringstream\b"),
     "string construction in hot region", False),
    (re.compile(r"\.(push_back|emplace_back|resize|reserve|insert"
                r"|emplace)\s*\("),
     "container growth in hot region (waive with "
     "`// tlpsim:waive(hotpath) <reason>` once capacity is reserved or "
     "pooled)", True),
]


def _scan(rel, sf, report):
    """Report banned constructs and marker errors in one file."""
    opened_at = 0  # line of the open region's marker; 0 outside
    for lineno, code in enumerate(sf.code_lines, start=1):
        mark = MARK_RE.search(sf.comment_lines[lineno - 1])
        if mark and mark.group(1) == "endhot":
            if not opened_at:
                report.add(Finding(
                    CHECK, rel, lineno,
                    "`tlpsim:endhot` without a matching `tlpsim:hot`",
                    waivable=False))
            opened_at = 0
            continue
        if mark:
            if opened_at:
                report.add(Finding(
                    CHECK, rel, lineno,
                    f"nested `tlpsim:hot` (previous region opened at "
                    f"line {opened_at})", waivable=False))
            opened_at = lineno
            continue
        if not opened_at:
            continue
        for pattern, message, waivable in BANNED:
            if pattern.search(code):
                report.add(Finding(CHECK, rel, lineno, message,
                                   waivable=waivable))
    if opened_at:
        report.add(Finding(
            CHECK, rel, opened_at,
            "`tlpsim:hot` region never closed with `tlpsim:endhot`",
            waivable=False))


def run(files):
    report = Report()
    for rel, sf in sorted(files.items()):
        _scan(rel, sf, report)
    return report
