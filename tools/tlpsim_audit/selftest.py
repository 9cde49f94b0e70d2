"""Negative self-tests: every checker must catch its seeded violation.

A linter that silently stops matching is worse than no linter — CI
goes green while the property it guarded erodes. This module embeds,
for each checker, one fixture carrying deliberate violations and one
clean fixture, writes them into a throwaway source tree, runs the real
CLI driver in-process on it, and asserts:

  * the violation run exits 1 under --werror,
  * the output holds exactly the expected findings, each rendered in
    full as `file:line: error: [check] message` — the text a developer
    and the CI log read (lines are resolved from markers in the fixture
    text, so fixtures can be edited without recounting),
  * the clean run exits 0 with no findings,
  * waiver syntax suppresses a finding, a finding that is not waivable
    stands on a waived line, and waiver hygiene (unknown check, missing
    reason) is itself enforced.

Run as:  python3 -m tools.tlpsim_audit.selftest [--only SUBSTR] [-v]

Exit status: 0 all fixtures behave, 1 any assertion failed.
"""

import argparse
import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

from .__main__ import main as audit_main

DETERMINISM_BAD = """\
#include <cstdlib>
#include <map>
#include <unordered_map>

namespace fixture
{

std::unordered_map<int, int> table;
std::map<char *, int> by_ptr;

int
tick()
{
    int sum = 0;
    for (auto &kv : table) {
        sum += kv.second;
    }
    return sum + rand();
}

} // namespace fixture
"""

DETERMINISM_GOOD = """\
#include <map>

namespace fixture
{

std::map<int, int> table;

int
tick()
{
    int sum = 0;
    for (auto &kv : table) {
        sum += kv.second;
    }
    return sum;
}

} // namespace fixture
"""

DETERMINISM_WAIVED = """\
#include <cstdlib>

namespace fixture
{

int
tick()
{
    // tlpsim:waive(determinism) fixture: exercising waiver syntax
    return rand();
}

} // namespace fixture
"""

WAIVER_HYGIENE = """\
namespace fixture
{

// tlpsim:waive(bogus) no such check exists
int a = 1;

// tlpsim:waive(determinism)
int b = 2;

} // namespace fixture
"""

LAYERING_UTIL_BAD = """\
#ifndef FIXTURE_COMMON_UTIL_HH
#define FIXTURE_COMMON_UTIL_HH

#include "sim/runner.hh"

#endif
"""

LAYERING_RUNNER = """\
#ifndef FIXTURE_SIM_RUNNER_HH
#define FIXTURE_SIM_RUNNER_HH

inline int run() { return 0; }

#endif
"""

LAYERING_UTIL_GOOD = """\
#ifndef FIXTURE_COMMON_UTIL_HH
#define FIXTURE_COMMON_UTIL_HH

inline int util() { return 0; }

#endif
"""

LAYERING_RUNNER_GOOD = """\
#ifndef FIXTURE_SIM_RUNNER_HH
#define FIXTURE_SIM_RUNNER_HH

#include "common/util.hh"

inline int run() { return util(); }

#endif
"""

SCHEMA_HH = """\
#ifndef FIXTURE_PREFETCH_THING_HH
#define FIXTURE_PREFETCH_THING_HH

class ThingPrefetcher
{
  public:
    struct Params
    {
        unsigned degree = 1;
        unsigned stride = 4;
        unsigned hidden = 7;
    };

    explicit ThingPrefetcher(const Params &p) : degree_(p.degree) {}

  private:
    unsigned degree_;
};

#endif
"""

SCHEMA_CC_BAD = """\
#include "prefetch/thing.hh"

void
registerThing()
{
    using P = ThingPrefetcher::Params;
    static const ParamSchema<P> schema{
        {"degree", &P::degree, "lines ahead"},
        {"stride", &P::stride, "line stride"},
    };
    PrefetcherRegistry::instance().add(
        "thing", schema, [](const Config &cfg) {
            return std::make_unique<ThingPrefetcher>(schema.parse(cfg));
        });
}
"""

SCHEMA_CC_UNBOUND = """\
#include "prefetch/thing.hh"

void
registerLoose()
{
    PrefetcherRegistry::instance().add(
        "loose", looseKnobs(), [](const Config &cfg) {
            return std::make_unique<ThingPrefetcher>(looseParams(cfg));
        });
}
"""

SCHEMA_HH_GOOD = """\
#ifndef FIXTURE_PREFETCH_THING_HH
#define FIXTURE_PREFETCH_THING_HH

class ThingPrefetcher
{
  public:
    struct Params
    {
        unsigned degree = 1;
    };

    explicit ThingPrefetcher(const Params &p) : degree_(p.degree) {}

  private:
    unsigned degree_;
};

#endif
"""

SCHEMA_CC_GOOD = """\
#include "prefetch/thing.hh"

void
registerThing()
{
    static const ParamSchema<ThingPrefetcher::Params> schema{
        {"degree", &ThingPrefetcher::Params::degree, "lines ahead"},
    };
    PrefetcherRegistry::instance().add(
        "thing", schema, [](const Config &cfg) {
            return std::make_unique<ThingPrefetcher>(schema.parse(cfg));
        });
}
"""

RESET_HH_BAD = """\
#ifndef FIXTURE_PREFETCH_THING_HH
#define FIXTURE_PREFETCH_THING_HH

class ThingPrefetcher
{
  public:
    ThingPrefetcher() : armed_(false) {}

    struct Entry
    {
        int age;
        bool valid = false;
    };

  private:
    unsigned count_;
    unsigned ok_ = 0;
    bool armed_;
};

#endif
"""

RESET_HH_GOOD = """\
#ifndef FIXTURE_PREFETCH_THING_HH
#define FIXTURE_PREFETCH_THING_HH

class ThingPrefetcher
{
  public:
    ThingPrefetcher() : armed_(false) {}

    struct Entry
    {
        int age = 0;
        bool valid = false;
    };

  private:
    unsigned count_ = 0;
    bool armed_;
};

#endif
"""

RESET_CC = """\
#include "prefetch/thing.hh"

void
registerThing()
{
    PrefetcherRegistry::instance().add(
        "thing", thingKnobs(), [](const Config &cfg) {
            return std::make_unique<ThingPrefetcher>();
        });
}
"""

HOTPATH_BAD = """\
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace fixture
{

std::vector<int> pool;

// tlpsim:hot
int
tick(int cycle)
{
    auto *fresh = new int(cycle);
    auto owned = std::make_unique<int>(cycle);
    std::function<int()> later = [cycle] { return cycle; };
    std::map<int, int> seen;
    std::string label = std::to_string(cycle);
    pool.push_back(cycle);
    pool.push_back(*fresh);   // tlpsim:waive(hotpath) capacity reserved
    auto *sneaky = new int(1);   // tlpsim:waive(hotpath) only growth waives
    int n = 400'000; int *p = new int(n);
    return *owned + later() + *sneaky + *p;
}
// tlpsim:endhot

} // namespace fixture
"""

HOTPATH_MARKERS = """\
// tlpsim:endhot stray
// tlpsim:hot outer
// tlpsim:hot inner
inline int drain() { return 0; }
// tlpsim:endhot
// tlpsim:hot left open
inline int idle() { return 0; }
"""

HOTPATH_GOOD = """\
#include <vector>

namespace fixture
{

std::vector<int> pool;

void
setUp()
{
    pool.reserve(64);
    int *scratch = new int(0);
    delete scratch;
}

// tlpsim:hot
const char *
tick(int cycle)
{
    // a comment may name new or std::function freely
    // tlpsim:waive(hotpath) capacity reserved in setUp
    pool.push_back(cycle);
    return "new std::string(label)";
}
// tlpsim:endhot

} // namespace fixture
"""

LAYERING_HOT_CORE = """\
#include "sim/runner.hh"

// tlpsim:hot
int step() { return run(); }
// tlpsim:endhot
"""


def _line_with(content, marker):
    for i, line in enumerate(content.splitlines(), start=1):
        if marker in line:
            return i
    raise AssertionError(f"fixture marker {marker!r} not found")


GROWTH = ("container growth in hot region (waive with "
          "`// tlpsim:waive(hotpath) <reason>` once capacity is reserved "
          "or pooled)")

# Each fixture: files are written under a throwaway root, and the CLI
# driver runs with --werror on `checks`. `expect` rows are (file, line-marker, rendered
# finding): the marker's first occurrence resolves the line number, and
# the output must hold exactly the lines "file:line: rendered finding",
# no finding more.
FIXTURES = [
    {
        "name": "determinism-violation",
        "checks": "determinism",
        "files": {
            "src/core/clock_use.cc": DETERMINISM_BAD,
        },
        "expect": [
            ("src/core/clock_use.cc", "std::map<char *, int>",
             "error: [determinism] pointer-keyed ordered container: "
             "iteration order follows allocation addresses, which ASLR "
             "reshuffles per run; key by a stable id instead"),
            ("src/core/clock_use.cc", "for (auto &kv : table)",
             "error: [determinism] iteration over unordered container "
             "'table': bucket order is not deterministic; iterate a "
             "sorted snapshot, or waive if provably order-insensitive"),
            ("src/core/clock_use.cc", "return sum + rand();",
             "error: [determinism] rand()/srand() is seeded per-process; "
             "use common/rng.hh"),
        ],
        "exit": 1,
    },
    {
        "name": "determinism-clean",
        "checks": "determinism",
        "files": {
            "src/core/clock_use.cc": DETERMINISM_GOOD,
        },
        "expect": [],
        "exit": 0,
    },
    {
        "name": "determinism-waived",
        "checks": "determinism",
        "args": ["--show-waived"],
        "files": {
            "src/core/clock_use.cc": DETERMINISM_WAIVED,
        },
        "expect": [
            ("src/core/clock_use.cc", "return rand();",
             "waived: [determinism] rand()/srand() is seeded per-process; "
             "use common/rng.hh"),
        ],
        "exit": 0,
    },
    {
        "name": "waiver-hygiene",
        "checks": "determinism",
        "files": {
            "src/core/waivers.cc": WAIVER_HYGIENE,
        },
        "expect": [
            ("src/core/waivers.cc", "tlpsim:waive(bogus)",
             "error: [waiver] waiver names unknown check 'bogus' (known: "
             "determinism, layering, schema, reset, hotpath)"),
            ("src/core/waivers.cc", "// tlpsim:waive(determinism)",
             "error: [waiver] waiver for 'determinism' carries no reason; "
             "write `// tlpsim:waive(determinism) <why>`"),
        ],
        "exit": 1,
    },
    {
        "name": "layering-violation",
        "checks": "layering",
        "files": {
            "src/common/util.hh": LAYERING_UTIL_BAD,
            "src/sim/runner.hh": LAYERING_RUNNER,
            "src/core/step.cc": LAYERING_HOT_CORE,
        },
        "expect": [
            ("src/common/util.hh", '#include "sim/runner.hh"',
             "error: [layering] module 'common' may not include "
             "'sim/runner.hh': declared deps are {none}; either invert "
             "the dependency or widen the DAG deliberately in "
             "layering.ALLOWED"),
            # A hot region may reach only the simulation modules.
            ("src/core/step.cc", '#include "sim/runner.hh"',
             "error: [layering] module 'core' may not include "
             "'sim/runner.hh': declared deps are {common, mem, offchip, "
             "tlb, trace}; either invert the dependency or widen the DAG "
             "deliberately in layering.ALLOWED"),
        ],
        "exit": 1,
    },
    {
        "name": "layering-clean",
        "checks": "layering",
        "files": {
            "src/common/util.hh": LAYERING_UTIL_GOOD,
            "src/sim/runner.hh": LAYERING_RUNNER_GOOD,
        },
        "expect": [],
        "exit": 0,
    },
    {
        "name": "schema-violation",
        "checks": "schema",
        "files": {
            "src/prefetch/thing.hh": SCHEMA_HH,
            "src/prefetch/thing.cc": SCHEMA_CC_BAD,
            "src/prefetch/loose.cc": SCHEMA_CC_UNBOUND,
        },
        "expect": [
            ("src/prefetch/thing.hh", "struct Params",
             "error: [schema] component 'thing': "
             "ThingPrefetcher::Params.hidden has no bound knob; it cannot "
             "be swept and is invisible to --knobs (bind it, or waive "
             "with the reason it must stay internal)"),
            ("src/prefetch/loose.cc", "PrefetcherRegistry::instance()",
             "error: [schema] component 'loose': no "
             "ParamSchema<...::Params> in this translation unit; bind the "
             "knobs to the Params fields next to the registration so they "
             "can be audited"),
        ],
        "exit": 1,
    },
    {
        "name": "schema-clean",
        "checks": "schema",
        "files": {
            "src/prefetch/thing.hh": SCHEMA_HH_GOOD,
            "src/prefetch/thing.cc": SCHEMA_CC_GOOD,
        },
        "expect": [],
        "exit": 0,
    },
    {
        "name": "reset-violation",
        "checks": "reset",
        "files": {
            "src/prefetch/thing.hh": RESET_HH_BAD,
            "src/prefetch/thing.cc": RESET_CC,
        },
        "expect": [
            ("src/prefetch/thing.hh", "unsigned count_;",
             "error: [reset] ThingPrefetcher::count_ (unsigned) has no "
             "NSDMI and appears in no constructor init list; a rebuilt "
             "component would start from stale memory (built by the "
             "registry at src/prefetch/thing.cc:"
             f"{_line_with(RESET_CC, 'make_unique<ThingPrefetcher>')})"),
            ("src/prefetch/thing.hh", "int age;",
             "error: [reset] ThingPrefetcher::Entry::age (int) has no "
             "NSDMI; pooled entries are reset by assignment, so an "
             "uninitialized field resurrects stale state on reuse"),
        ],
        "exit": 1,
    },
    {
        "name": "reset-clean",
        "checks": "reset",
        "files": {
            "src/prefetch/thing.hh": RESET_HH_GOOD,
            "src/prefetch/thing.cc": RESET_CC,
        },
        "expect": [],
        "exit": 0,
    },
    {
        "name": "hotpath-violation",
        "checks": "hotpath",
        "args": ["--show-waived"],
        "files": {
            "src/core/step.cc": HOTPATH_BAD,
            "src/mem/markers.hh": HOTPATH_MARKERS,
        },
        "expect": [
            ("src/core/step.cc", "new int(cycle)",
             "error: [hotpath] operator new in hot region"),
            ("src/core/step.cc", "make_unique",
             "error: [hotpath] heap allocation (make_unique/make_shared) "
             "in hot region"),
            ("src/core/step.cc", "std::function<int()>",
             "error: [hotpath] std::function in hot region (use a direct "
             "virtual interface)"),
            ("src/core/step.cc", "std::map<int, int> seen",
             "error: [hotpath] node-based container in hot region (use "
             "FlatTable/Ring/vector)"),
            ("src/core/step.cc", "std::to_string",
             "error: [hotpath] string construction in hot region"),
            ("src/core/step.cc", "pool.push_back(cycle)",
             f"error: [hotpath] {GROWTH}"),
            ("src/core/step.cc", "pool.push_back(*fresh)",
             f"waived: [hotpath] {GROWTH}"),
            ("src/core/step.cc", "new int(1)",
             "error: [hotpath] operator new in hot region"),
            ("src/core/step.cc", "400'000",
             "error: [hotpath] operator new in hot region"),
            ("src/mem/markers.hh", "stray",
             "error: [hotpath] `tlpsim:endhot` without a matching "
             "`tlpsim:hot`"),
            ("src/mem/markers.hh", "inner",
             "error: [hotpath] nested `tlpsim:hot` (previous region "
             f"opened at line {_line_with(HOTPATH_MARKERS, 'outer')})"),
            ("src/mem/markers.hh", "left open",
             "error: [hotpath] `tlpsim:hot` region never closed with "
             "`tlpsim:endhot`"),
        ],
        "exit": 1,
    },
    {
        "name": "hotpath-clean",
        "checks": "hotpath",
        "files": {
            "src/core/step.cc": HOTPATH_GOOD,
        },
        "expect": [],
        "exit": 0,
    },
]

FINDING_RE = re.compile(r"^\S+:\d+: (?:error|waived): \[")


def materialize(fixture, root):
    """Write the fixture's files under @p root."""
    for rel, content in fixture["files"].items():
        path = Path(root) / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")


def run_fixture(fixture):
    """Run the CLI driver on @p fixture. Returns (exit, output)."""
    with tempfile.TemporaryDirectory(prefix="tlpsim_audit_") as tmp:
        materialize(fixture, tmp)
        argv = ["--root", tmp, "--checks", fixture["checks"], "--werror"]
        argv += fixture.get("args", [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            code = audit_main(argv)
        return code, out.getvalue()


def check_fixture(fixture, verbose=False):
    """Run + assert one fixture. Returns a list of failure strings."""
    code, output = run_fixture(fixture)
    name = fixture["name"]
    failures = []
    if code != fixture["exit"]:
        failures.append(f"{name}: exit {code}, expected {fixture['exit']}")
    wanted = [f"{rel}:{_line_with(fixture['files'][rel], marker)}: {text}"
              for rel, marker, text in fixture["expect"]]
    found = [ln for ln in output.splitlines() if FINDING_RE.match(ln)]
    failures += [f"{name}: missing finding: {want}" for want in wanted
                 if want not in found]
    failures += [f"{name}: unexpected finding: {ln}" for ln in found
                 if ln not in wanted]
    if verbose or failures:
        sys.stderr.write(f"--- {fixture['name']} (exit {code}) ---\n")
        sys.stderr.write(output if output.endswith("\n")
                         else output + "\n")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tlpsim-audit selftest",
        description="seeded-violation self-tests for every checker")
    parser.add_argument("--only", default="",
                        help="run fixtures whose name contains this")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print each fixture's audit output")
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args(argv)

    selected = [f for f in FIXTURES if args.only in f["name"]]
    if args.list:
        for f in selected:
            print(f["name"])
        return 0
    if not selected:
        print(f"selftest: no fixture matches {args.only!r}",
              file=sys.stderr)
        return 1

    failures = []
    for fixture in selected:
        failures.extend(check_fixture(fixture, args.verbose))

    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        print(f"selftest: {len(failures)} assertion(s) failed over "
              f"{len(selected)} fixture(s)", file=sys.stderr)
        return 1
    print(f"selftest: {len(selected)} fixture(s) ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
