"""Negative self-tests: every checker must catch its seeded violation.

A linter that silently stops matching is worse than no linter — CI
goes green while the property it guarded erodes. This module embeds,
for each checker, one fixture carrying deliberate violations and one
clean fixture, materializes them into a throwaway project (sources +
compilation database), runs the real CLI driver in-process, and
asserts:

  * the violation run exits 1 under --werror,
  * each expected finding names the exact file and line (lines are
    resolved from markers in the fixture text, so fixtures can be
    edited without recounting),
  * the clean run exits 0 with no findings,
  * waiver syntax suppresses a finding, and waiver hygiene (unknown
    check, missing reason) is itself enforced.

Run as:  python3 -m tools.tlpsim_audit.selftest [--only SUBSTR] [-v]

Exit status: 0 all fixtures behave, 1 any assertion failed.
"""

import argparse
import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from .__main__ import main as audit_main

ANCHOR_CC = "int fixture_anchor() { return 0; }\n"

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

LAYERING_BROKEN = """\
#ifndef FIXTURE_MEM_BROKEN_HH
#define FIXTURE_MEM_BROKEN_HH

inline unsigned long widthOf() { return sizeof(Widget); }

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

# Each fixture: files are materialized under a throwaway root, every
# .cc gets a compilation-database entry, the CLI driver runs with
# --werror on `checks`. `expect` rows are (file, line-marker, finding
# substring): the marker's first occurrence resolves the line number
# the finding must carry. `forbid` substrings must not appear at all.
FIXTURES = [
    {
        "name": "determinism-violation",
        "checks": "determinism",
        "files": {
            "src/core/clock_use.cc": DETERMINISM_BAD,
        },
        "expect": [
            ("src/core/clock_use.cc", "std::map<char *, int>",
             "pointer-keyed ordered container"),
            ("src/core/clock_use.cc", "for (auto &kv : table)",
             "unordered container 'table'"),
            ("src/core/clock_use.cc", "return sum + rand();",
             "rand()/srand() is seeded per-process"),
        ],
        "exit": 1,
        "json": True,
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
             "waived: [determinism]"),
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
             "unknown check 'bogus'"),
            ("src/core/waivers.cc", "// tlpsim:waive(determinism)",
             "carries no reason"),
        ],
        "exit": 1,
    },
    {
        "name": "layering-violation",
        "checks": "layering",
        "files": {
            "src/common/anchor.cc": ANCHOR_CC,
            "src/common/util.hh": LAYERING_UTIL_BAD,
            "src/sim/runner.hh": LAYERING_RUNNER,
            "src/mem/broken.hh": LAYERING_BROKEN,
        },
        "expect": [
            ("src/common/util.hh", '#include "sim/runner.hh"',
             "module 'common' may not include 'sim/runner.hh'"),
            ("src/mem/broken.hh", "sizeof(Widget)",
             "header is not self-contained"),
        ],
        "exit": 1,
    },
    {
        "name": "layering-clean",
        "checks": "layering",
        "files": {
            "src/common/anchor.cc": ANCHOR_CC,
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
             "Params.hidden has no bound knob"),
            ("src/prefetch/loose.cc", "PrefetcherRegistry::instance()",
             "component 'loose': no ParamSchema"),
        ],
        "forbid": ["Params.degree", "Params.stride"],
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
             "no NSDMI and appears in no constructor init list"),
            ("src/prefetch/thing.hh", "int age;",
             "pooled entries are reset by assignment"),
        ],
        "forbid": ["armed_", "ok_", "valid"],
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
]


def _compiler():
    for cxx in ("c++", "g++", "clang++"):
        path = shutil.which(cxx)
        if path:
            return path
    raise SystemExit("tlpsim-audit selftest: no C++ compiler on PATH "
                     "(need one for the self-contained-header check)")


def _line_with(content, marker):
    for i, line in enumerate(content.splitlines(), start=1):
        if marker in line:
            return i
    raise AssertionError(f"fixture marker {marker!r} not found")


def materialize(fixture, root, cxx):
    """Write fixture files + a compilation database under @p root."""
    root = Path(root)
    for rel, content in fixture["files"].items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    entries = [
        {
            "directory": str(root),
            "file": rel,
            "command": f"{cxx} -std=c++20 -I src -c {rel}",
        }
        for rel in fixture["files"]
        if rel.endswith(".cc")
    ]
    compdb = root / "compile_commands.json"
    compdb.write_text(json.dumps(entries, indent=2), encoding="utf-8")
    return compdb


def run_fixture(fixture, cxx=None):
    """Run the CLI driver on @p fixture. Returns (exit, output)."""
    cxx = cxx or _compiler()
    with tempfile.TemporaryDirectory(prefix="tlpsim_audit_") as tmp:
        compdb = materialize(fixture, tmp, cxx)
        argv = ["--compdb", str(compdb), "--root", tmp,
                "--checks", fixture["checks"], "--werror"]
        argv += fixture.get("args", [])
        if fixture.get("json"):
            argv += ["--json", str(Path(tmp) / "report.json")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            code = audit_main(argv)
        output = out.getvalue()
        if fixture.get("json"):
            report = json.loads(
                (Path(tmp) / "report.json").read_text(encoding="utf-8"))
            for key in ("version", "checks", "findings", "summary"):
                assert key in report, \
                    f"JSON report missing key {key!r}"
        return code, output


def check_fixture(fixture, cxx, verbose=False):
    """Run + assert one fixture. Returns a list of failure strings."""
    code, output = run_fixture(fixture, cxx)
    failures = []
    if code != fixture["exit"]:
        failures.append(
            f"{fixture['name']}: exit {code}, expected "
            f"{fixture['exit']}")
    for rel, marker, substring in fixture["expect"]:
        line = _line_with(fixture["files"][rel], marker)
        hit = any(f"{rel}:{line}:" in ln and substring in ln
                  for ln in output.splitlines())
        if not hit:
            failures.append(
                f"{fixture['name']}: no finding at {rel}:{line} "
                f"containing {substring!r}")
    if not fixture["expect"]:
        active = [ln for ln in output.splitlines()
                  if ": error: [" in ln]
        if active:
            failures.append(
                f"{fixture['name']}: expected clean, found: "
                f"{'; '.join(active)}")
    for substring in fixture.get("forbid", ()):
        for ln in output.splitlines():
            if ": error: [" in ln and substring in ln:
                failures.append(
                    f"{fixture['name']}: forbidden {substring!r} "
                    f"in: {ln.strip()}")
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

    cxx = _compiler()
    failures = []
    for fixture in selected:
        failures.extend(check_fixture(fixture, cxx, args.verbose))

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
