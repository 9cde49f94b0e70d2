#!/usr/bin/env python3
"""Golden-output tests for tlpsim-audit (ctest: test_audit, -L audit).

The selftest module (tools/tlpsim_audit/selftest.py) asserts that each
checker *finds* its seeded violation; this test pins down the rendered
finding text itself — the exact `file:line: error: [check] message`
lines a developer and the CI log will read. One passing and one
seeded-violation fixture per checker, plus the waiver fixture (the
`// tlpsim:waive(<check>) <reason>` syntax must keep suppressing, and
keep rendering as `waived:` under --show-waived).

Line numbers in the goldens are resolved from source markers in the
fixtures, so editing a fixture cannot silently desynchronize the
expected line.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tools.tlpsim_audit import selftest  # noqa: E402


def fixture(name):
    return next(f for f in selftest.FIXTURES if f["name"] == name)


def line_with(fx, rel, marker):
    return selftest._line_with(fx["files"][rel], marker)


def golden_cases():
    """[(fixture, expected_exit, [exact output lines])]."""
    cases = []

    fx = fixture("determinism-violation")
    rand_line = line_with(fx, "src/core/clock_use.cc",
                          "return sum + rand();")
    ptr_line = line_with(fx, "src/core/clock_use.cc",
                         "std::map<char *, int>")
    cases.append((fx, 1, [
        f"src/core/clock_use.cc:{rand_line}: error: [determinism] "
        f"rand()/srand() is seeded per-process; use common/rng.hh",
        f"src/core/clock_use.cc:{ptr_line}: error: [determinism] "
        f"pointer-keyed ordered container: iteration order follows "
        f"allocation addresses, which ASLR reshuffles per run; key by "
        f"a stable id instead",
    ]))
    cases.append((fixture("determinism-clean"), 0, []))

    fx = fixture("determinism-waived")
    waived_line = line_with(fx, "src/core/clock_use.cc",
                            "return rand();")
    cases.append((fx, 0, [
        f"src/core/clock_use.cc:{waived_line}: waived: [determinism] "
        f"rand()/srand() is seeded per-process; use common/rng.hh",
    ]))

    fx = fixture("layering-violation")
    inc_line = line_with(fx, "src/common/util.hh",
                         '#include "sim/runner.hh"')
    cases.append((fx, 1, [
        f"src/common/util.hh:{inc_line}: error: [layering] "
        f"module 'common' may not include 'sim/runner.hh': declared "
        f"deps are {{none}}; either invert the dependency or widen the "
        f"DAG deliberately in layering.ALLOWED",
    ]))
    cases.append((fixture("layering-clean"), 0, []))

    fx = fixture("schema-violation")
    params_line = line_with(fx, "src/prefetch/thing.hh", "struct Params")
    cases.append((fx, 1, [
        f"src/prefetch/thing.hh:{params_line}: error: [schema] "
        f"component 'thing': ThingPrefetcher::Params.hidden has no bound "
        f"knob; it cannot be swept and is invisible to --knobs (bind it, "
        f"or waive with the reason it must stay internal)",
    ]))
    cases.append((fixture("schema-clean"), 0, []))

    fx = fixture("reset-violation")
    count_line = line_with(fx, "src/prefetch/thing.hh",
                           "unsigned count_;")
    site_line = line_with(fx, "src/prefetch/thing.cc",
                          "make_unique<ThingPrefetcher>")
    cases.append((fx, 1, [
        f"src/prefetch/thing.hh:{count_line}: error: [reset] "
        f"ThingPrefetcher::count_ (unsigned) has no NSDMI and appears "
        f"in no constructor init list; a rebuilt component would start "
        f"from stale memory (built by the registry at "
        f"src/prefetch/thing.cc:{site_line})",
    ]))
    cases.append((fixture("reset-clean"), 0, []))

    return cases


def main():
    failures = []
    cxx = selftest._compiler()
    cases = golden_cases()
    for fx, expected_exit, goldens in cases:
        code, output = selftest.run_fixture(fx, cxx)
        out_lines = output.splitlines()
        if code != expected_exit:
            failures.append(f"{fx['name']}: exit {code}, expected "
                            f"{expected_exit}")
        for golden in goldens:
            if golden not in out_lines:
                failures.append(
                    f"{fx['name']}: missing golden line:\n"
                    f"  expected: {golden}\n"
                    f"  got:\n" + "\n".join(
                        f"    {ln}" for ln in out_lines))
        if not goldens and expected_exit == 0:
            noisy = [ln for ln in out_lines if ": error: [" in ln]
            if noisy:
                failures.append(f"{fx['name']}: expected no findings, "
                                f"got: {'; '.join(noisy)}")

    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        print(f"test_audit: {len(failures)} failure(s) over "
              f"{len(cases)} case(s)", file=sys.stderr)
        return 1
    print(f"test_audit: {len(cases)} golden case(s) ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
