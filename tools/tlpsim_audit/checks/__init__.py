"""Checker registry for tlpsim-audit.

Each of the five checker modules exposes `run(files) -> Report`, where
`files` is {root-relative-path: SourceFile} for every .cc/.hh under
src/. Adding a check: write the module, add it to
CHECKERS, document it in the README's check catalog, and give it a
seeded-violation and a clean fixture in selftest.py (the audit_selftest
ctest fails on a checker whose seeded violation does not fail).
"""

from . import determinism, hotpath, layering, reset_audit, schema_drift

CHECKERS = {
    "determinism": determinism.run,
    "layering": layering.run,
    "schema": schema_drift.run,
    "reset": reset_audit.run,
    "hotpath": hotpath.run,
}
