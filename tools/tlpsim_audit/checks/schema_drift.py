"""schema — every field of a component's Params struct is a bound knob.

A registered component declares its knobs as a `ParamSchema<P>` whose
entries bind config names to the fields of its `Params` struct
(`{"degree", &P::degree, "desc"}`). The field's C++ type and the
schema's defaults object supply each knob's type, width and default,
and one generic parse/render pair moves values through the binding, so
a knob cannot have a literal default, go unextracted, or be extracted
undeclared. Drift between the struct and the schema takes one form
only: a Params field no entry binds. Such a field cannot be swept, is
invisible to --knobs, and stays out of the design-point fingerprint.
Each one is reported at the struct's declaration; a field that must
stay internal is waived with the reason.

The checker lexically follows the registration idiom the README tells
new backends to use: `<X>Registry::instance().add("name", schema, ...)`
in a translation unit that declares a `ParamSchema<T>` — T being
`X::Params`, or an alias such as `using P = X::Params;` — and binds
fields as `&P::field`. A registering translation unit the checker
cannot read that way is itself a finding, so the idiom stays uniform.
"""

import re

from ..findings import Finding, Report

CHECK = "schema"

ADD_RE = re.compile(
    r"(\w+)Registry\s*::\s*instance\s*\(\)\s*\.\s*add\s*\(\s*\"(\w+)\"")
SCHEMA_TYPE_RE = re.compile(r"\bParamSchema\s*<\s*([\w:]+)\s*>")
ALIAS_RE = re.compile(r"\busing\s+(\w+)\s*=\s*([\w:]+)\s*;")
BIND_RE = re.compile(r"&\s*([\w:]+)::(\w+)\b")
FIELD_RE = re.compile(
    r"^\s*([\w:<>,\s]+?[\w:>])\s+(\w+)\s*(=[^;]*|\{[^;]*\})?\s*;",
    re.M)


def _line_of(code, pos):
    return code.count("\n", 0, pos) + 1


def _matched_braces(code, open_pos):
    """Return (inner_start, inner_end) of the {...} starting at
    @p open_pos, or None when unbalanced."""
    depth = 0
    for i in range(open_pos, len(code)):
        c = code[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return open_pos + 1, i
    return None


def _params_fields(files, cls):
    """Field names of `struct Params` inside class @p cls, from whichever
    header declares it. Returns (fields, rel, line) or (None, None,
    None)."""
    simple = cls.split("::")[-1]
    for rel, sf in sorted(files.items()):
        if not rel.endswith((".hh", ".h")):
            continue
        code = sf.keep
        cm = re.search(rf"\b(?:class|struct)\s+{re.escape(simple)}\b"
                       r"[^;{]*\{", code)
        if not cm:
            continue
        cspan = _matched_braces(code, cm.end() - 1)
        if not cspan:
            continue
        body = code[cspan[0]:cspan[1]]
        pm = re.search(r"\bstruct\s+Params\s*\{", body)
        if not pm:
            continue
        pspan = _matched_braces(body, pm.end() - 1)
        if not pspan:
            continue
        fields = []
        for fm in FIELD_RE.finditer(body[pspan[0]:pspan[1]]):
            if fm.group(1).split()[-1] in ("struct", "class", "enum",
                                           "return", "using"):
                continue
            fields.append(fm.group(2))
        line = _line_of(code, cm.end() - 1 + pm.start())
        return fields, rel, line
    return None, None, None


def _bound_schema(code):
    """The Params class a translation unit's ParamSchema binds, and the
    fields its entries bind. Returns (cls, fields) or (None, None)."""
    aliases = {m.group(1): m.group(2) for m in ALIAS_RE.finditer(code)}
    for m in SCHEMA_TYPE_RE.finditer(code):
        spelled = m.group(1)
        params = aliases.get(spelled, spelled)
        if not params.endswith("::Params"):
            continue
        spellings = {spelled, params}
        bound = {b.group(2) for b in BIND_RE.finditer(code)
                 if b.group(1) in spellings}
        return params[:-len("::Params")], bound
    return None, None


def _audit_tu(rel, sf, files, report):
    """Audit every registration in one translation unit."""
    code = sf.keep
    sites = list(ADD_RE.finditer(code))
    if not sites:
        return
    cls, bound = _bound_schema(code)
    for site in sites:
        name = site.group(2)
        if cls is None:
            report.add(Finding(
                CHECK, rel, _line_of(code, site.start()),
                f"component '{name}': no ParamSchema<...::Params> in this "
                f"translation unit; bind the knobs to the Params fields "
                f"next to the registration so they can be audited"))
            continue
        fields, fields_rel, fields_line = _params_fields(files, cls)
        for field in sorted(set(fields or ()) - bound):
            report.add(Finding(
                CHECK, fields_rel, fields_line,
                f"component '{name}': {cls}::Params.{field} has no bound "
                f"knob; it cannot be swept and is invisible to --knobs "
                f"(bind it, or waive with the reason it must stay "
                f"internal)"))


def run(files):
    report = Report()
    for rel, sf in sorted(files.items()):
        if rel.endswith(".cc"):
            _audit_tu(rel, sf, files, report)
    return report
