"""schema — cross-check Params structs against registered KnobSchemas.

Every registered component pairs a `Params` struct (the C++ defaults)
with a `KnobSchema` (the declared, sweepable knob set). The runtime
already validates *configs* against the schema; what nothing checked
until now is the pair itself. Each Athena-style backend the ROADMAP
adds brings one more pair, so drift risk grows with the registry:

  * a Params field with no knob is untunable and invisible to --knobs;
  * a schema default written as a literal (instead of `d.<field>` off a
    default-constructed Params) can silently diverge from the struct
    initializer — the --knobs reference and the fingerprint expansion
    then lie about what a sweep actually ran;
  * a knob the builder never extracts is accepted from configs and
    silently dropped.

The checker lexically parses the registration idiom
(`<X>Registry::instance().add("name", <schema-fn>(), ...)`, schema
entries `{"knob", d.field, "desc"(, {choices})}`, extraction
`p.field = k.<ty>("knob")`), which is exactly the idiom the README
tells new backends to follow — a backend the checker cannot parse is
itself a finding, so the idiom stays uniform.

It also validates the shipped presets (configs/*.conf): component
slots must name registered components, and subtree knob keys
(`scheme.offchip.<k>`, ...) must be declared by the named component's
schema.
"""

import re
from pathlib import Path

from ..findings import Finding, Report

CHECK = "schema"

ADD_RE = re.compile(
    r"(\w+)Registry\s*::\s*instance\s*\(\)\s*\.\s*add\s*\(\s*"
    r'"(\w+)"\s*,\s*(\w+)\s*\(\)')
SCHEMA_PARAMS_RE = re.compile(
    r"(?:const\s+)?([\w:]+)::Params\s*[&]?\s*d\b")
EXTRACT_RE = re.compile(
    r"\bk\s*\.\s*(str|i32|u32|u64|num|flag)\s*\(\s*\"(\w+)\"\s*\)")
ASSIGN_RE = re.compile(
    r"\bp\s*\.\s*(\w+)\s*=\s*[^;]*?"
    r"k\s*\.\s*(?:str|i32|u32|u64|num|flag)\s*\(\s*\"(\w+)\"\s*\)")
FIELD_RE = re.compile(
    r"^\s*([\w:<>,\s]+?[\w:>])\s+(\w+)\s*(=[^;]*|\{[^;]*\})?\s*;",
    re.M)
DEFAULT_FIELD_REF_RE = re.compile(r"\bd\s*\.\s*(\w+)\b")


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


def _split_top_level(text, sep=","):
    """Split @p text on @p sep at bracket depth zero."""
    parts, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c in "{(<[":
            depth += 1
        elif c in "})>]":
            depth -= 1
        elif c == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def _function_body(code, fn_name):
    """The brace-matched body of function @p fn_name in @p code (first
    definition wins), plus the offset of its opening brace."""
    for m in re.finditer(rf"\b{re.escape(fn_name)}\s*\(", code):
        # Skip the parameter list, then expect '{' (possibly after
        # lambda-wrapping noise we step over via brace matching).
        close = code.find(")", m.end() - 1)
        if close < 0:
            continue
        brace = code.find("{", close)
        semi = code.find(";", close)
        if brace < 0 or (0 <= semi < brace):
            continue  # declaration, not definition
        span = _matched_braces(code, brace)
        if span:
            return code[span[0]:span[1]], brace
    return None, None


def _schema_entries(body, body_offset, code):
    """Parse `{"knob", default, "desc"(, {choices})}` entries out of a
    KnobSchema body. Returns [(knob, default_expr, line)]."""
    entries = []
    i = 0
    while True:
        k = re.compile(r'\{\s*"').search(body, i)
        if not k:
            break
        span = _matched_braces(body, k.start())
        if not span:
            break
        inner = body[span[0]:span[1]]
        i = span[1] + 1
        parts = _split_top_level(inner)
        if len(parts) < 2 or not parts[0].startswith('"'):
            continue
        knob = parts[0].strip().strip('"').strip()
        default_expr = parts[1].strip()
        entries.append((knob, default_expr,
                        _line_of(code, body_offset + k.start())))
    return entries


def _params_fields(files, cls):
    """Fields of `struct Params` inside class @p cls, from whichever
    header declares it. Returns ({field: initializer-or-None}, rel,
    line) or (None, None, None)."""
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
        pbody = body[pspan[0]:pspan[1]]
        fields = {}
        for fm in FIELD_RE.finditer(pbody):
            ftype, name, init = fm.group(1).strip(), fm.group(2), \
                fm.group(3)
            if ftype.split()[-1] in ("struct", "class", "enum",
                                     "return", "using"):
                continue
            init_text = None
            if init:
                init_text = init.lstrip("=").strip().strip("{}").strip()
            fields[name] = init_text
        line = _line_of(code, cm.end() - 1 + pm.start())
        return fields, rel, line
    return None, None, None


REGISTRY_KIND = {
    "Prefetcher": "prefetcher",
    "Filter": "filter",
    "Offchip": "offchip",
}


def _discover_components(files):
    """All `<X>Registry::instance().add("name", schemaFn(), ...)` sites.

    Returns [{name, kind, schema_fn, rel, line, code, sf}]."""
    out = []
    for rel, sf in sorted(files.items()):
        if not rel.endswith(".cc"):
            continue
        for m in ADD_RE.finditer(sf.keep):
            out.append({
                "registry": m.group(1),
                "kind": REGISTRY_KIND.get(m.group(1), m.group(1)),
                "name": m.group(2),
                "schema_fn": m.group(3),
                "rel": rel,
                "line": _line_of(sf.keep, m.start()),
                "sf": sf,
            })
    return out


_NOT_CALLEES = {"return", "if", "while", "for", "switch", "sizeof",
                "KnobSchema", "KnobSpec", "static_cast", "toString"}


def _resolve_entries(code, fn, seen=None):
    """Schema entries of @p fn, following one level of helper calls
    (the offchip idiom: flpKnobs() -> offchipKnobSchema(d)). Returns
    (entries, outer_body) — entries None when @p fn has no definition
    here, empty when defined but unparsable."""
    seen = set() if seen is None else seen
    if fn in seen:
        return None, None
    seen.add(fn)
    body, offset = _function_body(code, fn)
    if body is None:
        return None, None
    entries = _schema_entries(body, offset, code)
    if entries:
        return entries, body
    for cm in re.finditer(r"\b(\w+)\s*\(", body):
        callee = cm.group(1)
        if callee in _NOT_CALLEES:
            continue
        sub, _ = _resolve_entries(code, callee, seen)
        if sub:
            return sub, body
    return [], body


def _audit_component(comp, files, report):
    sf, rel = comp["sf"], comp["rel"]
    code = sf.keep
    entries, body = _resolve_entries(code, comp["schema_fn"])
    if entries is None:
        report.add(Finding(
            CHECK, rel, comp["line"],
            f"component '{comp['name']}': schema function "
            f"'{comp['schema_fn']}' is not defined in this translation "
            f"unit; keep schema, builder, and registration together so "
            f"they can be audited"))
        return None

    if not entries:
        report.add(Finding(
            CHECK, rel, comp["line"],
            f"component '{comp['name']}': no parsable "
            f"{{\"knob\", default, \"desc\"}} entries in "
            f"'{comp['schema_fn']}'"))
        return None

    pm = SCHEMA_PARAMS_RE.search(body) or SCHEMA_PARAMS_RE.search(
        # offchip idiom: the entry list lives in a helper taking
        # `const X::Params &d`; find it through the call chain.
        code)
    params_cls = pm.group(1) if pm else None
    fields, fields_rel, fields_line = (None, None, None)
    if params_cls:
        fields, fields_rel, fields_line = _params_fields(files,
                                                         params_cls)

    extracted = {k for _, k in EXTRACT_RE.findall(code)}
    knob_to_field = dict()
    for fm in ASSIGN_RE.finditer(code):
        knob_to_field[fm.group(2)] = fm.group(1)

    knob_names = set()
    for knob, default_expr, line in entries:
        knob_names.add(knob)
        ref = DEFAULT_FIELD_REF_RE.search(default_expr)
        if ref:
            if fields is not None and ref.group(1) not in fields:
                report.add(Finding(
                    CHECK, rel, line,
                    f"component '{comp['name']}': knob '{knob}' "
                    f"default reads d.{ref.group(1)}, which is not a "
                    f"field of {params_cls}::Params"))
        else:
            # Literal default. With a Params struct in play this is the
            # classic drift vector: the schema stops tracking the code.
            if fields is not None:
                field = knob_to_field.get(knob, knob)
                hint = (f"compare {params_cls}::Params.{field}"
                        if field in fields else
                        f"no matching {params_cls}::Params field "
                        f"either")
                report.add(Finding(
                    CHECK, rel, line,
                    f"component '{comp['name']}': knob '{knob}' "
                    f"default is the literal '{default_expr}' instead "
                    f"of being rendered from a default-constructed "
                    f"Params ({hint}); literals drift silently when "
                    f"the struct initializer changes"))
            elif params_cls is None:
                report.add(Finding(
                    CHECK, rel, line,
                    f"component '{comp['name']}': knob '{knob}' "
                    f"default is the literal '{default_expr}' and the "
                    f"component declares no Params struct; declare one "
                    f"so the schema default is rendered from the same "
                    f"value the constructor uses"))
        if knob not in extracted:
            report.add(Finding(
                CHECK, rel, line,
                f"component '{comp['name']}': knob '{knob}' is "
                f"declared but never extracted (no k.<type>(\"{knob}\") "
                f"in this translation unit): configs setting it are "
                f"accepted and silently ignored"))

    for knob in sorted(extracted - knob_names):
        # Knobs::expect throws at build time for this, but only when
        # the component is actually built; catch it statically.
        report.add(Finding(
            CHECK, rel, comp["line"],
            f"component '{comp['name']}': builder extracts undeclared "
            f"knob '{knob}'"))

    if fields is not None:
        covered = set(knob_to_field.values())
        for _, default_expr, _ in entries:
            ref = DEFAULT_FIELD_REF_RE.search(default_expr)
            if ref:
                covered.add(ref.group(1))
        for field in sorted(set(fields) - covered):
            report.add(Finding(
                CHECK, fields_rel, fields_line,
                f"component '{comp['name']}': {params_cls}::Params."
                f"{field} has no declared knob; it cannot be swept and "
                f"is invisible to --knobs (declare it, or waive with "
                f"the reason it must stay internal)"))

    return {
        "name": comp["name"],
        "kind": comp["kind"],
        "knobs": sorted(knob_names),
        "params": params_cls,
    }


# Preset slot key -> registry kind its value must be registered in.
SLOT_KINDS = {
    "scheme.offchip": "offchip",
    "scheme.l1_filter": "filter",
    "scheme.l2_filter": "filter",
    "l1d.prefetcher": "prefetcher",
    "l2.prefetcher": "prefetcher",
}


def _audit_presets(project, components, report):
    by_name = {}
    for c in components:
        if c:
            by_name[(c["kind"], c["name"])] = c
    presets = sorted((project.root / "configs").glob("*.conf"))
    for preset in presets:
        rel = project.rel(preset)
        slot_values = {}
        keyvals = []
        for lineno, raw in enumerate(
                preset.read_text(encoding="utf-8").splitlines(),
                start=1):
            line = raw.split("#", 1)[0].strip()
            if "=" not in line:
                continue
            key, value = (s.strip() for s in line.split("=", 1))
            keyvals.append((key, lineno))
            if key in SLOT_KINDS:
                slot_values[key] = (value, lineno)

        for key, (value, lineno) in slot_values.items():
            kind = SLOT_KINDS[key]
            # "none"/"no" are the documented empty-slot sentinels
            # (SystemConfig's emptyableName).
            if value in ("none", "no"):
                continue
            if value and (kind, value) not in by_name:
                known = sorted(n for k, n in by_name if k == kind)
                report.add(Finding(
                    CHECK, rel, lineno,
                    f"preset names unregistered {kind} '{value}' for "
                    f"{key}; registered: {', '.join(known)}"))

        for key, lineno in keyvals:
            for slot, kind in SLOT_KINDS.items():
                if not key.startswith(slot + "."):
                    continue
                knob = key[len(slot) + 1:]
                name = slot_values.get(slot, ("", 0))[0]
                comp = by_name.get((kind, name))
                if comp is None:
                    report.add(Finding(
                        CHECK, rel, lineno,
                        f"preset tunes {key} but names no registered "
                        f"{kind} in {slot}"))
                elif knob not in comp["knobs"]:
                    report.add(Finding(
                        CHECK, rel, lineno,
                        f"preset key {key}: '{knob}' is not a declared "
                        f"knob of {kind} '{name}' "
                        f"(declared: {', '.join(comp['knobs'])})"))
    return [project.rel(p) for p in presets]


def run(project, files):
    report = Report()
    discovered = _discover_components(files)
    audited = [_audit_component(c, files, report) for c in discovered]
    preset_files = _audit_presets(project, audited, report)
    report.summary["schema"] = {
        "components": sorted(
            f"{c['kind']}:{c['name']}" for c in audited if c),
        "presets": preset_files,
    }
    return report
