"""reset — registry-built components must fully initialize their state.

The Runner memoizes design points and reuses component instances'
*classes* across points: a component is rebuilt per simulation, so any
scalar data member that is neither brace-initialized at its declaration
(NSDMI) nor set in a constructor init list starts as whatever the
allocator left behind — a bug that only shows under particular
allocation histories, i.e. exactly the nondeterminism this suite
exists to kill.

Scope: every class a registry builder constructs (discovered via
`make_unique<Class>` in the TUs that call `Registry::instance().add`),
plus the nested structs declared inside those classes — table entries
live in pooled vectors and are reset by assignment, so a field without
an NSDMI default resurrects stale state on reuse (`e = IpEntry{};`
only resets what the struct initializes).

Scalar means: arithmetic types and their aliases (Addr, Cycle,
(u)intN_t, size_t), enums declared anywhere under src/, and raw
pointers. Members of class type are skipped — their default
constructors run unconditionally.
"""

import re

from ..findings import Finding, Report

CHECK = "reset"

ADD_SITE_RE = re.compile(r"Registry\s*::\s*instance\s*\(\)\s*\.\s*add\s*\(")
MAKE_UNIQUE_RE = re.compile(r"\bmake_unique\s*<\s*([\w:]+)\s*>")
ENUM_RE = re.compile(r"\benum\s+(?:class\s+|struct\s+)?(\w+)")

SCALAR_TYPES = {
    "bool", "char", "short", "int", "long", "unsigned", "signed",
    "float", "double", "size_t", "std::size_t", "ptrdiff_t",
    "std::ptrdiff_t", "Addr", "Cycle", "Tick",
}
SCALAR_TYPES |= {
    f"{ns}{base}{w}_t"
    for ns in ("", "std::")
    for base in ("int", "uint", "int_fast", "uint_fast",
                 "int_least", "uint_least")
    for w in (8, 16, 32, 64)
}

MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?([\w:]+(?:\s*<[^;()]*>)?(?:\s+[\w:]+)*?"
    r"(?:\s*\*+\s*|\s+))(\w+)(\s*\[[^\]]*\])?\s*(=[^;]*|\{[^;]*\})?;",
    re.M)

KEYWORD_STOP = {"return", "using", "typedef", "static", "constexpr",
                "friend", "public", "private", "protected", "case",
                "goto", "delete", "new", "throw", "else", "extern"}


def _matched_braces(code, open_pos):
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


def _line_of(code, pos):
    return code.count("\n", 0, pos) + 1


def _strip_templates(text):
    """Blank template argument lists so member parsing sees flat decls."""
    out, depth = [], 0
    for c in text:
        if c == "<":
            depth += 1
            out.append("<")
        elif c == ">":
            depth = max(0, depth - 1)
            out.append(">")
        else:
            out.append(" " if depth and c != "\n" else c)
    return "".join(out)


def _built_classes(files):
    """Classes constructed by registry builders, with the build site."""
    classes = {}
    for rel, sf in sorted(files.items()):
        if not rel.endswith(".cc"):
            continue
        code = sf.keep
        if not ADD_SITE_RE.search(code):
            continue
        for m in MAKE_UNIQUE_RE.finditer(code):
            cls = m.group(1).split("::")[-1]
            classes.setdefault(cls, (rel, _line_of(code, m.start())))
    return classes


def _enums(files):
    names = set()
    for _, sf in files.items():
        names.update(ENUM_RE.findall(sf.keep))
    return names


def _is_scalar(type_text, enums):
    t = type_text.strip()
    if "*" in t:
        return True
    t = re.sub(r"\b(const|volatile|mutable)\b", " ", t).strip()
    t = re.sub(r"\s+", " ", t)
    if t in SCALAR_TYPES or all(
            w in SCALAR_TYPES or w in ("long", "unsigned", "signed",
                                       "short", "int", "char", "double")
            for w in t.split()):
        return True
    return t.split("::")[-1] in enums


def _body_statements(body):
    """Top-level statements of a class body: (text, offset) pairs,
    with nested brace blocks blanked (so methods/ nested types don't
    leak member-looking lines) but nested struct bodies returned
    separately as (name, inner, inner_offset)."""
    stmts = []
    nested = []
    i, start, n = 0, 0, len(body)
    while i < n:
        c = body[i]
        if c == "{":
            span = _matched_braces(body, i)
            if span is None:
                break
            head = body[start:i]
            sm = re.search(r"\b(?:struct|class)\s+(\w+)\s*(?::[^{]*)?$",
                           head)
            if sm:
                nested.append((sm.group(1), body[span[0]:span[1]],
                               span[0]))
            # Blank the block, keep line structure.
            blanked = re.sub(r"[^\n]", " ", body[i:span[1] + 1])
            body = body[:i] + blanked + body[span[1] + 1:]
            i = span[1] + 1
        elif c == ";":
            stmts.append((body[start:i + 1], start))
            start = i + 1
            i += 1
        else:
            i += 1
    return stmts, nested


def _members(body_text, base_offset):
    """Member declarations in a (possibly blanked) class/struct body:
    [(type, name, has_init, offset)]."""
    out = []
    flat = _strip_templates(body_text)
    # Access labels would otherwise be swallowed into the member type.
    flat = re.sub(r"\b(public|private|protected)\s*:",
                  lambda m: " " * len(m.group(0)), flat)
    for m in MEMBER_RE.finditer(flat):
        type_text, name, _array, init = (m.group(1), m.group(2),
                                         m.group(3), m.group(4))
        first_word = type_text.strip().split()[0].split("::")[0] \
            if type_text.strip() else ""
        if first_word in KEYWORD_STOP or name in KEYWORD_STOP:
            continue
        stmt = m.group(0)
        if "(" in stmt or ")" in stmt:
            continue  # function/ctor declaration
        # Anchor at the type, not the match start: the leading \s* can
        # swallow newlines and skew the reported line.
        out.append((m.group(1), name, init is not None,
                    base_offset + m.start(1)))
    return out


def _ctor_initialized(files, cls):
    """Names initialized in any constructor init list of @p cls
    (declaration-site or out-of-line `Cls::Cls(...) : a(..), b{..}`)."""
    inited = set()
    pattern = re.compile(
        rf"\b(?:{re.escape(cls)}\s*::\s*)?{re.escape(cls)}\s*\(")
    for _, sf in sorted(files.items()):
        code = sf.keep
        for m in pattern.finditer(code):
            # Find the end of the parameter list.
            depth, i = 0, m.end() - 1
            while i < len(code):
                if code[i] == "(":
                    depth += 1
                elif code[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            tail = code[i + 1:i + 1000]
            cm = re.match(r"\s*:\s*", tail)
            if not cm:
                continue
            # Walk init-list items up to the body brace.
            j = cm.end()
            while j < len(tail):
                im = re.match(r"\s*(\w+)\s*[({]", tail[j:])
                if not im:
                    break
                name = im.group(1)
                open_c = tail[j + im.end() - 1]
                close_c = ")" if open_c == "(" else "}"
                depth2, k = 0, j + im.end() - 1
                while k < len(tail):
                    if tail[k] == open_c:
                        depth2 += 1
                    elif tail[k] == close_c:
                        depth2 -= 1
                        if depth2 == 0:
                            break
                    k += 1
                if name != cls:  # delegating ctor target isn't a member
                    inited.add(name)
                j = k + 1
                nm = re.match(r"\s*,", tail[j:])
                if not nm:
                    break
                j += nm.end()
    return inited


def _audit_class(cls, site, files, enums, report):
    for rel, sf in sorted(files.items()):
        if not rel.endswith((".hh", ".h")):
            continue
        code = sf.keep
        cm = re.search(rf"\bclass\s+{re.escape(cls)}\b[^;{{]*\{{", code)
        if not cm:
            continue
        span = _matched_braces(code, cm.end() - 1)
        if not span:
            continue
        body = code[span[0]:span[1]]
        stmts, nested = _body_statements(body)
        ctor_inited = _ctor_initialized(files, cls)
        flat_members = []
        for s, o in stmts:
            flat_members.extend(_members(s, o))
        for type_text, name, has_init, off in flat_members:
            if not _is_scalar(type_text, enums):
                continue
            if has_init or name in ctor_inited:
                continue
            line = _line_of(code, span[0] + off)
            report.add(Finding(
                CHECK, rel, line,
                f"{cls}::{name} ({type_text.strip()}) has no NSDMI and "
                f"appears in no constructor init list; a rebuilt "
                f"component would start from stale memory "
                f"(built by the registry at {site[0]}:{site[1]})"))
        for nname, nbody, noff in nested:
            nstmts, _ = _body_statements(nbody)
            for s, o in nstmts:
                for type_text, name, has_init, off in _members(s, o):
                    if not _is_scalar(type_text, enums):
                        continue
                    if has_init:
                        continue
                    line = _line_of(code, span[0] + noff + off)
                    report.add(Finding(
                        CHECK, rel, line,
                        f"{cls}::{nname}::{name} "
                        f"({type_text.strip()}) has no NSDMI; pooled "
                        f"entries are reset by assignment, so an "
                        f"uninitialized field resurrects stale state "
                        f"on reuse"))
        return
    report.add(Finding(
        CHECK, site[0], site[1],
        f"registry-built class '{cls}' has no class definition in any "
        f"src/ header this audit can see"))


def run(files):
    report = Report()
    enums = _enums(files)
    classes = _built_classes(files)
    for cls, site in sorted(classes.items()):
        _audit_class(cls, site, files, enums, report)
    return report
