"""Lightweight C++ source model: comment/string stripping + waivers.

The checkers match constructs lexically, so every one of them starts
from comment-stripped text. Three forms are produced, line structure
preserved exactly (a finding's line number indexes the original file):

  * code_lines — comments AND string/char literal contents blanked.
    What the determinism and hotpath checkers scan: an identifier
    inside a string or comment must never trip a ban.
  * keep_lines — comments blanked, string contents kept. What the
    layering/schema/reset checkers scan: include paths and knob names
    are string literals.
  * comment_lines — everything but comments blanked. Where waivers and
    the hotpath checker's region markers are read.

Waiver comments are collected while stripping:

    // tlpsim:waive(<check>) <reason>

A waiver covers the line it sits on; when the line holds nothing but
the comment, it covers the next non-blank source line instead (so a
long offending line can carry its waiver above itself). A waiver whose
<reason> is empty is recorded with reason "" — the driver turns that
into a finding of its own, because an unexplained waiver is exactly the
kind of rot this suite exists to prevent.
"""

import re
from pathlib import Path

WAIVE_RE = re.compile(r"tlpsim:waive\((\w+)\)\s*(.*?)\s*(?:\*/.*)?$")


class SourceFile:
    """One parsed file: original, code-only, and string-kept lines."""

    def __init__(self, path, text=None):
        self.path = Path(path)
        self.text = (
            text
            if text is not None
            else self.path.read_text(encoding="utf-8", errors="replace")
        )
        self.lines = self.text.splitlines()
        self.code_lines, self.keep_lines, self.comment_lines = \
            _strip(self.lines)
        # line -> [(check, reason)]
        self.waivers = _collect_waivers(self.comment_lines,
                                        self.code_lines)

    @property
    def code(self):
        """Comments and literal contents blanked."""
        return "\n".join(self.code_lines)

    @property
    def keep(self):
        """Comments blanked, string contents kept."""
        return "\n".join(self.keep_lines)


class _Emit:
    """Per-line triple accumulator (code, keep, comment)."""

    def __init__(self):
        self.code, self.keep, self.comment = [], [], []

    def put(self, text, *, code=False, keep=False, comment=False):
        pad = " " * len(text)
        self.code.append(text if code else pad)
        self.keep.append(text if keep else pad)
        self.comment.append(text if comment else pad)


def _strip(lines):
    code_out, keep_out, comment_out = [], [], []
    state = "code"  # code | block_comment | raw_string
    raw_delim = ""
    for line in lines:
        out = _Emit()
        i, n = 0, len(line)
        while i < n:
            c = line[i]
            if state == "block_comment":
                end = line.find("*/", i)
                if end < 0:
                    out.put(line[i:], comment=True)
                    i = n
                else:
                    out.put(line[i:end + 2], comment=True)
                    state = "code"
                    i = end + 2
            elif state == "raw_string":
                stop = line.find(')' + raw_delim + '"', i)
                if stop < 0:
                    out.put(line[i:], keep=True)
                    i = n
                else:
                    end = stop + len(raw_delim) + 2
                    out.put(line[i:end], keep=True)
                    state = "code"
                    i = end
            elif c == "/" and line[i:i + 2] == "//":
                out.put(line[i:], comment=True)
                i = n
            elif c == "/" and line[i:i + 2] == "/*":
                out.put("/*", comment=True)
                state = "block_comment"
                i += 2
            elif c == "R" and (m := re.match(r'R"([^()\s\\]{0,16})\(',
                                             line[i:])):
                raw_delim = m.group(1)
                opener = 'R"' + raw_delim + "("
                out.put(opener, code=True, keep=True)
                i += len(opener)
                state = "raw_string"
            elif c == "'" and _digit_separator(line, i):
                out.put(c, code=True, keep=True)
                i += 1
            elif c in ('"', "'"):
                quote = c
                out.put(quote, code=True, keep=True)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        out.put(line[i:i + 2], keep=True)
                        i += 2
                        continue
                    if line[i] == quote:
                        out.put(quote, code=True, keep=True)
                        i += 1
                        break
                    out.put(line[i], keep=True)
                    i += 1
            else:
                out.put(c, code=True, keep=True)
                i += 1
        code_out.append("".join(out.code))
        keep_out.append("".join(out.keep))
        comment_out.append("".join(out.comment))
    return code_out, keep_out, comment_out


def _digit_separator(line, i):
    """True if the ' at line[i] separates the digits of a number literal
    (400'000, 0xffff'ffff), so it opens no character literal."""
    j = i
    while j > 0 and (line[j - 1].isalnum() or line[j - 1] in "_.'"):
        j -= 1
    return (re.match(r"\.?[0-9]", line[j:i]) is not None
            and line[i + 1:i + 2].isalnum())


def _collect_waivers(comment_lines, code_lines):
    waivers = {}
    for idx, comment in enumerate(comment_lines, start=1):
        m = WAIVE_RE.search(comment)
        if not m:
            continue
        check, reason = m.group(1), m.group(2)
        entry = (check, reason)
        waivers.setdefault(idx, []).append(entry)
        if code_lines[idx - 1].strip() == "":
            # Comment-only line: also cover the next non-blank code line.
            for j in range(idx, len(code_lines)):
                if code_lines[j].strip() != "":
                    waivers.setdefault(j + 1, []).append(entry)
                    break
    return waivers
