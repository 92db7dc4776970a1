"""SIMCHECK-ALLOW waivers, the only waiver spelling.

A finding is waived by a marker on its own line, or by a marker on
the line above when the lexer puts no token on that line (a marker
trailing code on the previous line belongs to THAT line, not the next
one — otherwise a waiver on one field would silently cover its
neighbor):

    // SIMCHECK-ALLOW(rule-name): reason the contract is satisfied

The rule name and the reason are both mandatory — a waiver without a
reason is itself a finding (`waiver-syntax`), and a waiver that
suppresses nothing in a full run is itself a finding
(`unused-waiver`), so waivers cannot rot. clang-tidy's NOLINT
suppressions follow the same discipline: `NOLINT(check-name): reason`
or a `waiver-syntax` finding.
"""

import re

ALLOW_RE = re.compile(
    r"SIMCHECK-ALLOW\((?P<rule>[\w-]+)\)\s*:\s*(?P<reason>\S.*)"
)
# Prose that merely mentions the marker name (docs, this file) is
# not a waiver attempt; only `SIMCHECK-ALLOW(` starts one.
ALLOW_ANY_RE = re.compile(r"SIMCHECK-ALLOW\(")

NOLINT_RE = re.compile(r"NOLINT(?:NEXTLINE|BEGIN|END)?\b")
NOLINT_OK_RE = re.compile(
    r"NOLINT(?:NEXTLINE|BEGIN|END)?\([\w.,\- ]+\)\s*:\s*\S"
)


class Waiver:
    __slots__ = ("file", "line", "rule", "reason", "used")

    def __init__(self, file, line, rule, reason):
        self.file = file
        self.line = line
        self.rule = rule
        self.reason = reason
        self.used = False


def _code_lines(tokens):
    """Lines the lexer put a token on (a directive spans its
    continuation lines)."""
    lines = set()
    for t in tokens:
        end = t.line + (t.spelling.count("\n") if t.kind == "pp" else 0)
        lines.update(range(t.line, end + 1))
    return lines


class WaiverSet:
    """All waivers of one analysis run, indexed by (file, line)."""

    def __init__(self):
        self._by_loc = {}  # (file, line) -> [Waiver]
        self._syntax_errors = []  # (file, line, text, expected form)
        self._code_lines = {}  # file -> lines holding a token

    def scan_file(self, fm):
        self._code_lines[fm.path] = _code_lines(fm.tokens)
        for i, raw in enumerate(fm.lines, 1):
            if NOLINT_RE.search(raw) and not NOLINT_OK_RE.search(raw):
                self._syntax_errors.append(
                    (fm.path, i, raw.strip(), "NOLINT(check-name)")
                )
            if not ALLOW_ANY_RE.search(raw):
                continue
            m = ALLOW_RE.search(raw)
            if not m:
                self._syntax_errors.append(
                    (fm.path, i, raw.strip(), "SIMCHECK-ALLOW(rule-name)")
                )
                continue
            w = Waiver(fm.path, i, m.group("rule"), m.group("reason"))
            self._by_loc.setdefault((fm.path, i), []).append(w)

    def suppresses(self, rel, line, rule):
        """True when a matching waiver sits on the finding's line, or
        on a token-free line directly above it. Marks the waiver
        used."""
        candidates = [line]
        if line - 1 not in self._code_lines.get(rel, ()):
            candidates.append(line - 1)
        for ln in candidates:
            for w in self._by_loc.get((rel, ln), ()):
                if w.rule == rule:
                    w.used = True
                    return True
        return False

    def syntax_findings(self):
        return list(self._syntax_errors)

    def unused(self):
        """Waivers that suppressed nothing this run."""
        out = []
        for ws in self._by_loc.values():
            for w in ws:
                if not w.used:
                    out.append(w)
        return sorted(out, key=lambda w: (w.file, w.line))
