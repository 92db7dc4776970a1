"""include-guard: every src/ header is guarded by CKESIM_<PATH>_HPP.

The guard name is derived from the header's path under src/
(src/mem/l1d.hpp -> CKESIM_MEM_L1D_HPP), so two headers can never
share one. Checked over preprocessor tokens: the first #ifndef must
name that guard, and the next directive must #define the same name —
a guard whose #define is misspelled never guards.
"""

import re

NAME = "include-guard"
CONTRACT = (
    "every header under src/ opens with `#ifndef CKESIM_<PATH>_HPP` "
    "followed by `#define` of the same name (DESIGN.md section 15)"
)

DIRECTIVE_RE = re.compile(r"#\s*(\w*)\s*(\w*)")


def guard_name(rel):
    """src/mem/l1d.hpp -> CKESIM_MEM_L1D_HPP"""
    inner = rel[len("src/"):]
    return "CKESIM_" + re.sub(r"[^A-Za-z0-9]", "_", inner).upper()


def run(ctx):
    for rel, fm in ctx.files():
        if not (rel.startswith("src/") and rel.endswith(".hpp")):
            continue
        want = guard_name(rel)
        directives = [
            (t.line, *DIRECTIVE_RE.match(t.spelling).groups())
            for t in fm.tokens
            if t.kind == "pp"
        ]
        k = next(
            (k for k, d in enumerate(directives) if d[1] == "ifndef"),
            None,
        )
        if k is None:
            ctx.emit(
                rel, 1, NAME, f"no #ifndef guard — expected '{want}'",
                CONTRACT,
            )
            continue
        line, _, got = directives[k]
        if got != want:
            ctx.emit(
                rel, line, NAME, f"guard '{got}' — expected '{want}'",
                CONTRACT,
            )
        following = directives[k + 1] if k + 1 < len(directives) else None
        if following is None or following[1:] != ("define", got):
            ctx.emit(
                rel,
                following[0] if following else line,
                NAME,
                f"'#ifndef {got}' is not followed by "
                f"'#define {got}' — the guard never guards",
                CONTRACT,
            )
