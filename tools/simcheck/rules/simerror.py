"""simerror-discipline: the integrity layer owns `throw` and asserts.

Simulator code raises failures through SIM_CHECK / SIM_INVARIANT /
raiseSimError (src/sim/check.*) so every error carries machine context
(cycle, SM, kernel, module). A raw `throw expr` anywhere else in src/
loses that context — and an uncaught foreign exception type slips
past every catch(SimError&) recovery path in the sweep engine, the
campaign worker and the replay detector. A bare assert() (or
`#include <cassert>`) is worse: it vanishes under NDEBUG, so the
Release builds that produce the paper's tables check nothing.

Allowed without waivers:
  * `throw` in src/sim/check.hpp / check.cpp — the macros and
    raiseSimError themselves;
  * bare `throw;` rethrows — re-raising an in-flight error preserves
    its type and context (the sweep engine's memo-cache poison path).

Token-level, so `throw` or `assert(` in comments or strings never
matches, and a throw hidden in a macro *definition* is caught at the
definition (the lexer keeps directives opaque, so check.hpp's own
macros are the only definition site, and it is exempt).
"""

import re

from . import called

NAME = "simerror-discipline"
CONTRACT = (
    "only SIM_CHECK / SIM_INVARIANT / raiseSimError (sim/check) "
    "raise or assert; everything else in src/ either propagates "
    "SimError or rethrows (DESIGN.md section 8)"
)

EXEMPT_FILES = ("src/sim/check.hpp", "src/sim/check.cpp")

CASSERT_RE = re.compile(r"#\s*include\s*<cassert>")
ASSERT_FIX = (
    "use SIM_CHECK / SIM_INVARIANT from sim/check.hpp, which survive "
    "NDEBUG and report cycle/SM context"
)
THROW_MSG = (
    "raw `throw` outside sim/check — raise through SIM_CHECK / "
    "SIM_INVARIANT / raiseSimError so the error carries "
    "cycle/SM/kernel context and stays catchable as SimError"
)


def _raw_throw(toks, i):
    """toks[i] is a `throw` that is neither `throw;` nor `throw()`."""
    if toks[i].kind != "kw" or toks[i].spelling != "throw":
        return False
    j = i + 1
    while j < len(toks) and toks[j].kind == "pp":
        j += 1
    if j < len(toks) and toks[j].spelling == ";":
        return False  # bare rethrow
    # `throw()` exception-specs in ancient signatures.
    return not (
        j + 1 < len(toks)
        and toks[j].spelling == "("
        and toks[j + 1].spelling == ")"
    )


def _message(rel, toks, i):
    """The finding toks[i] starts, or ''."""
    t = toks[i]
    if t.kind == "pp" and CASSERT_RE.match(t.spelling):
        return "#include <cassert> — " + ASSERT_FIX
    if called(toks, i) and t.spelling == "assert":
        return "bare assert() — " + ASSERT_FIX
    if rel not in EXEMPT_FILES and _raw_throw(toks, i):
        return THROW_MSG
    return ""


def run(ctx):
    for rel, fm in ctx.files():
        for i, t in enumerate(fm.tokens):
            message = _message(rel, fm.tokens, i)
            if message:
                ctx.emit(rel, t.line, NAME, message, CONTRACT)
