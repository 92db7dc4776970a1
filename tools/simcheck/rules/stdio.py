"""stdio: simulator code does not write to the standard streams.

Reporting goes through the metrics layer. std::cout and std::cerr are
banned everywhere; printf-family writes to stdout (printf, puts,
putchar, fprintf/vfprintf(stdout, ...)) are allowed only in the
terminal reporting layer, src/metrics/table.cpp, whose paper-table
renderers print to stdout by design. fprintf to stderr or to an
explicit FILE* is fine.
"""

from . import called, std_name

NAME = "stdio"
CONTRACT = (
    "simulator code never writes to std::cout/std::cerr, and only the "
    "terminal reporting layer writes to stdout (DESIGN.md section 15)"
)

REPORTING_LAYER = "src/metrics/table.cpp"

STDOUT_CALLS = ("printf", "puts", "putchar")
STREAM_PRINTF = ("fprintf", "vfprintf")


def _std_or_unqualified(toks, i):
    """toks[i] is spelled `name` or `std::name`, not `x::name`."""
    if i == 0 or toks[i - 1].spelling != "::":
        return True
    return std_name(toks, i) != "" and (
        i < 3 or toks[i - 3].spelling != "::"
    )


def _stdout_write(toks, i):
    """What printf-family write to stdout toks[i] starts, or ''."""
    name = toks[i].spelling
    if not called(toks, i) or not _std_or_unqualified(toks, i):
        return ""
    if name in STDOUT_CALLS:
        return name + "()"
    if (
        name in STREAM_PRINTF
        and i + 2 < len(toks)
        and toks[i + 2].spelling == "stdout"
    ):
        return name + "(stdout)"
    return ""


def _message(rel, toks, i):
    """The finding toks[i] starts, or ''."""
    stream = std_name(toks, i)
    if stream in ("cout", "cerr"):
        return (
            f"std::{stream} — simulator code must not write to "
            "standard streams; reporting goes through the metrics "
            "layer"
        )
    what = _stdout_write(toks, i)
    if what and rel != REPORTING_LAYER:
        return (
            f"{what} — stdout output is reserved for the terminal "
            f"reporting layer ({REPORTING_LAYER})"
        )
    return ""


def run(ctx):
    for rel, fm in ctx.files():
        for i, t in enumerate(fm.tokens):
            message = _message(rel, fm.tokens, i)
            if message:
                ctx.emit(rel, t.line, NAME, message, CONTRACT)
