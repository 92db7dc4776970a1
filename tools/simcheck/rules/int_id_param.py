"""int-id-param: identities in headers use the strong types.

A header must not declare an integer named *_id or *_slot: those are
exactly the values the strong types in sim/types.hpp exist for
(KernelId, SmId, WarpSlot), and a raw int there is how a kernel id
ends up passed as a warp slot. Positional indices that are not
identities (an L2 partition, a DRAM channel) stay integers and are
named *_index.
"""

import re

NAME = "int-id-param"
CONTRACT = (
    "public headers pass identities as KernelId/SmId/WarpSlot, never "
    "as integers named *_id or *_slot (DESIGN.md section 15)"
)

INT_TYPE_RE = re.compile(
    r"int|unsigned|long|short|size_t|u?int(?:8|16|32|64)_t"
)
ID_NAME_RE = re.compile(r"\w*_(?:id|slot)")


def run(ctx):
    for rel, fm in ctx.files():
        if not rel.endswith(".hpp"):
            continue
        toks = fm.tokens
        for i in range(1, len(toks)):
            t = toks[i]
            if (
                t.kind == "ident"
                and ID_NAME_RE.fullmatch(t.spelling)
                and INT_TYPE_RE.fullmatch(toks[i - 1].spelling)
            ):
                ctx.emit(
                    rel,
                    t.line,
                    NAME,
                    f"integer parameter '{t.spelling}' — use the "
                    "strong types from sim/types.hpp (KernelId, SmId, "
                    "WarpSlot) or rename to *_index if it is a "
                    "positional index",
                    CONTRACT,
                )
