"""hotpath: no node-based containers on the per-cycle paths.

The strict run loop walks the memory system's and the SMs' structures
every cycle, and std::deque, std::map and std::unordered_map cost a
cache miss per element there (DESIGN.md section 14). In src/mem/,
src/sm/ and src/gpu.{hpp,cpp} use RingBuf (sim/ringbuf.hpp),
MshrTable's flat table or a sorted vector; a cold-path use
(fault-injection holding pens, snapshot walks) carries a waiver that
doubles as documentation.
"""

from . import std_name

NAME = "hotpath"
CONTRACT = (
    "the per-cycle simulation paths (src/mem/, src/sm/, src/gpu.*) "
    "hold no std::deque/std::map/std::unordered_map outside waived "
    "cold paths (DESIGN.md section 14)"
)

HOT_DIRS = ("src/mem/", "src/sm/")
HOT_FILES = ("src/gpu.hpp", "src/gpu.cpp")
NODE_CONTAINERS = ("deque", "map", "unordered_map")


def run(ctx):
    for rel, fm in ctx.files():
        if not (rel.startswith(HOT_DIRS) or rel in HOT_FILES):
            continue
        toks = fm.tokens
        for i, t in enumerate(toks):
            if std_name(toks, i) in NODE_CONTAINERS:
                ctx.emit(
                    rel,
                    t.line,
                    NAME,
                    f"std::{t.spelling} in a per-cycle simulation "
                    "path — use RingBuf (sim/ringbuf.hpp) or a flat "
                    "table (DESIGN.md section 14), or waive a "
                    "cold-path use",
                    CONTRACT,
                )
