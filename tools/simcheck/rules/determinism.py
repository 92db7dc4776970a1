"""determinism-hazard: constructs whose observable effect depends on
hash-table layout, pointer values, ambient entropy or the wall clock.

Five hazards, all of which have reproduced as replay divergence in
simulators of this class:

  1. Iteration over std::unordered_map/unordered_set. Bucket order is
     implementation- and ASLR-dependent; any effect of the loop that
     is not provably commutative (a write to simulator state, metrics
     output, a journal/wire append) makes run output
     machine-dependent. The sink classifier names what the loop body
     touches; a loop with no recognizable sink still flags, because
     un-classifiable flow is exactly the dangerous kind. Provably
     order-independent walks are waived with
     SIMCHECK-ALLOW(determinism-hazard): reason.
  2. Ordered containers keyed by pointers (std::map<T*,..>,
     std::set<T*>): iteration order is allocation order.
  3. std::hash<T*> instantiations: hashes differ across runs.
  4. `<`/`>` between two pointer-typed variables outside a container
     comparator: ordering by address.
  5. Ad-hoc randomness and wall-clock reads: rand()/srand(), the
     <random> engines and distributions, the std::chrono clocks,
     gettimeofday(), clock_gettime(), the POSIX timers
     (timer_create(), setitimer()), the TSC (__builtin_ia32_rdtsc()),
     time(NULL) and clock(). All randomness flows
     through the seeded counter RNG in src/sim/rng.hpp, the one
     exempt file; host-side timing that never reaches simulated
     state (profiling, service liveness) is waived where it is read.
"""

from . import called

NAME = "determinism-hazard"
CONTRACT = (
    "simulator results must be a pure function of (config, workload, "
    "seed): no observable effect may depend on hash-bucket order, "
    "pointer values, ambient entropy or the wall clock (DESIGN.md "
    "section 15)"
)

RNG_FILE = "src/sim/rng.hpp"

# Names that are entropy or clock sources wherever they appear...
ENTROPY_NAMES = {
    "random_device": "std::random_device",
    "mt19937": "std::mt19937",
    "mt19937_64": "std::mt19937",
    "default_random_engine": "std::default_random_engine",
    "uniform_int_distribution": "<random> distribution",
    "uniform_real_distribution": "<random> distribution",
    "system_clock": "std::chrono clock",
    "steady_clock": "std::chrono clock",
    "high_resolution_clock": "std::chrono clock",
}
# ...and functions that are one when called.
ENTROPY_CALLS = {
    "rand": "rand()/srand()",
    "srand": "rand()/srand()",
    "gettimeofday": "gettimeofday()",
    "clock_gettime": "clock_gettime()",
    "timer_create": "timer_create()",
    "setitimer": "setitimer()",
    "__builtin_ia32_rdtsc": "__builtin_ia32_rdtsc()",
}

UNORDERED = (
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
)

ORDERED_KEYED = ("map", "set", "multimap", "multiset")

# Method/function names whose call inside an unordered walk is an
# order-sensitive sink (state mutation, output, journal/wire writes).
SINK_CALLS = frozenset(
    """push_back emplace_back append insert emplace write writeFrame
    u8 u16 u32 u64 i64 f64 str vecU64 section unit resolve record
    emit add log print flush send post enqueue""".split()
)


def _first_template_arg(type_spelling):
    """'std::map<Foo *, Bar>' -> 'Foo *'; '' when not templated."""
    i = type_spelling.find("<")
    if i < 0:
        return ""
    depth = 0
    start = i + 1
    for j in range(i, len(type_spelling)):
        c = type_spelling[j]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return type_spelling[start:j].strip()
        elif c == "," and depth == 1:
            return type_spelling[start:j].strip()
    return ""


def _container_head(type_spelling):
    s = type_spelling.replace("const ", " ")
    s = s.split("<", 1)[0]
    return s.rsplit("::", 1)[-1].strip(" &*")


def _is_pointer(type_arg):
    return type_arg.rstrip().endswith("*")


def _classify_sink(body):
    """Name the first order-sensitive effect in a loop body, or ''."""
    n = len(body)
    for i, t in enumerate(body):
        s = t.spelling
        if s == "<<":
            return "streams output ('<<')"
        if t.kind == "ident" and i + 1 < n and (
            body[i + 1].spelling == "("
        ):
            if s in SINK_CALLS:
                return f"calls '{s}(...)'"
        if s == "=" and i > 0:
            prev = body[i - 1]
            if prev.kind == "ident" and prev.spelling.endswith("_"):
                return f"writes member '{prev.spelling}'"
            if prev.spelling == "]":
                return "writes through an indexed lvalue"
        if s in ("+=", "-=", "|=", "&=", "^="):
            # Commutative reductions into a scalar are order-safe for
            # integers but NOT for floats; report only float-ish or
            # member targets.
            if i > 0 and body[i - 1].kind == "ident" and (
                body[i - 1].spelling.endswith("_")
            ):
                return (
                    f"accumulates into member "
                    f"'{body[i - 1].spelling}'"
                )
    return ""


def _entropy_source(toks, i):
    """What toks[i] reads of ambient entropy or time, or ''."""
    if toks[i].kind != "ident":
        return ""
    s = toks[i].spelling
    if s in ENTROPY_NAMES:
        return ENTROPY_NAMES[s]
    if not called(toks, i):
        return ""
    if s in ENTROPY_CALLS:
        return ENTROPY_CALLS[s]
    args = [t.spelling for t in toks[i + 2 : i + 4]]
    if s == "time" and args[1:] == [")"] and (
        args[0] in ("NULL", "nullptr", "0")
    ):
        return "time()"
    if s == "clock" and args[:1] == [")"]:
        return "clock()"
    return ""


def run(ctx):
    model = ctx.model

    # 1. unordered-container iteration.
    for fm, lp in model.all_loops():
        if not ctx.in_scope(fm.path):
            continue
        head = _container_head(lp.range_type)
        if head not in UNORDERED:
            continue
        sink = _classify_sink(lp.body)
        effect = (
            sink
            if sink
            else "order-dependent effects could not be ruled out"
        )
        ctx.emit(
            fm.path,
            lp.line,
            NAME,
            f"iteration over '{lp.range_spelling}' "
            f"(std::{head}) — bucket order is not deterministic "
            f"across hosts/runs and the loop {effect}; iterate a "
            "key-sorted copy, iterate the submission-order job "
            "list instead, or waive a provably order-independent "
            "walk",
            CONTRACT,
        )

    for rel, fm in ctx.files():
        # 2. pointer-keyed ordered containers (fields, locals,
        # params, aliases).
        decls = [
            (f.line, f.type_spelling, f.name)
            for c in fm.classes
            for f in c.fields
        ]
        decls += [
            (d.line, d.type_spelling, d.name) for d in fm.var_decls
        ]
        decls += [(0, target, name)
                  for name, target in fm.aliases.items()]
        for line, type_sp, name in decls:
            head = _container_head(type_sp)
            if head in ORDERED_KEYED:
                key = _first_template_arg(type_sp)
                if _is_pointer(key):
                    ctx.emit(
                        rel,
                        line,
                        NAME,
                        f"'{name}' is a std::{head} keyed by "
                        f"'{key}' — iteration order is allocation "
                        "order, which varies run to run; key by a "
                        "stable id (KernelId, SmId, content hash) "
                        "instead",
                        CONTRACT,
                    )

        # 3. std::hash<T*>.
        toks = fm.tokens
        for i, t in enumerate(toks):
            if t.kind != "ident" or t.spelling != "hash":
                continue
            if i + 1 >= len(toks) or toks[i + 1].spelling != "<":
                continue
            if i >= 1 and toks[i - 1].spelling not in ("::",):
                continue
            depth = 0
            arg = []
            for j in range(i + 1, min(i + 40, len(toks))):
                s = toks[j].spelling
                if s == "<":
                    depth += 1
                    if depth == 1:
                        continue
                elif s == ">":
                    depth -= 1
                    if depth == 0:
                        break
                arg.append(s)
            arg_sp = " ".join(arg)
            if _is_pointer(arg_sp):
                ctx.emit(
                    rel,
                    t.line,
                    NAME,
                    f"std::hash<{arg_sp}> — pointer hashes differ "
                    "across runs (ASLR); hash a stable id or the "
                    "content key instead",
                    CONTRACT,
                )

        # 4. pointer '<'/'>' comparisons between known pointer vars.
        ptr_names = set()
        for c in fm.classes:
            for f in c.fields:
                if _is_pointer(f.type_spelling):
                    ptr_names.add(f.name)
        for d in fm.var_decls:
            if _is_pointer(d.type_spelling):
                ptr_names.add(d.name)
        for i in range(1, len(toks) - 1):
            t = toks[i]
            if t.kind != "punct" or t.spelling not in ("<", ">"):
                continue
            a, b = toks[i - 1], toks[i + 1]
            if (
                a.kind == "ident"
                and b.kind == "ident"
                and a.spelling in ptr_names
                and b.spelling in ptr_names
                # `x < y (` would be a template instantiation of a
                # function pointer — not with two variables.
            ):
                ctx.emit(
                    rel,
                    t.line,
                    NAME,
                    f"pointer comparison '{a.spelling} "
                    f"{t.spelling} {b.spelling}' orders by "
                    "address, which varies run to run; compare "
                    "stable ids instead",
                    CONTRACT,
                )

        # 5. ad-hoc randomness and wall-clock reads.
        if rel == RNG_FILE:
            continue
        seen = set()
        for i, t in enumerate(toks):
            what = _entropy_source(toks, i)
            if not what or (t.line, what) in seen:
                continue
            seen.add((t.line, what))
            ctx.emit(
                rel,
                t.line,
                NAME,
                f"{what} — route all randomness through "
                f"{RNG_FILE} and never read the wall clock in "
                "simulation code",
                CONTRACT,
            )
