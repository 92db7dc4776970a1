"""snapshot-coverage: checkpoint completeness on the parsed model.

A snapshot-bearing class lists its members once, in its state walk
(`static void state(Ar &ar, Self &self)`, sim/snapshot.hpp): the
writer and the reader run the same body, so one effective body is
judged. A name-matching check cannot see three things this rule can:

  * inherited members — fields a class gets from a base that has no
    walk of its own are the derived class's responsibility;
  * helper indirection — a method of the class or a free `walk*`
    helper the walk calls visits members the walk never names (the
    effective body is the walk plus, transitively, every called
    helper's body);
  * comment/string noise — a member named in a doc comment is not a
    token of the body.

`afterRestore()` is not part of the effective body: it rebuilds
derived state after a restore and serializes nothing, so a member
named only there is not covered.

A field is covered when its name appears as a token in the effective
body, or it carries `// SIMCHECK-ALLOW(snapshot-coverage): reason`
(fixed at construction, derived and rebuilt after a restore,
scratch, or an observer the owner rebinds).

When a base class has its own walk, the derived effective body must
mention the base (`Base::state(ar, self)` or any token of the base
name) — a silently-dropped base subobject is the inheritance-shaped
version of a forgotten field.
"""

from .uninit_member import is_snapshot_bearing, state_walks

NAME = "snapshot-coverage"
CONTRACT = (
    "every non-static data member of a snapshot-bearing class "
    "(including inherited members) is visited by its state() walk — "
    "directly or through helpers — or carries an explicit skip "
    "waiver (DESIGN.md section 15)"
)

# Restore-only work: runs after the walk and serializes nothing.
_HOOK = "afterRestore"


def _effective_body(cls, fn_index, max_depth=3):
    """Token-name set of the class's walk plus the bodies of
    transitively called helpers: its own methods (called on `self`,
    on `this` or unqualified; the restore hook excluded) and free
    `walk*` functions. Calls on the archive (`ar.length(...)`) and
    other components' walks (`X::state(...)`) are not helpers: they
    visit members of other objects."""
    names = set()
    own_methods = {}
    for m in cls.methods:
        if m.name != _HOOK:
            own_methods.setdefault(m.name, []).append(m)
    walks = state_walks(cls)
    selves = {"self", "this"} | {
        m.params[1].name for m in walks if m.params[1].name
    }
    visited = set()

    def walk(body, depth):
        if body is None:
            return
        for i, t in enumerate(body):
            if t.kind != "ident":
                continue
            names.add(t.spelling)
            if depth >= max_depth:
                continue
            if i + 1 >= len(body) or body[i + 1].spelling != "(":
                continue
            callee = t.spelling
            prev = body[i - 1].spelling if i > 0 else ""
            if prev in (".", "->"):
                on_self = i >= 2 and body[i - 2].spelling in selves
                helpers = own_methods.get(callee, ()) if on_self else ()
            elif prev == "::":
                helpers = ()
            elif callee in own_methods:
                helpers = own_methods[callee]
            elif callee.startswith("walk"):
                helpers = fn_index.get(callee, ())
            else:
                helpers = ()
            if not helpers or callee in visited:
                continue
            visited.add(callee)
            for m in helpers:
                walk(m.body, depth + 1)

    for m in walks:
        walk(m.body, 0)
    return names


def run(ctx):
    model = ctx.model
    classes = model.classes_by_name()
    fn_index = model.functions_by_name()

    for fm, cls in model.all_classes():
        if not ctx.in_scope(fm.path):
            continue
        if not is_snapshot_bearing(cls):
            continue

        covered = _effective_body(cls, fn_index)

        # Required fields: own ones, plus fields inherited from bases
        # that cannot walk themselves.
        required = [(cls, f) for f in cls.fields]
        for base_name in cls.bases:
            base = classes.get(base_name)
            if base is None:
                continue
            if is_snapshot_bearing(base):
                if base_name not in covered:
                    ctx.emit(
                        cls.file,
                        cls.line,
                        NAME,
                        f"class '{cls.name}' inherits from "
                        f"'{base_name}', which has its own state() "
                        "walk, but never invokes it "
                        f"('{base_name}::state' does not appear in "
                        "the walk) — the base subobject is silently "
                        "dropped from checkpoints",
                        CONTRACT,
                    )
            else:
                required += [(base, f) for f in base.fields]

        for owner, f in required:
            if f.is_static or f.name in covered:
                continue
            inherited = (
                f" (inherited from '{owner.name}')"
                if owner is not cls
                else ""
            )
            ctx.emit(
                f.file,
                f.line,
                NAME,
                f"member '{f.name}'{inherited} of snapshot-bearing "
                f"class '{cls.name}' is never serialized — no token "
                "of its name reaches the effective state() walk "
                "(helpers included, afterRestore() excluded); visit "
                "it (and bump kSnapshotFormatVersion) or waive with "
                "`// SIMCHECK-ALLOW(snapshot-coverage): reason`",
                CONTRACT,
            )
