"""snapshot-coverage: snapshot completeness on the parsed model.

A name-matching check cannot see three things this rule can:

  * inherited members — fields a class gets from a base that has no
    snapshot pair of its own are the derived class's responsibility;
  * helper indirection — a private `snapshotQueues(w)` or a free
    `snapshotKernelStats(w, s)` helper serializes members the
    snapshot body never names (the effective body here is the
    snapshot/restore bodies plus, transitively, every called
    helper's body);
  * comment/string noise — a member named in a doc comment is not a
    token of the body.

A field is covered when its name appears as a token in the effective
snapshot and restore bodies, or it carries
`// SIMCHECK-ALLOW(snapshot-coverage): reason` (fixed at
construction, derived and rebuilt on restore, scratch, or an
observer the owner rebinds).

When a base class has its own snapshot pair, the derived effective
body must mention the base (Base::snapshot(w) / Base::restore(r) or
any token of the base name) — a silently-dropped base subobject is
the inheritance-shaped version of a forgotten field.
"""

from .uninit_member import is_snapshot_bearing

NAME = "snapshot-coverage"
CONTRACT = (
    "every non-static data member of a snapshot-bearing class "
    "(including inherited members) is serialized by "
    "snapshot()/restore() — directly or through helpers — or carries "
    "an explicit skip waiver (DESIGN.md section 15)"
)

_HELPERY = ("snapshot", "restore")


def _effective_body(cls, fn_index, side, max_depth=3):
    """Token-name set of one side's body ('snapshot' or 'restore')
    plus the bodies of transitively called helpers (methods of the
    class, and free functions whose name mentions
    snapshot/restore)."""
    names = set()
    own_methods = {m.name for m in cls.methods}
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
            if i + 1 < len(body) and body[i + 1].spelling == "(":
                callee = t.spelling
                is_helper = (
                    callee in own_methods
                    or any(h in callee.lower() for h in _HELPERY)
                )
                if not is_helper or callee in visited:
                    continue
                visited.add(callee)
                for m in fn_index.get(callee, ()):
                    walk(m.body, depth + 1)

    for m in cls.methods:
        if m.name == side:
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

        # Coverage is judged per side: a field present in restore()
        # but dropped from snapshot() is exactly the asymmetry that
        # corrupts checkpoints, so a union of the two bodies would
        # mask the bug.
        saved = _effective_body(cls, fn_index, "snapshot")
        restored = _effective_body(cls, fn_index, "restore")
        covered = saved | restored

        # Required fields: own ones, plus fields inherited from bases
        # that cannot serialize themselves.
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
                        f"'{base_name}', which has its own "
                        "snapshot/restore pair, but never invokes "
                        f"it ('{base_name}::snapshot'/'restore' "
                        "do not appear in the snapshot bodies) — "
                        "the base subobject is silently dropped "
                        "from checkpoints",
                        CONTRACT,
                    )
            else:
                required += [(base, f) for f in base.fields]

        for owner, f in required:
            if f.is_static:
                continue
            if f.name in saved and f.name in restored:
                continue
            inherited = (
                f" (inherited from '{owner.name}')"
                if owner is not cls
                else ""
            )
            if f.name not in covered:
                what = (
                    "is never serialized — no token of its name "
                    "reaches the effective snapshot()/restore() "
                    "bodies (helpers included)"
                )
            elif f.name in restored:
                what = (
                    "is read back by restore() but never written "
                    "by snapshot() — restores will consume bytes "
                    "that were never produced"
                )
            else:
                what = (
                    "is written by snapshot() but never read back "
                    "by restore() — the value is silently lost "
                    "across a checkpoint round-trip"
                )
            ctx.emit(
                f.file,
                f.line,
                NAME,
                f"member '{f.name}'{inherited} of snapshot-bearing "
                f"class '{cls.name}' {what}; serialize it on both "
                "sides (and bump kSnapshotFormatVersion) or waive "
                "with `// SIMCHECK-ALLOW(snapshot-coverage): reason`",
                CONTRACT,
            )
