"""uninit-member: scalar fields of snapshot-bearing classes must be
initialized — in-class or in every constructor's member-init list.

An uninitialized int/bool/pointer/enum field in a snapshotted class is
the classic divergence seed: two runs construct the object with
different stack/heap garbage, the field is serialized (or influences
what is), and replay diverges with no error. Class-typed members are
exempt (their default constructors run); arrays of scalars are not.
"""

NAME = "uninit-member"
CONTRACT = (
    "every scalar data member of a class participating in "
    "snapshot/restore must have a deterministic initial value: an "
    "in-class initializer or coverage in every constructor's "
    "member-init list (DESIGN.md section 15)"
)

SCALAR_HEADS = frozenset(
    """int unsigned long short char bool float double size_t
    ssize_t ptrdiff_t intptr_t uintptr_t int8_t int16_t int32_t
    int64_t uint8_t uint16_t uint32_t uint64_t pid_t off_t time_t
    signed wchar_t char8_t char16_t char32_t""".split()
)


def state_walks(cls):
    """The class's checkpoint walks: static `state(ar, self, ...)`
    members (the in-class declaration and any attached out-of-line
    definition)."""
    return [
        m
        for m in cls.methods
        if m.name == "state" and m.is_static and len(m.params) >= 2
    ]


def is_snapshot_bearing(cls):
    """Declares a checkpoint walk: `static void state(Ar &ar, Self
    &self)` (sim/snapshot.hpp)."""
    return bool(state_walks(cls))


def _is_scalar_type(type_sp, enum_names):
    s = type_sp.replace("const", " ").replace("volatile", " ")
    s = s.replace("&", " ").strip()
    if not s:
        return False
    if s.endswith("*"):
        return True
    if "<" in s:  # templated => class type
        return False
    head = s.rsplit("::", 1)[-1].strip()
    parts = head.split()
    if all(p in SCALAR_HEADS for p in parts) and parts:
        return True
    if head in enum_names:
        return True
    return False


def run(ctx):
    enum_names = ctx.model.enum_names()
    for fm, cls in ctx.model.all_classes():
        if not ctx.in_scope(fm.path):
            continue
        if not is_snapshot_bearing(cls):
            continue
        ctors = [m for m in cls.methods if m.is_ctor]
        # Constructors that neither have a body nor an init list in
        # the model (pure declarations whose definitions were not
        # found, `= default`, `= delete`) count as covering nothing.
        for f in cls.fields:
            if f.is_static or f.has_initializer:
                continue
            if not _is_scalar_type(f.type_spelling, enum_names):
                continue
            if ctors and all(
                any(name == f.name for name, _ in c.init_list)
                for c in ctors
                if True
            ):
                continue
            where = (
                "no constructor covers it"
                if not ctors
                else "not every constructor's init list covers it"
            )
            ctx.emit(
                f.file,
                f.line,
                NAME,
                f"field '{f.name}' ({f.type_spelling}) of "
                f"snapshot-bearing class '{cls.name}' has no "
                f"in-class initializer and {where} — its initial "
                "value is construction garbage, the classic "
                "replay-divergence seed",
                CONTRACT,
            )
