"""The semantic model the parser produces and the rules read.

Rules never see parser internals — they see this model, plus each
file's token stream for the rules that match tokens directly.

Everything carries (file, line) so findings are clickable, and method
bodies are kept as token streams (kind/spelling/line) so rules can do
flow-ish queries (what is called, what is assigned, which names
appear) without re-reading source text.
"""

from dataclasses import dataclass, field


@dataclass
class Param:
    name: str
    type_spelling: str


@dataclass
class Method:
    name: str
    file: str
    line: int
    params: list  # [Param]
    return_type: str  # best effort; "" when unknown (ctor/dtor)
    is_ctor: bool = False
    is_static: bool = False
    is_virtual: bool = False
    # Token list of the body ({...} content) when the definition was
    # seen (in-class or out-of-line); None for pure declarations.
    body: list = None
    # Constructor member-init-list entries: [(member_name, line)].
    init_list: list = field(default_factory=list)


@dataclass
class Field:
    name: str
    file: str
    line: int
    type_spelling: str
    has_initializer: bool
    is_static: bool = False


@dataclass
class ClassInfo:
    name: str
    file: str
    line: int
    bases: list = field(default_factory=list)  # base-class names
    fields: list = field(default_factory=list)  # [Field]
    methods: list = field(default_factory=list)  # [Method]

    def method(self, name):
        return [m for m in self.methods if m.name == name]

    def ctors(self):
        return [m for m in self.methods if m.is_ctor]


@dataclass
class RangeForLoop:
    file: str
    line: int
    # Spelling of the range expression, e.g. "by_key_" or
    # "journal.records()".
    range_spelling: str
    # Resolved (alias-expanded) type of the range expression, "" when
    # resolution failed.
    range_type: str
    body: list  # token list of the loop body
    enclosing_class: str  # "" at namespace scope
    enclosing_function: str


@dataclass
class VarDecl:
    """A named declaration with a resolved type: field, param, local,
    or type alias target — the determinism rule's raw material."""

    name: str
    file: str
    line: int
    type_spelling: str
    kind: str  # 'field' | 'local' | 'param' | 'alias'


@dataclass
class FileModel:
    path: str  # as given (repo-relative where possible)
    tokens: list = field(default_factory=list)  # full token stream
    classes: list = field(default_factory=list)  # [ClassInfo]
    enums: list = field(default_factory=list)  # enum type names
    aliases: dict = field(default_factory=dict)  # name -> target spelling
    free_functions: list = field(default_factory=list)  # [Method]
    loops: list = field(default_factory=list)  # [RangeForLoop]
    var_decls: list = field(default_factory=list)  # [VarDecl]
    lines: list = field(default_factory=list)  # raw source lines


class Model:
    """Whole-analysis view: every parsed file plus cross-file indexes."""

    def __init__(self):
        self.files = {}  # path -> FileModel

    def add_file(self, fm):
        self.files[fm.path] = fm

    # ---- cross-file indexes (built lazily) ---------------------------

    def classes_by_name(self):
        idx = {}
        for fm in self.files.values():
            for c in fm.classes:
                # First definition wins; redefinitions across TUs are
                # the same class re-parsed from a shared header.
                idx.setdefault(c.name, c)
        return idx

    def enum_names(self):
        names = set()
        for fm in self.files.values():
            names.update(fm.enums)
        return names

    def functions_by_name(self):
        """name -> [Method] across free functions and all class
        methods that have bodies (for helper-indirection searches)."""
        idx = {}
        for fm in self.files.values():
            for f in fm.free_functions:
                if f.body is not None:
                    idx.setdefault(f.name, []).append(f)
            for c in fm.classes:
                for m in c.methods:
                    if m.body is not None:
                        idx.setdefault(m.name, []).append(m)
        return idx

    def all_classes(self):
        for fm in self.files.values():
            for c in fm.classes:
                yield fm, c

    def all_loops(self):
        for fm in self.files.values():
            for lp in fm.loops:
                yield fm, lp
