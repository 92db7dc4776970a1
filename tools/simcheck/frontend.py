"""Frontend selection + model finalization.

`load_model` prefers the libclang frontend (real ASTs, the CI
configuration) and degrades to the self-contained fallback parser
when libclang is absent — same model type, same rules, so the
analyzer stays useful on any host with a Python interpreter.
"""

import os
import sys

from . import clang_frontend, fallback_frontend
from .model import Model


def enumerate_sources(repo_root, paths):
    """Expand repo-relative path arguments into a sorted list of
    repo-relative .hpp/.cpp files."""
    out = []
    for p in paths:
        full = os.path.join(repo_root, p)
        if os.path.isfile(full):
            out.append(os.path.relpath(full, repo_root))
            continue
        for dirpath, _, names in os.walk(full):
            for name in sorted(names):
                if not name.endswith((".hpp", ".cpp", ".h", ".cc")):
                    continue
                out.append(
                    os.path.relpath(
                        os.path.join(dirpath, name), repo_root
                    )
                )
    return sorted(set(out))


def attach_out_of_line(model):
    """Attach `Cls::method` definitions found at namespace scope to
    their class's declaration, so rules see bodies and ctor init
    lists that live in sibling .cpp files."""
    classes = model.classes_by_name()
    for fm in model.files.values():
        for fn in fm.free_functions:
            if "::" not in fn.name:
                continue
            qual, base = fn.name.rsplit("::", 1)
            cls = classes.get(qual.split("::")[-1])
            if cls is None:
                continue
            target = None
            for m in cls.methods:
                if m.name != base:
                    continue
                if m.body is None and (
                    len(m.params) == len(fn.params)
                ):
                    target = m
                    break
                if m.body is None and target is None:
                    target = m
            if target is not None:
                target.body = fn.body
                if fn.init_list:
                    target.init_list = fn.init_list
            else:
                # Definition with no visible declaration (declared
                # via macro or unparsed region): add it.
                import copy

                m = copy.copy(fn)
                m.name = base
                cls.methods.append(m)


def _expand_alias(type_spelling, aliases, depth=4):
    sp = type_spelling
    for _ in range(depth):
        head = sp.split("<", 1)[0].strip()
        head = head.replace("const ", "").strip(" &*")
        head = head.rsplit("::", 1)[-1]
        if head in aliases and aliases[head] != sp:
            sp = aliases[head]
        else:
            break
    return sp


def _field_type(cls, name, classes, depth=3):
    for f in cls.fields:
        if f.name == name:
            return f.type_spelling
    if depth > 0:
        for b in cls.bases:
            base = classes.get(b.rsplit("::", 1)[-1])
            if base is not None:
                ty = _field_type(base, name, classes, depth - 1)
                if ty:
                    return ty
    return ""


def resolve_member_loops(model):
    """Second resolution pass for range-for loops whose range is a
    class member referenced from an out-of-line method body: the
    parser could not see the field then, the merged model can now."""
    classes = model.classes_by_name()
    aliases = {}
    for fm in model.files.values():
        aliases.update(fm.aliases)
    for fm in model.files.values():
        for lp in fm.loops:
            if lp.range_type:
                continue
            sp = lp.range_spelling.replace("this ->", "")
            sp = sp.replace("this->", "").strip()
            if not sp.isidentifier():
                continue
            candidates = []
            if lp.enclosing_class:
                candidates.append(lp.enclosing_class)
            fn = lp.enclosing_function or ""
            if "::" in fn:
                candidates.extend(reversed(fn.split("::")[:-1]))
            for cname in candidates:
                cls = classes.get(cname)
                if cls is None:
                    continue
                ty = _field_type(cls, sp, classes)
                if ty:
                    lp.range_type = _expand_alias(ty, aliases)
                    break


def load_model(repo_root, build_dir, paths, frontend="auto",
               stderr=sys.stderr):
    """Returns (model, sources). Raises clang_frontend.
    FrontendUnavailable when frontend='clang' cannot run."""
    sources = enumerate_sources(repo_root, paths)
    src_set = set(sources)

    model = None
    if frontend in ("auto", "clang"):
        try:
            model = clang_frontend.load(
                repo_root,
                build_dir or os.path.join(repo_root, "build"),
                src_set,
            )
            # TU-driven parsing reaches headers through includes;
            # parse any requested file the TUs never touched with
            # the fallback so scope stays complete.
            for rel in sources:
                if rel not in model.files:
                    _parse_into(model, repo_root, rel)
        except clang_frontend.FrontendUnavailable as e:
            if frontend == "clang":
                raise
            print(
                "simcheck: libclang unavailable ("
                + str(e)
                + "); using the self-contained fallback frontend",
                file=stderr,
            )

    if model is None:
        model = Model()
        model.frontend = "fallback"
        for rel in sources:
            _parse_into(model, repo_root, rel)

    attach_out_of_line(model)
    resolve_member_loops(model)
    return model, sources


def _parse_into(model, repo_root, rel):
    full = os.path.join(repo_root, rel)
    try:
        with open(full, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError:
        return
    model.add_file(fallback_frontend.parse_source(rel, text))
