"""simcheck's C++ parser: pure Python, no dependencies.

A recursive scanner over the lexer's token stream that recovers the
slice of C++ semantics the rules need: class definitions with base
lists, fields with types and initializers, method signatures with
bodies (including out-of-line `Cls::method` definitions in sibling
.cpp files), constructor member-init lists, enum names, type aliases,
range-for loops with resolved range types, and typed local/param
declarations.

It is deliberately *not* a full parser: anything it cannot parse it
skips to the next statement or matching brace, so unparsed constructs
cost coverage, never crashes or phantom findings. The golden fixtures
under tests/simcheck_fixtures/ pin the constructs it must get right.
"""

from .lexer import lex, match_brace, match_paren, spell
from .model import (
    ClassInfo,
    Field,
    FileModel,
    Method,
    Param,
    RangeForLoop,
    VarDecl,
)

# Tokens that may prefix a declaration without being part of its type.
DECL_SPECIFIERS = frozenset(
    """static mutable constexpr consteval constinit inline virtual
    explicit friend extern thread_local register typename""".split()
)

# Statement keywords that can never start a declaration we care about.
STMT_KEYWORDS = frozenset(
    """return if else while for do switch case default break continue
    goto try catch throw delete new sizeof co_return co_yield
    co_await""".split()
)


def _is_type_start(tok):
    return tok.kind == "ident" or (
        tok.kind == "kw"
        and tok.spelling
        in (
            "const",
            "volatile",
            "unsigned",
            "signed",
            "int",
            "long",
            "short",
            "char",
            "bool",
            "float",
            "double",
            "void",
            "auto",
            "decltype",
        )
    )


class _Parser:
    def __init__(self, path, text):
        self.fm = FileModel(path=path)
        self.fm.lines = text.splitlines()
        self.toks = [t for t in lex(text)]
        self.fm.tokens = self.toks

    # ---- helpers -----------------------------------------------------

    def _skip_attrs(self, i):
        """Skip [[...]] attribute sequences and alignas(...)."""
        toks = self.toks
        while i + 1 < len(toks):
            if (
                toks[i].spelling == "["
                and toks[i + 1].spelling == "["
            ):
                depth = 0
                while i < len(toks):
                    if toks[i].spelling == "[":
                        depth += 1
                    elif toks[i].spelling == "]":
                        depth -= 1
                        if depth == 0:
                            i += 1
                            break
                    i += 1
            elif toks[i].spelling == "alignas" and (
                toks[i + 1].spelling == "("
            ):
                i = match_paren(self.toks, i + 1)
            else:
                break
        return i

    def _skip_template_header(self, i):
        """i is at 'template'; return index past its <...> header."""
        toks = self.toks
        i += 1
        if i < len(toks) and toks[i].spelling == "<":
            depth = 0
            while i < len(toks):
                s = toks[i].spelling
                if s == "<":
                    depth += 1
                elif s == ">":
                    depth -= 1
                    if depth == 0:
                        return i + 1
                elif s == ">>":
                    depth -= 2
                    if depth <= 0:
                        return i + 1
                i += 1
        return i

    def _statement_end(self, i):
        """Index past the ';' ending the statement at i, honoring
        nested (), [], {} groups."""
        toks = self.toks
        n = len(toks)
        while i < n:
            s = toks[i].spelling
            if s == ";":
                return i + 1
            if s == "(":
                i = match_paren(toks, i)
                continue
            if s == "{":
                i = match_brace(toks, i)
                # `struct X {...};` still needs its ';', but lone
                # compound statements do not — accept either.
                if i < n and toks[i].spelling == ";":
                    return i + 1
                return i
            if s == "[":
                depth = 0
                while i < n:
                    if toks[i].spelling == "[":
                        depth += 1
                    elif toks[i].spelling == "]":
                        depth -= 1
                        if depth == 0:
                            break
                    i += 1
                i += 1
                continue
            i += 1
        return n

    # ---- top level ---------------------------------------------------

    def parse(self):
        self._scan_scope(0, len(self.toks), cls=None)
        return self.fm

    def _scan_scope(self, i, end, cls):
        toks = self.toks
        while i < end:
            t = toks[i]
            s = t.spelling

            if t.kind == "pp":
                i += 1
                continue
            if s == ";":
                i += 1
                continue
            if s == "template":
                i = self._skip_template_header(i)
                continue
            if s == "namespace":
                i = self._parse_namespace(i, end)
                continue
            if s in ("class", "struct", "union"):
                i = self._parse_class_or_skip(i, end)
                continue
            if s == "enum":
                i = self._parse_enum(i)
                continue
            if s == "using":
                i = self._parse_using(i)
                continue
            if s == "typedef":
                i = self._parse_typedef(i)
                continue
            if s == "extern" and i + 1 < end and (
                toks[i + 1].kind == "str"
            ):
                # extern "C" [{...}]
                if i + 2 < end and toks[i + 2].spelling == "{":
                    inner_end = match_brace(toks, i + 2)
                    self._scan_scope(i + 3, inner_end - 1, cls)
                    i = inner_end
                else:
                    i += 2
                continue
            if s == "static_assert":
                i = self._statement_end(i)
                continue

            # Candidate function definition/declaration or variable.
            ni = self._try_parse_function(i, end, cls)
            if ni is not None:
                i = ni
                continue
            i = self._statement_end(i)

    def _parse_namespace(self, i, end):
        toks = self.toks
        j = i + 1
        while j < end and toks[j].spelling not in ("{", ";", "="):
            j += 1
        if j >= end:
            return end
        if toks[j].spelling == "{":
            inner_end = match_brace(toks, j)
            self._scan_scope(j + 1, inner_end - 1, cls=None)
            return inner_end
        # `namespace a = b;` or `;`
        return self._statement_end(j)

    def _parse_enum(self, i):
        toks = self.toks
        j = i + 1
        if j < len(toks) and toks[j].spelling in ("class", "struct"):
            j += 1
        if j < len(toks) and toks[j].kind == "ident":
            self.fm.enums.append(toks[j].spelling)
        return self._statement_end(j)

    def _parse_using(self, i):
        toks = self.toks
        # using NAME = type; | using namespace ...; | using Base::f;
        if i + 2 < len(toks) and toks[i + 2].spelling == "=":
            name = toks[i + 1].spelling
            j = i + 3
            start = j
            while j < len(toks) and toks[j].spelling != ";":
                j += 1
            self.fm.aliases[name] = spell(toks[start:j])
            return j + 1
        return self._statement_end(i)

    def _parse_typedef(self, i):
        toks = self.toks
        j = self._statement_end(i)
        # typedef <type...> NAME ;  (skip function-pointer forms)
        body = toks[i + 1 : j - 1]
        if body and body[-1].kind == "ident" and not any(
            t.spelling == "(" for t in body
        ):
            self.fm.aliases[body[-1].spelling] = spell(body[:-1])
        return j

    # ---- classes -----------------------------------------------------

    def _parse_class_or_skip(self, i, end, register=True):
        """i at class/struct/union. Parse a definition; skip forward
        declarations and variables of anonymous types."""
        toks = self.toks
        j = i + 1
        j = self._skip_attrs(j)
        name = None
        if j < end and toks[j].kind == "ident":
            name = toks[j].spelling
            j += 1
            # Qualified or templated names: Cls<...>::Nested — give up
            # on registering a useful name, still parse the body.
            while j < end and toks[j].spelling in ("<", "::"):
                if toks[j].spelling == "<":
                    depth = 0
                    while j < end:
                        s = toks[j].spelling
                        if s == "<":
                            depth += 1
                        elif s == ">":
                            depth -= 1
                            if depth == 0:
                                j += 1
                                break
                        elif s == ">>":
                            depth -= 2
                            if depth <= 0:
                                j += 1
                                break
                        j += 1
                else:
                    j += 1
                    if j < end and toks[j].kind == "ident":
                        name = toks[j].spelling
                        j += 1
        if j < end and toks[j].spelling == "final":
            j += 1

        bases = []
        if j < end and toks[j].spelling == ":":
            j += 1
            while j < end and toks[j].spelling != "{":
                tk = toks[j]
                if tk.kind == "ident" and tk.spelling not in (
                    "public",
                    "private",
                    "protected",
                    "virtual",
                ):
                    # Last identifier of each base path wins
                    # (std::enable_shared_from_this -> that name).
                    if (
                        j + 1 >= end
                        or toks[j + 1].spelling in (",", "{", "<")
                    ):
                        bases.append(tk.spelling)
                j += 1

        if j >= end or toks[j].spelling != "{":
            # Forward declaration or variable decl of elaborated type.
            return self._statement_end(i)

        body_end = match_brace(toks, j)
        if name is None:
            return self._statement_end(body_end - 1)

        cls = ClassInfo(
            name=name,
            file=self.fm.path,
            line=toks[i].line,
            bases=bases,
        )
        self._parse_class_body(j + 1, body_end - 1, cls)
        if register:
            self.fm.classes.append(cls)
        return self._statement_end(body_end - 1)

    def _parse_class_body(self, i, end, cls):
        toks = self.toks
        while i < end:
            t = toks[i]
            s = t.spelling

            if t.kind == "pp" or s == ";":
                i += 1
                continue
            if s in ("public", "private", "protected") and (
                i + 1 < end and toks[i + 1].spelling == ":"
            ):
                i += 2
                continue
            if s == "template":
                i = self._skip_template_header(i)
                continue
            if s == "friend":
                i = self._statement_end(i)
                continue
            if s in ("class", "struct", "union"):
                i = self._parse_nested(i, end, cls)
                continue
            if s == "enum":
                i = self._parse_enum(i)
                continue
            if s == "using":
                i = self._parse_using(i)
                continue
            if s == "typedef":
                i = self._parse_typedef(i)
                continue
            if s == "static_assert":
                i = self._statement_end(i)
                continue

            i = self._parse_member(i, end, cls)

    def _parse_nested(self, i, end, cls):
        """Nested class/struct inside a class body. Register it as a
        top-level class (simple-name index) AND, when it declares
        fields, keep scanning normally."""
        return self._parse_class_or_skip(i, end)

    # ---- members -----------------------------------------------------

    def _parse_member(self, i, end, cls):
        """Parse one member declaration starting at i; returns the
        index past it. Distinguishes methods (ident followed by '('
        in declarator position) from data members."""
        toks = self.toks
        start = i
        i = self._skip_attrs(i)

        specifiers = set()
        while i < end and (
            toks[i].spelling in DECL_SPECIFIERS
            or toks[i].spelling == "constexpr"
        ):
            specifiers.add(toks[i].spelling)
            i = self._skip_attrs(i + 1)

        # Destructor.
        if i < end and toks[i].spelling == "~":
            j = i + 2
            if j < end and toks[j].spelling == "(":
                after = match_paren(toks, j)
                return self._finish_method(
                    start,
                    after,
                    end,
                    cls,
                    name="~" + toks[i + 1].spelling,
                    ret_tokens=[],
                    param_tokens=[],
                    specifiers=specifiers,
                    name_line=toks[i].line,
                )
            return self._statement_end(i)

        # Walk the declaration head: type tokens, then a declarator.
        head_start = i
        angle = 0
        name_idx = None
        j = i
        while j < end:
            tk = toks[j]
            s = tk.spelling
            if s == "<":
                angle += 1
            elif s == ">" and angle > 0:
                angle -= 1
            elif s == ">>" and angle > 0:
                angle = max(0, angle - 2)
            elif angle == 0:
                if s in (";", "=", "{", "}", ","):
                    break
                if s == "operator":
                    # operator<=, operator(), operator[] ...
                    k = j + 1
                    while k < end and toks[k].spelling != "(":
                        k += 1
                    # operator()(...) : first '(' pair is the name.
                    if (
                        k + 1 < end
                        and toks[k].spelling == "("
                        and toks[k + 1].spelling == ")"
                        and k + 2 < end
                        and toks[k + 2].spelling == "("
                    ):
                        k += 2
                    if k < end:
                        opname = spell(toks[j : k])
                        after = match_paren(toks, k)
                        params = toks[k + 1 : after - 1]
                        return self._finish_method(
                            start,
                            after,
                            end,
                            cls,
                            name=opname,
                            ret_tokens=toks[head_start:j],
                            param_tokens=params,
                            specifiers=specifiers,
                            name_line=tk.line,
                        )
                    return self._statement_end(j)
                if s == "(":
                    # Declarator call: previous ident is the name.
                    if name_idx is not None and (
                        name_idx == j - 1
                        or (
                            # Cls<T> f(... ) — name right before '('.
                            toks[j - 1].kind == "ident"
                        )
                    ):
                        nm_i = j - 1
                        if toks[nm_i].kind != "ident":
                            return self._statement_end(j)
                        after = match_paren(toks, j)
                        return self._finish_method(
                            start,
                            after,
                            end,
                            cls,
                            name=toks[nm_i].spelling,
                            ret_tokens=toks[head_start:nm_i],
                            param_tokens=toks[j + 1 : after - 1],
                            specifiers=specifiers,
                            name_line=toks[nm_i].line,
                        )
                    return self._statement_end(j)
                if tk.kind == "ident":
                    name_idx = j
            j += 1

        # Data member(s).
        return self._finish_fields(
            start, head_start, j, end, cls, specifiers
        )

    def _finish_fields(
        self, start, head_start, stop, end, cls, specifiers
    ):
        """Tokens [head_start, stop) are `type declarator` with stop at
        ';' '=' '{' or ',' (top level). Emit Field records for each
        declarator sharing the type."""
        toks = self.toks
        i = stop
        # Identify first declarator name: last ident in the head that
        # is preceded by at least one other type token.
        seg = toks[head_start:stop]
        if not seg:
            return self._statement_end(start)

        def last_ident(tokens):
            for k in range(len(tokens) - 1, -1, -1):
                if tokens[k].kind == "ident":
                    return k
            return None

        decl_end = self._statement_end(stop if i < end else start)

        # Split everything up to ';' into declarators on top-level
        # commas: type a = x, b{y}, c;
        li = last_ident(seg)
        if li is None or li == 0:
            return decl_end
        type_tokens = seg[:li]
        # Strip trailing array extent from the name side.
        name_tok = seg[li]

        def add_field(name_tok, has_init):
            cls.fields.append(
                Field(
                    name=name_tok.spelling,
                    file=self.fm.path,
                    line=name_tok.line,
                    type_spelling=spell(
                        [
                            t
                            for t in type_tokens
                            if t.spelling not in DECL_SPECIFIERS
                        ]
                    ),
                    has_initializer=has_init,
                    is_static="static" in specifiers,
                )
            )

        # Does an initializer follow this declarator?
        has_init = i < end and toks[i].spelling in ("=", "{")
        add_field(name_tok, has_init)

        # Further declarators until ';'.
        j = i
        depth = 0
        pending = None
        while j < len(toks) and j < decl_end:
            s = toks[j].spelling
            if s in ("(", "[", "{"):
                depth += 1
            elif s in (")", "]", "}"):
                depth -= 1
            elif depth == 0 and s == ",":
                k = j + 1
                while k < decl_end and toks[k].spelling in ("*", "&"):
                    k += 1
                if k < decl_end and toks[k].kind == "ident":
                    pending = toks[k]
                    nxt = (
                        toks[k + 1].spelling
                        if k + 1 < decl_end
                        else ";"
                    )
                    add_field(pending, nxt in ("=", "{"))
            j += 1
        return decl_end

    def _finish_method(
        self,
        start,
        after_paren,
        end,
        cls,
        name,
        ret_tokens,
        param_tokens,
        specifiers,
        name_line,
    ):
        """after_paren is just past the parameter list ')'. Consume
        trailing const/noexcept/etc., an optional ctor init list, and
        the body or ';'."""
        toks = self.toks
        i = after_paren
        while i < end:
            s = toks[i].spelling
            if s in ("const", "noexcept", "override", "final",
                     "volatile", "&", "&&", "mutable"):
                if (
                    s == "noexcept"
                    and i + 1 < end
                    and toks[i + 1].spelling == "("
                ):
                    i = match_paren(toks, i + 1)
                else:
                    i += 1
            elif s == "->":
                # Trailing return type: replaces ret_tokens.
                j = i + 1
                depth = 0
                while j < end:
                    sj = toks[j].spelling
                    if sj == "<":
                        depth += 1
                    elif sj == ">":
                        depth = max(0, depth - 1)
                    elif depth == 0 and sj in ("{", ";", "="):
                        break
                    j += 1
                ret_tokens = toks[i + 1 : j]
                i = j
            else:
                break

        parts = name.split("::")
        is_ctor = (cls is not None and name == cls.name) or (
            len(parts) >= 2 and parts[-1] == parts[-2]
        )
        init_list = []
        if i < end and toks[i].spelling == ":" and is_ctor:
            i += 1
            while i < end and toks[i].spelling != "{":
                if toks[i].kind == "ident" and i + 1 < end and (
                    toks[i + 1].spelling in ("(", "{")
                ):
                    init_list.append(
                        (toks[i].spelling, toks[i].line)
                    )
                    close = (
                        match_paren(toks, i + 1)
                        if toks[i + 1].spelling == "("
                        else match_brace(toks, i + 1)
                    )
                    i = close
                else:
                    i += 1

        body = None
        if i < end and toks[i].spelling == "{":
            body_end = match_brace(toks, i)
            body = toks[i + 1 : body_end - 1]
            i = body_end
        elif i < end and toks[i].spelling == "=":
            # = default; = delete; = 0;
            i = self._statement_end(i)
        else:
            i = self._statement_end(i)

        method = Method(
            name=name,
            file=self.fm.path,
            line=name_line,
            params=_parse_params(param_tokens),
            return_type=spell(
                [
                    t
                    for t in ret_tokens
                    if t.spelling not in DECL_SPECIFIERS
                ]
            ),
            is_ctor=is_ctor,
            is_static="static" in specifiers,
            is_virtual="virtual" in specifiers,
            body=body,
            init_list=init_list,
        )
        if cls is not None:
            cls.methods.append(method)
        else:
            self.fm.free_functions.append(method)
        if body is not None:
            self._scan_body(
                body,
                enclosing_class=cls.name if cls else "",
                enclosing_function=name,
                params=method.params,
            )
        return i

    # ---- free functions / out-of-line definitions --------------------

    def _try_parse_function(self, i, end, cls):
        """At namespace scope: try `ret [Qual::]name(params) [...]
        [{body}|;]`. Returns index past it, or None if this is not a
        function-shaped declaration."""
        toks = self.toks
        j = self._skip_attrs(i)
        specifiers = set()
        while j < end and toks[j].spelling in DECL_SPECIFIERS:
            specifiers.add(toks[j].spelling)
            j = self._skip_attrs(j + 1)
        if j >= end or not _is_type_start(toks[j]):
            return None

        angle = 0
        name_idx = None
        qual = []
        k = j
        while k < end:
            s = toks[k].spelling
            if s == "<":
                angle += 1
            elif s == ">" and angle > 0:
                angle -= 1
            elif s == ">>" and angle > 0:
                angle = max(0, angle - 2)
            elif angle == 0:
                if s in (";", "{", "=", "}"):
                    return None
                if s == "(":
                    if name_idx is None or name_idx != k - 1:
                        return None
                    break
                if s == "operator":
                    return self._parse_free_operator(
                        i, j, k, end, specifiers
                    )
                if toks[k].kind == "ident":
                    name_idx = k
                    if (
                        k + 1 < end
                        and toks[k + 1].spelling == "::"
                    ):
                        qual.append(toks[k].spelling)
            k += 1
        if k >= end:
            return None

        after = match_paren(toks, k)
        name = toks[name_idx].spelling
        # Qualified out-of-line member: record as "Qual::name".
        if qual:
            name = "::".join(qual[-1:]) + "::" + name
        ret_tokens = toks[j:name_idx]
        # Trim the qualifier tokens off the return type.
        if qual:
            # Remove trailing `Qual ::` pairs from ret_tokens.
            while (
                len(ret_tokens) >= 2
                and ret_tokens[-1].spelling == "::"
            ):
                ret_tokens = ret_tokens[:-2]
        return self._finish_method(
            i,
            after,
            end,
            None,
            name=name,
            ret_tokens=ret_tokens,
            param_tokens=toks[k + 1 : after - 1],
            specifiers=specifiers,
            name_line=toks[name_idx].line,
        )

    def _parse_free_operator(self, start, j, k, end, specifiers):
        toks = self.toks
        m = k + 1
        while m < end and toks[m].spelling != "(":
            m += 1
        if m >= end:
            return self._statement_end(start)
        after = match_paren(toks, m)
        return self._finish_method(
            start,
            after,
            end,
            None,
            name=spell(toks[k:m]),
            ret_tokens=toks[j:k],
            param_tokens=toks[m + 1 : after - 1],
            specifiers=specifiers,
            name_line=toks[k].line,
        )

    # ---- function-body analysis --------------------------------------

    def _scan_body(
        self, body, enclosing_class, enclosing_function, params
    ):
        """Collect range-for loops and typed local declarations from a
        captured body token list."""
        locals_ = {}
        for p in params:
            if p.name:
                self.fm.var_decls.append(
                    VarDecl(
                        name=p.name,
                        file=self.fm.path,
                        line=body[0].line if body else 0,
                        type_spelling=p.type_spelling,
                        kind="param",
                    )
                )
                locals_[p.name] = p.type_spelling

        i = 0
        n = len(body)
        stmt_start = True
        while i < n:
            t = body[i]
            s = t.spelling

            if s == "for" and i + 1 < n and (
                body[i + 1].spelling == "("
            ):
                i = self._scan_for(
                    body,
                    i,
                    locals_,
                    enclosing_class,
                    enclosing_function,
                )
                stmt_start = True
                continue

            if stmt_start and (
                t.kind == "ident"
                or (t.kind == "kw" and _is_type_start(t))
            ):
                decl = self._try_local_decl(body, i, n)
                if decl is not None:
                    name, type_sp, line, ni = decl
                    locals_[name] = type_sp
                    self.fm.var_decls.append(
                        VarDecl(
                            name=name,
                            file=self.fm.path,
                            line=line,
                            type_spelling=type_sp,
                            kind="local",
                        )
                    )
                    i = ni
                    stmt_start = True
                    continue

            stmt_start = s in (";", "{", "}", ":") or (
                t.kind == "kw" and s in ("else", "do")
            )
            i += 1

        # Record loop-free pointer comparisons are handled by rules
        # directly over tokens + var_decls; nothing else to do here.

    def _try_local_decl(self, body, i, n):
        """Try to read `const? Type<...> [*&]* name [=;{(]` at i.
        Returns (name, type_spelling, line, next_index) or None."""
        j = i
        tokens = []
        while j < n and body[j].spelling in ("const", "static",
                                             "constexpr"):
            tokens.append(body[j])
            j += 1
        if j >= n or not _is_type_start(body[j]):
            return None
        if body[j].kind == "kw" and body[j].spelling in STMT_KEYWORDS:
            return None
        # Type path: ident (:: ident)* (<...>)?
        type_start = j
        tokens.append(body[j])
        j += 1
        while j < n and body[j].spelling == "::":
            if j + 1 < n and body[j + 1].kind in ("ident", "kw"):
                tokens.extend(body[j : j + 2])
                j += 2
            else:
                return None
        if j < n and body[j].spelling == "<":
            depth = 0
            while j < n:
                s = body[j].spelling
                tokens.append(body[j])
                if s == "<":
                    depth += 1
                elif s == ">":
                    depth -= 1
                    if depth == 0:
                        j += 1
                        break
                elif s == ">>":
                    depth -= 2
                    if depth <= 0:
                        j += 1
                        break
                elif s == ";":
                    return None
                j += 1
        while j < n and body[j].spelling in ("*", "&", "&&", "const"):
            tokens.append(body[j])
            j += 1
        if j >= n or body[j].kind != "ident":
            return None
        name_tok = body[j]
        j += 1
        if j >= n or body[j].spelling not in ("=", ";", "{", "("):
            return None
        # Looks like a declaration. Type = everything but the name.
        type_sp = spell(
            [
                t
                for t in tokens
                if t.spelling not in ("static", "constexpr")
            ]
        )
        # Advance past the initializer/statement.
        depth = 0
        while j < n:
            s = body[j].spelling
            if s in ("(", "[", "{"):
                depth += 1
            elif s in (")", "]", "}"):
                depth -= 1
            elif s == ";" and depth <= 0:
                j += 1
                break
            j += 1
        del type_start
        return (name_tok.spelling, type_sp, name_tok.line, j)

    def _scan_for(
        self, body, i, locals_, enclosing_class, enclosing_function
    ):
        """body[i] == 'for'. Record a RangeForLoop (for range-fors) or
        detect `.begin()` iteration in classic fors. Returns the index
        past the loop header (the body is scanned by the main walk)."""
        n = len(body)
        open_p = i + 1
        close_p = self._match_in(body, open_p)
        header = body[open_p + 1 : close_p - 1]

        # Find a top-level ':' (range-for separator).
        depth = 0
        colon = None
        for k, t in enumerate(header):
            s = t.spelling
            if s in ("(", "[", "{", "<"):
                depth += 1
            elif s in (")", "]", "}", ">"):
                depth = max(0, depth - 1)
            elif s == "?":
                depth += 1  # ternary ':' is not our separator
            elif s == ":" and depth == 0:
                colon = k
                break
            elif s == ";" and depth == 0:
                break
        # Loop body tokens: '{...}' or single statement.
        bi = close_p
        if bi < n and body[bi].spelling == "{":
            bend = self._match_in_brace(body, bi)
            loop_body = body[bi + 1 : bend - 1]
        else:
            bend = bi
            while bend < n and body[bend].spelling != ";":
                if body[bend].spelling == "(":
                    bend = self._match_in(body, bend)
                    continue
                bend += 1
            loop_body = body[bi:bend]

        if colon is not None:
            range_toks = header[colon + 1 :]
            range_sp = spell(range_toks)
            rtype = self._resolve_expr_type(
                range_toks, locals_, enclosing_class
            )
            self.fm.loops.append(
                RangeForLoop(
                    file=self.fm.path,
                    line=body[i].line,
                    range_spelling=range_sp,
                    range_type=rtype,
                    body=loop_body,
                    enclosing_class=enclosing_class,
                    enclosing_function=enclosing_function,
                )
            )
        else:
            # Classic for: X.begin()/X.cbegin() iteration.
            for k in range(len(header) - 3):
                if (
                    header[k].kind == "ident"
                    and header[k + 1].spelling in (".", "->")
                    and header[k + 2].spelling
                    in ("begin", "cbegin")
                    and header[k + 3].spelling == "("
                ):
                    base = [header[k]]
                    rtype = self._resolve_expr_type(
                        base, locals_, enclosing_class
                    )
                    self.fm.loops.append(
                        RangeForLoop(
                            file=self.fm.path,
                            line=body[i].line,
                            range_spelling=header[k].spelling
                            + ".begin()",
                            range_type=rtype,
                            body=loop_body,
                            enclosing_class=enclosing_class,
                            enclosing_function=enclosing_function,
                        )
                    )
                    break
        return close_p

    @staticmethod
    def _match_in(body, open_index):
        depth = 0
        i = open_index
        while i < len(body):
            s = body[i].spelling
            if s == "(":
                depth += 1
            elif s == ")":
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return len(body)

    @staticmethod
    def _match_in_brace(body, open_index):
        depth = 0
        i = open_index
        while i < len(body):
            s = body[i].spelling
            if s == "{":
                depth += 1
            elif s == "}":
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return len(body)

    def _resolve_expr_type(self, toks, locals_, enclosing_class):
        """Best-effort type of a range expression: a bare name, a
        `this->name`, or a one-level `obj.getter()`."""
        toks = [t for t in toks if t.spelling not in ("(", ")")]
        if not toks:
            return ""
        if (
            len(toks) >= 3
            and toks[0].spelling == "this"
            and toks[1].spelling == "->"
        ):
            toks = toks[2:]
        if len(toks) == 1 and toks[0].kind == "ident":
            return self._lookup_name_type(
                toks[0].spelling, locals_, enclosing_class
            )
        # obj.getter() — resolve obj, then the getter's return type.
        if (
            len(toks) >= 2
            and toks[0].kind == "ident"
            and toks[1].spelling in (".", "->")
            and len(toks) >= 3
            and toks[2].kind == "ident"
        ):
            base_t = self._lookup_name_type(
                toks[0].spelling, locals_, enclosing_class
            )
            cls_name = _head_class_name(base_t)
            for c in self.fm.classes:
                if c.name == cls_name:
                    for m in c.method(toks[2].spelling):
                        if m.return_type:
                            return self._expand_alias(m.return_type)
        return ""

    def _lookup_name_type(self, name, locals_, enclosing_class):
        if name in locals_:
            return self._expand_alias(locals_[name])
        for c in self.fm.classes:
            if c.name == enclosing_class:
                for f in c.fields:
                    if f.name == name:
                        return self._expand_alias(f.type_spelling)
        return ""

    def _expand_alias(self, type_sp, depth=0):
        if depth > 4:
            return type_sp
        head = _head_class_name(type_sp)
        if head in self.fm.aliases:
            return self._expand_alias(
                self.fm.aliases[head], depth + 1
            )
        return type_sp


def _head_class_name(type_sp):
    """'const std::unordered_map<K,V> &' -> 'unordered_map';
    'Foo' -> 'Foo'."""
    s = type_sp
    for junk in ("const ", "volatile "):
        s = s.replace(junk, " ")
    s = s.split("<", 1)[0]
    s = s.rsplit("::", 1)[-1]
    return s.strip().strip("&* ")


def _parse_params(toks):
    """Split a parameter token list on top-level commas into Params."""
    if not toks:
        return []
    groups = [[]]
    depth = 0
    for t in toks:
        s = t.spelling
        if s in ("(", "[", "{", "<"):
            depth += 1
        elif s in (")", "]", "}", ">"):
            depth = max(0, depth - 1)
        elif s == ">>":
            depth = max(0, depth - 2)
        elif s == "," and depth == 0:
            groups.append([])
            continue
        groups[-1].append(t)
    params = []
    for g in groups:
        if not g or (len(g) == 1 and g[0].spelling == "void"):
            continue
        # Drop a default argument.
        cut = len(g)
        d = 0
        for k, t in enumerate(g):
            s = t.spelling
            if s in ("(", "[", "{", "<"):
                d += 1
            elif s in (")", "]", "}", ">"):
                d = max(0, d - 1)
            elif s == "=" and d == 0:
                cut = k
                break
        g = g[:cut]
        name = ""
        type_toks = g
        if g and g[-1].kind == "ident" and len(g) > 1:
            name = g[-1].spelling
            type_toks = g[:-1]
        params.append(
            Param(name=name, type_spelling=spell(type_toks))
        )
    return params


def parse_source(path, text):
    """Parse one C++ source file into a FileModel."""
    return _Parser(path, text).parse()
