"""C++ token stream for the simcheck parser.

Not a conforming lexer — a pragmatic one that is exact about the three
things the rules need:

  * comments and string/char literals never leak into code tokens, so
    a member name in a doc comment cannot satisfy snapshot coverage
    and a `throw` in a string cannot trip simerror-discipline;
  * preprocessor directives (with line continuations) are captured as
    single opaque tokens, so macro *definitions* are invisible to
    statement-level rules while macro *uses* still appear as calls;
  * every token carries its 1-based line, so findings point at source.

Raw strings, digit separators and UDLs are handled; trigraphs are not
(the repo bans them implicitly by never using them).
"""

from dataclasses import dataclass

KEYWORDS = frozenset(
    """alignas alignof asm auto bool break case catch char char8_t
    char16_t char32_t class concept const consteval constexpr constinit
    const_cast continue co_await co_return co_yield decltype default
    delete do double dynamic_cast else enum explicit export extern
    false float for friend goto if inline int long mutable namespace
    new noexcept nullptr operator private protected public register
    reinterpret_cast requires return short signed sizeof static
    static_assert static_cast struct switch template this thread_local
    throw true try typedef typeid typename union unsigned using
    virtual void volatile wchar_t while""".split()
)

# Multi-character punctuators, longest first so maximal munch wins.
PUNCTUATORS = [
    "<<=", ">>=", "<=>", "...", "->*", "::", "->", "++", "--", "<<",
    ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=",
    "%=", "&=", "|=", "^=", ".*",
]


@dataclass
class Token:
    kind: str  # 'ident' | 'kw' | 'num' | 'str' | 'char' | 'punct' | 'pp'
    spelling: str
    line: int

    def __repr__(self):
        return f"{self.kind}:{self.spelling!r}@{self.line}"


def lex(text):
    """Tokenize C++ source, dropping comments, keeping pp directives
    as single tokens. Returns a list of Token."""
    toks = []
    i = 0
    n = len(text)
    line = 1
    at_line_start = True

    def peek(k=0):
        j = i + k
        return text[j] if j < n else ""

    while i < n:
        c = text[i]

        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue

        # Comments.
        if c == "/" and peek(1) == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and peek(1) == "*":
            start_line = line
            i += 2
            while i < n and not (text[i] == "*" and peek(1) == "/"):
                if text[i] == "\n":
                    line += 1
                i += 1
            i = min(i + 2, n)
            del start_line
            continue

        # Preprocessor directive: swallow through continuations.
        if c == "#" and at_line_start:
            start = i
            start_line = line
            while i < n:
                if text[i] == "\\" and peek(1) == "\n":
                    line += 1
                    i += 2
                    continue
                if text[i] == "\n":
                    break
                # Comments inside directives still end or continue them.
                if text[i] == "/" and peek(1) == "/":
                    while i < n and text[i] != "\n":
                        i += 1
                    break
                if text[i] == "/" and peek(1) == "*":
                    i += 2
                    while i < n and not (
                        text[i] == "*" and peek(1) == "/"
                    ):
                        if text[i] == "\n":
                            line += 1
                        i += 1
                    i = min(i + 2, n)
                    continue
                i += 1
            toks.append(Token("pp", text[start:i], start_line))
            continue

        at_line_start = False

        # Raw string literal R"delim( ... )delim".
        if c == "R" and peek(1) == '"':
            j = i + 2
            while j < n and text[j] not in "(\n":
                j += 1
            if j < n and text[j] == "(":
                delim = text[i + 2 : j]
                close = ")" + delim + '"'
                end = text.find(close, j + 1)
                if end < 0:
                    end = n
                else:
                    end += len(close)
                toks.append(Token("str", '""', line))
                line += text.count("\n", i, end)
                i = end
                continue

        # String / char literals (with encoding prefixes).
        if c in "\"'" or (
            c in "uUL"
            and (
                peek(1) in "\"'"
                or (c == "u" and peek(1) == "8" and peek(2) in "\"'")
            )
        ):
            j = i
            while j < n and text[j] not in "\"'":
                j += 1
            quote = text[j]
            k = j + 1
            while k < n:
                if text[k] == "\\":
                    k += 2
                    continue
                if text[k] == quote or text[k] == "\n":
                    break
                k += 1
            k = min(k + 1, n)
            # UDL suffix.
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
            kind = "str" if quote == '"' else "char"
            toks.append(Token(kind, quote + quote, line))
            line += text.count("\n", i, k)
            i = k
            continue

        # Identifier / keyword.
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(
                Token("kw" if word in KEYWORDS else "ident", word, line)
            )
            i = j
            continue

        # Number (pp-number: digits, quotes, exponents, dots, suffix).
        if c.isdigit() or (c == "." and peek(1).isdigit()):
            j = i
            while j < n:
                ch = text[j]
                if ch.isalnum() or ch in "._'":
                    j += 1
                elif ch in "+-" and j > i and text[j - 1] in "eEpP":
                    j += 1
                else:
                    break
            toks.append(Token("num", text[i:j], line))
            i = j
            continue

        # Punctuators, maximal munch.
        matched = None
        for p in PUNCTUATORS:
            if text.startswith(p, i):
                matched = p
                break
        if matched is None:
            matched = c
        toks.append(Token("punct", matched, line))
        i += len(matched)

    return toks


def match_brace(toks, open_index):
    """Index one past the '}' matching toks[open_index] == '{'
    (or len(toks) if unbalanced)."""
    depth = 0
    i = open_index
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "punct":
            if t.spelling == "{":
                depth += 1
            elif t.spelling == "}":
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return n


def match_paren(toks, open_index):
    """Index one past the ')' matching toks[open_index] == '('."""
    depth = 0
    i = open_index
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "punct":
            if t.spelling == "(":
                depth += 1
            elif t.spelling == ")":
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return n


def spell(toks):
    """Join token spellings with minimal spacing (for type spellings
    and diagnostics)."""
    out = []
    for t in toks:
        if (
            out
            and (out[-1][-1].isalnum() or out[-1][-1] == "_")
            and (t.spelling[0].isalnum() or t.spelling[0] == "_")
        ):
            out.append(" ")
        out.append(t.spelling)
    return "".join(out)
