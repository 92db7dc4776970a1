"""Rule framework: each rule module exposes NAME, CONTRACT and
run(ctx) -> None, emitting findings through the shared RuleContext
(which applies waivers centrally)."""

from ..report import Finding


class RuleContext:
    def __init__(self, model, waivers, scope_prefixes, rules=None):
        self.model = model
        self.waivers = waivers
        self._scope = tuple(scope_prefixes)
        self.findings = []
        self._enabled = set(rules) if rules else None

    def enabled(self, rule_name):
        return self._enabled is None or rule_name in self._enabled

    def in_scope(self, rel):
        if not self._scope:
            return True
        return any(
            rel == p or rel.startswith(p.rstrip("/") + "/")
            for p in self._scope
        )

    def files(self):
        """(path, FileModel) of every in-scope file, sorted by path."""
        for rel, fm in sorted(self.model.files.items()):
            if self.in_scope(rel):
                yield rel, fm

    def emit(self, rel, line, rule, message, contract=""):
        if self.waivers.suppresses(rel, line, rule):
            return
        self.findings.append(
            Finding(
                file=rel,
                line=line,
                rule=rule,
                message=message,
                contract=contract,
            )
        )


def called(toks, i):
    """toks[i] is an identifier followed by `(`."""
    return (
        toks[i].kind == "ident"
        and i + 1 < len(toks)
        and toks[i + 1].spelling == "("
    )


def std_name(toks, i):
    """The identifier toks[i] when it is spelled `std::name`, else
    ''."""
    if (
        i >= 2
        and toks[i].kind == "ident"
        and toks[i - 1].spelling == "::"
        and toks[i - 2].spelling == "std"
    ):
        return toks[i].spelling
    return ""


def all_rules():
    from . import (
        determinism,
        hotpath,
        include_guard,
        int_id_param,
        simerror,
        snapshot_coverage,
        stdio,
        uninit_member,
    )

    return [
        determinism,
        uninit_member,
        snapshot_coverage,
        simerror,
        stdio,
        include_guard,
        int_id_param,
        hotpath,
    ]
