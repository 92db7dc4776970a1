"""simcheck command line.

    python3 tools/simcheck [src/ ...]

Exit status: 0 clean, 1 findings, 2 usage failure.
"""

import argparse
import os
import sys

from .frontend import load_model
from .report import Finding, render_json, render_text
from .rules import RuleContext, all_rules
from .waivers import WaiverSet


def _repo_root_default():
    return os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="simcheck",
        description=(
            "Static analyzer for the simulator's determinism, "
            "snapshot, error-reporting and hot-path contracts "
            "(DESIGN.md section 15)."
        ),
    )
    ap.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="repo-relative files/directories to analyze "
        "(default: src/)",
    )
    ap.add_argument(
        "--root",
        default=_repo_root_default(),
        help="repository root (default: grandparent of this package)",
    )
    ap.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this rule (repeatable; unused waivers are "
        "then not reported)",
    )
    ap.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="also write findings as JSON to FILE",
    )
    ap.add_argument(
        "--list-rules",
        action="store_true",
        help="list rules with their contracts and exit",
    )
    args = ap.parse_args(argv)

    rules = all_rules()
    if args.list_rules:
        for r in rules:
            print(f"{r.NAME}")
            print(f"    {r.CONTRACT}")
        return 0

    known = {r.NAME for r in rules}
    if args.rule:
        unknown = set(args.rule) - known
        if unknown:
            print(
                "simcheck: unknown rule(s): "
                + ", ".join(sorted(unknown)),
                file=sys.stderr,
            )
            return 2

    paths = args.paths or ["src"]
    root = os.path.abspath(args.root)
    for p in paths:
        if not os.path.exists(os.path.join(root, p)):
            print(
                f"simcheck: no such path under {root}: {p}",
                file=sys.stderr,
            )
            return 2

    model, sources = load_model(root, paths)
    waivers = WaiverSet()
    for rel in sources:
        fm = model.files.get(rel)
        if fm is not None:
            waivers.scan_file(fm)

    ctx = RuleContext(model, waivers, paths, rules=args.rule)
    ran = []
    for r in rules:
        if not ctx.enabled(r.NAME):
            continue
        ran.append(r.NAME)
        r.run(ctx)

    findings = list(ctx.findings)
    for rel, line, text, form in waivers.syntax_findings():
        findings.append(
            Finding(
                file=rel,
                line=line,
                rule="waiver-syntax",
                message="malformed waiver '"
                + text[:60]
                + f"' — write `{form}: reason` "
                "(both the name and the reason are mandatory)",
            )
        )
    if args.rule is None:
        for w in waivers.unused():
            findings.append(
                Finding(
                    file=w.file,
                    line=w.line,
                    rule="unused-waiver",
                    message=f"SIMCHECK-ALLOW({w.rule}) no longer "
                    "suppresses any finding — delete it so waivers "
                    "cannot rot",
                )
            )

    meta = {
        "rules": ran,
        "files_analyzed": len(sources),
    }
    if args.json:
        render_json(findings, meta, args.json)
    if findings:
        render_text(findings, sys.stderr)
        print(
            f"simcheck: {len(findings)} finding(s) "
            f"[{len(sources)} file(s)]",
            file=sys.stderr,
        )
        return 1
    print(
        f"simcheck: clean [{len(sources)} file(s), "
        f"rules: {', '.join(ran)}]"
    )
    return 0
