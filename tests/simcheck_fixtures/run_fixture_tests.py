#!/usr/bin/env python3
"""Golden tests for tools/simcheck.

For every violation fixture, runs simcheck restricted to the rule
under test and asserts that the set of (file, line, rule) findings
equals the set of `EXPECT[rule]` markers planted in the fixture —
exact: a missed planted violation fails, and so does any extra
finding (over-fire). The clean fixture runs with every rule enabled
and must come back empty.

A mutation check then proves the analyzer sees through helpers:
deleting one snapshot field write from the clean fixture must
produce a snapshot-coverage-v2 finding.

Exits 77 (ctest SKIP_RETURN_CODE) when no simcheck frontend can run
in this environment.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECT = re.compile(r"EXPECT\[(?P<rule>[\w-]+)\]")

FIXTURES = [
    ("fixture_determinism.cpp", "determinism-hazard"),
    ("fixture_uninit.cpp", "uninit-member"),
    ("fixture_snapshot.cpp", "snapshot-coverage-v2"),
    ("fixture_simerror.cpp", "simerror-discipline"),
]

SKIP = 77


def run_simcheck(root, args, frontend):
    out = tempfile.NamedTemporaryFile(
        mode="r", suffix=".json", delete=False)
    out.close()
    cmd = [
        sys.executable, os.path.join(root, "tools", "simcheck"),
        "--root", root, "--frontend", frontend, "--json", out.name,
    ] + args
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode == 2:
        print("SKIP: simcheck cannot run here:", file=sys.stderr)
        sys.stderr.write(proc.stderr)
        os.unlink(out.name)
        sys.exit(SKIP)
    try:
        with open(out.name) as f:
            payload = json.load(f)
    finally:
        os.unlink(out.name)
    return proc, payload


def expected_markers(path, rel):
    found = set()
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f, 1):
            for m in EXPECT.finditer(line):
                found.add((rel, i, m.group("rule")))
    return found


def findings_set(payload):
    return {
        (f["file"], f["line"], f["rule"])
        for f in payload["findings"]
    }


def check(name, got, want):
    missing = want - got
    extra = got - want
    if not missing and not extra:
        print(f"PASS  {name}  ({len(want)} finding(s))")
        return True
    print(f"FAIL  {name}", file=sys.stderr)
    for f in sorted(missing):
        print(f"  missing: {f[0]}:{f[1]} [{f[2]}]", file=sys.stderr)
    for f in sorted(extra):
        print(f"  extra:   {f[0]}:{f[1]} [{f[2]}]", file=sys.stderr)
    return False


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(HERE)))
    ap.add_argument("--frontend",
                    default=os.environ.get(
                        "SIMCHECK_FIXTURE_FRONTEND", "auto"))
    args = ap.parse_args()
    root = os.path.abspath(args.root)

    ok = True
    for fname, rule in FIXTURES:
        rel = os.path.join("tests", "simcheck_fixtures", fname)
        _, payload = run_simcheck(
            root, ["--rule", rule, rel], args.frontend)
        want = expected_markers(os.path.join(root, rel), rel)
        ok &= check(f"{fname} [{rule}]", findings_set(payload), want)

    # Clean control: all rules, zero findings (and the used
    # SIMCHECK-ALLOW in it must not surface as unused-waiver).
    rel = os.path.join("tests", "simcheck_fixtures",
                       "fixture_clean.cpp")
    proc, payload = run_simcheck(root, [rel], args.frontend)
    clean_ok = check("fixture_clean.cpp [all rules]",
                     findings_set(payload), set())
    if clean_ok and proc.returncode != 0:
        print("FAIL  fixture_clean.cpp: exit "
              f"{proc.returncode} despite zero findings",
              file=sys.stderr)
        clean_ok = False
    ok &= clean_ok

    # Mutations of the clean fixture: the AST rules must notice.
    clean_src = open(os.path.join(root, rel), encoding="utf-8").read()
    mutations = [
        ("drop snapshot-side field write", "snapshot-coverage-v2",
         clean_src.replace("    w.u64(head_);\n", "", 1)),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        # simcheck resolves paths under --root; give the tmp root the
        # tool so relative layout matches a real checkout.
        shutil.copytree(os.path.join(root, "tools", "simcheck"),
                        os.path.join(tmp, "tools", "simcheck"))
        for label, rule, text in mutations:
            assert text != clean_src, label
            mut = os.path.join(tmp, "mutant.cpp")
            with open(mut, "w", encoding="utf-8") as f:
                f.write(text)
            _, payload = run_simcheck(
                tmp, ["--rule", rule, "mutant.cpp"], args.frontend)
            got = {f["rule"] for f in payload["findings"]}
            if rule in got:
                print(f"PASS  mutation: {label} -> [{rule}]")
            else:
                print(f"FAIL  mutation: {label} — expected a "
                      f"[{rule}] finding, got {sorted(got)}",
                      file=sys.stderr)
                ok = False

    if not ok:
        print("simcheck fixtures: FAILURES", file=sys.stderr)
        return 1
    print("simcheck fixtures: all green")
    return 0


if __name__ == "__main__":
    sys.exit(main())
