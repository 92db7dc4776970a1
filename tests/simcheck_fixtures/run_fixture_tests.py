#!/usr/bin/env python3
"""Golden tests for tools/simcheck.

Every fixture is analysed in a temporary repository root that holds a
copy of the tool: in place under tests/simcheck_fixtures/, or under
src/ for the rules and exemptions that depend on a file's path. For
each violation fixture, simcheck runs restricted to the rule under
test, and the set of (file, line, rule) findings must equal the set
of `EXPECT[rule]` markers planted in the fixture — exact: a missed
planted violation fails, and so does any extra finding (over-fire).
The waiver and snapshot fixtures run every rule, so their unused
waivers surface.
The clean control (fixture_clean.cpp and .hpp) runs every rule and
must come back empty, with every waiver in it used.

Mutations of the clean control then prove the analyzer sees through
helpers and preprocessor structure: deleting one visit from the
state walk must produce exactly one snapshot-coverage finding, and
deleting the header's guard #define or #ifndef exactly one
include-guard finding.
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
FIXTURE_DIR = os.path.join("tests", "simcheck_fixtures")
EXPECT = re.compile(r"EXPECT\[(?P<rule>[\w-]+)\]")

# (fixture, rule or None for every rule, path to analyse it at or
# None for in place)
FIXTURES = [
    ("fixture_determinism.cpp", "determinism-hazard", None),
    ("fixture_rng.hpp", "determinism-hazard", "src/sim/rng.hpp"),
    ("fixture_uninit.cpp", "uninit-member", None),
    ("fixture_snapshot.cpp", None, None),
    ("fixture_simerror.cpp", "simerror-discipline", None),
    ("fixture_stdio.cpp", "stdio", None),
    ("fixture_table.cpp", "stdio", "src/metrics/table.cpp"),
    ("fixture_include_guard.hpp", "include-guard", "src/sm/probe.hpp"),
    ("fixture_int_id_param.hpp", "int-id-param", None),
    ("fixture_hotpath.hpp", "hotpath", "src/mem/staging.hpp"),
    ("fixture_waivers.cpp", None, None),
]

CLEAN = [
    ("fixture_clean.cpp", "src/sm/fixture_clean.cpp"),
    ("fixture_clean.hpp", "src/sm/fixture_clean.hpp"),
]

# (label, rule, clean fixture, start of the first line deleted from
# it); each mutation must produce exactly one finding of its rule
MUTATIONS = [
    ("drop one visit from the state walk", "snapshot-coverage",
     "fixture_clean.cpp", "    ar.u64(self.head_);"),
    ("drop the header guard's #define", "include-guard",
     "fixture_clean.hpp", "#define"),
    ("drop the header guard's #ifndef", "include-guard",
     "fixture_clean.hpp", "#ifndef"),
]


def read_fixture(root, fname):
    with open(os.path.join(root, FIXTURE_DIR, fname),
              encoding="utf-8") as f:
        return f.read()


def place(tmp, rel, text):
    path = os.path.join(tmp, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def run_simcheck(tmp, args):
    out = os.path.join(tmp, "findings.json")
    cmd = [
        sys.executable, os.path.join(tmp, "tools", "simcheck"),
        "--root", tmp, "--json", out,
    ] + args
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode not in (0, 1):
        sys.exit(f"simcheck {' '.join(args)} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    with open(out) as f:
        return proc.returncode, json.load(f)


def expected_markers(text, rel):
    return {
        (rel, i, m.group("rule"))
        for i, line in enumerate(text.splitlines(), 1)
        for m in EXPECT.finditer(line)
    }


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
    root = os.path.abspath(ap.parse_args().root)

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(root, "tools", "simcheck"),
                        os.path.join(tmp, "tools", "simcheck"))

        for fname, rule, where in FIXTURES:
            rel = where or os.path.join(FIXTURE_DIR, fname)
            text = read_fixture(root, fname)
            place(tmp, rel, text)
            _, payload = run_simcheck(
                tmp, (["--rule", rule] if rule else []) + [rel])
            ok &= check(f"{fname} [{rule or 'all rules'}]",
                        findings_set(payload),
                        expected_markers(text, rel))

        for fname, rel in CLEAN:
            place(tmp, rel, read_fixture(root, fname))
        code, payload = run_simcheck(tmp, [rel for _, rel in CLEAN])
        clean_ok = check("fixture_clean.{cpp,hpp} [all rules]",
                         findings_set(payload), set())
        if clean_ok and code != 0:
            print(f"FAIL  clean control: exit {code} despite zero "
                  "findings", file=sys.stderr)
            clean_ok = False
        ok &= clean_ok

        for label, rule, fname, prefix in MUTATIONS:
            lines = read_fixture(root, fname).splitlines(keepends=True)
            k = next(k for k, line in enumerate(lines)
                     if line.startswith(prefix))
            rel = dict(CLEAN)[fname]
            place(tmp, rel, "".join(lines[:k] + lines[k + 1:]))
            _, payload = run_simcheck(tmp, ["--rule", rule, rel])
            got = sorted(f["rule"] for f in payload["findings"])
            if got == [rule]:
                print(f"PASS  mutation: {label} -> [{rule}]")
            else:
                print(f"FAIL  mutation: {label} — expected one "
                      f"[{rule}] finding, got {got}", file=sys.stderr)
                ok = False

    if not ok:
        print("simcheck fixtures: FAILURES", file=sys.stderr)
        return 1
    print("simcheck fixtures: all green")
    return 0


if __name__ == "__main__":
    sys.exit(main())
