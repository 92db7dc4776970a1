#!/usr/bin/env python3
"""Simulator-specific lint pass for ckesim.

Enforces repo rules that clang-tidy cannot express:

  determinism     No ad-hoc randomness or wall-clock reads in src/.
                  All randomness flows through the seeded counter RNG
                  in src/sim/rng.hpp so runs are bit-reproducible.
  bare-assert     No <cassert>/assert() in src/. Simulation invariants
                  use SIM_CHECK/SIM_INVARIANT (sim/check.hpp), which
                  survive NDEBUG and report cycle/SM context.
  stdio           No std::cout/std::cerr in src/, and no printf-family
                  writes to stdout outside files that declare a
                  `// LINT-ALLOW(stdio): <reason>` marker (the metrics
                  reporting layer). fprintf to an explicit FILE* or to
                  stderr is fine.
  include-guard   src/ headers use #ifndef CKESIM_<PATH>_HPP derived
                  from the header's path under src/.
  int-id-param    Public headers must not declare `int`/`unsigned`
                  parameters named *_id or *_slot — those are exactly
                  the values the strong types in sim/types.hpp exist
                  for (KernelId, SmId, WarpSlot).
  nolint-reason   Every NOLINT must name a check and carry a reason:
                  `NOLINT(check-name): why`. Bare suppressions rot.
  hotpath         No std::deque/std::map/std::unordered_map in the
                  per-cycle simulation paths (src/mem/, src/sm/,
                  src/gpu.*). The strict path walks these structures
                  every cycle; node-based containers cost a cache miss
                  per element (DESIGN.md §14). Use RingBuf
                  (sim/ringbuf.hpp), MshrTable's flat table, or a
                  sorted vector. Waive cold-path uses with a
                  `// HOTPATH-ALLOW(reason)` on the same or preceding
                  line.

  unused-waiver   A waiver that suppresses nothing is rot: it either
                  outlived the code it excused or never matched in the
                  first place, and it trains readers to ignore
                  markers. LINT-ALLOW and HOTPATH-ALLOW must have
                  actually suppressed a finding this run.
                  SNAPSHOT-SKIP must sit on (or within three lines
                  above) a data-member declaration in a header that
                  declares the snapshot pair. That marker is the
                  waiver of simcheck's snapshot-coverage-v2 rule
                  (tools/simcheck), which checks that every member is
                  serialized; simcheck does not track unused markers,
                  so this rule does. The literal placeholder spelling
                  `(reason)` is documentation, not a waiver.

Any rule can be waived on a specific line with
`// LINT-ALLOW(<rule>): <reason>`; the reason is mandatory.

Usage: python3 tools/lint_sim.py [--root DIR]
Exit status 0 if clean, 1 with findings on stderr otherwise.
"""

import argparse
import os
import re
import sys

RNG_FILES = {os.path.join("src", "sim", "rng.hpp")}

DETERMINISM_PATTERNS = [
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"\bdefault_random_engine\b"),
     "std::default_random_engine"),
    (re.compile(r"\buniform_(?:int|real)_distribution\b"),
     "<random> distribution"),
    (re.compile(r"\b(?:system|steady|high_resolution)_clock\b"),
     "std::chrono clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time()"),
    (re.compile(r"\bclock\s*\(\s*\)"), "clock()"),
]

ASSERT_PATTERNS = [
    (re.compile(r"^\s*#\s*include\s*<cassert>"), "#include <cassert>"),
    (re.compile(r"(?<![_\w])assert\s*\("), "bare assert()"),
]

STDIO_ALWAYS = [
    (re.compile(r"\bstd::cout\b"), "std::cout"),
    (re.compile(r"\bstd::cerr\b"), "std::cerr"),
]
# printf-family calls that write to stdout. fprintf with an explicit
# stream is matched separately so fprintf(stderr, ...) stays legal.
STDOUT_PRINTF = [
    (re.compile(r"(?<![\w:])(?:std::)?printf\s*\("), "printf()"),
    (re.compile(r"(?<![\w:])(?:std::)?puts\s*\("), "puts()"),
    (re.compile(r"(?<![\w:])(?:std::)?putchar\s*\("), "putchar()"),
    (re.compile(r"(?<![\w:])(?:std::)?v?fprintf\s*\(\s*stdout\b"),
     "fprintf(stdout)"),
]

ID_PARAM = re.compile(
    r"\b(?:unsigned\s+int|unsigned|int|long|short|size_t|std::size_t"
    r"|(?:std::)?u?int(?:8|16|32|64)_t)\s+"
    r"(\w*_(?:id|slot))\b")

NOLINT = re.compile(r"NOLINT(?:NEXTLINE|BEGIN|END)?\b")
NOLINT_OK = re.compile(
    r"NOLINT(?:NEXTLINE|BEGIN|END)?\([\w.,\- ]+\)\s*:\s*\S")

LINT_ALLOW = re.compile(r"LINT-ALLOW\((?P<rule>[\w-]+)\)\s*:\s*\S")

# ---- SNAPSHOT-SKIP placement ------------------------------------------
# A header participates when it declares the member-function pair.
SNAPSHOT_DECL = re.compile(
    r"\bsnapshot\s*\(\s*SnapshotWriter|\bGpuSnapshot\s+snapshot\s*\(")
RESTORE_DECL = re.compile(
    r"\brestore\s*\(\s*SnapshotReader|"
    r"\brestore\s*\(\s*const\s+GpuSnapshot")
# A data-member declaration: type tokens, then a `name_` identifier,
# then ;/=/{ (optionally through an array extent). Assignments like
# `cursor_ = 0;` do not match (no preceding type token).
MEMBER_DECL = re.compile(
    r"^\s*(?:mutable\s+|static\s+|constexpr\s+|inline\s+)*"
    r"(?!return\b|throw\b|delete\b|new\b|case\b|goto\b)"
    r"[A-Za-z_][\w:]*(?:\s*<[^;]*>)?[\s&*]+"
    r"([A-Za-z]\w*_)\s*(?:\[[^\]]*\]\s*)?(?:;|=|\{)")
SNAPSHOT_SKIP = re.compile(r"SNAPSHOT-SKIP\([^)]*\S[^)]*\)")

# ---- hotpath rule ----------------------------------------------------
# Per-cycle simulation paths where node-based containers are banned.
HOTPATH_DIRS = (
    os.path.join("src", "mem") + os.sep,
    os.path.join("src", "sm") + os.sep,
)
HOTPATH_FILES = {
    os.path.join("src", "gpu.hpp"),
    os.path.join("src", "gpu.cpp"),
}
HOTPATH_CONTAINER = re.compile(
    r"\bstd::(?:deque|map|unordered_map)\b")
HOTPATH_ALLOW = re.compile(r"HOTPATH-ALLOW\([^)]*\S[^)]*\)")

LINE_COMMENT = re.compile(r"//.*$")
STRING_LIT = re.compile(r'"(?:[^"\\]|\\.)*"')


def strip_code_noise(line):
    """Drop string literals and comments so patterns match code only."""
    line = STRING_LIT.sub('""', line)
    return LINE_COMMENT.sub("", line)


def allows(line, rule):
    m = LINT_ALLOW.search(line)
    return bool(m and m.group("rule") == rule)


def guard_name(rel):
    # src/mem/l1d.hpp -> CKESIM_MEM_L1D_HPP
    inner = rel[len("src" + os.sep):]
    return "CKESIM_" + re.sub(r"[^A-Za-z0-9]", "_", inner).upper()


WAIVER_KINDS = (
    ("HOTPATH-ALLOW", HOTPATH_ALLOW),
    ("SNAPSHOT-SKIP", SNAPSHOT_SKIP),
)


class Linter:
    def __init__(self, root):
        self.root = root
        self.findings = []
        # (rel, line, kind) -> {"rule": str|None, "used": bool}
        self.waivers = {}

    def report(self, rel, lineno, rule, msg):
        self.findings.append(f"{rel}:{lineno}: [{rule}] {msg}")

    def register_waivers(self, rel, lines):
        for i, raw in enumerate(lines, 1):
            m = LINT_ALLOW.search(raw)
            if m:
                self.waivers[(rel, i, "LINT-ALLOW")] = {
                    "rule": m.group("rule"), "used": False}
            for kind, pat in WAIVER_KINDS:
                mm = pat.search(raw)
                # `(reason)` is the placeholder spelling used when a
                # comment talks ABOUT the marker; never a real waiver.
                if mm and "(reason)" not in mm.group(0):
                    self.waivers[(rel, i, kind)] = {
                        "rule": None, "used": False}

    def use_waiver(self, rel, line, kind, rule=None):
        w = self.waivers.get((rel, line, kind))
        if w is not None and (kind != "LINT-ALLOW"
                              or w["rule"] == rule):
            w["used"] = True

    def allows_line(self, rel, i, raw, rule):
        """Line-level LINT-ALLOW check that records the use."""
        if allows(raw, rule):
            self.use_waiver(rel, i, "LINT-ALLOW", rule)
            return True
        return False

    def lint_file(self, rel):
        path = os.path.join(self.root, rel)
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()

        is_header = rel.endswith(".hpp")
        self.register_waivers(rel, lines)
        stdio_file_line = next(
            (j for j, l in enumerate(lines[:40], 1)
             if allows(l, "stdio")), None)
        is_hotpath = (rel in HOTPATH_FILES
                      or rel.startswith(HOTPATH_DIRS))

        for i, raw in enumerate(lines, 1):
            code = strip_code_noise(raw)

            if rel not in RNG_FILES:
                for pat, what in DETERMINISM_PATTERNS:
                    if not pat.search(code):
                        continue
                    if self.allows_line(rel, i, raw, "determinism"):
                        continue
                    self.report(
                        rel, i, "determinism",
                        f"{what} — route all randomness through "
                        "src/sim/rng.hpp and never read the "
                        "wall clock in simulation code")

            for pat, what in ASSERT_PATTERNS:
                if not pat.search(code):
                    continue
                if self.allows_line(rel, i, raw, "bare-assert"):
                    continue
                self.report(
                    rel, i, "bare-assert",
                    f"{what} — use SIM_CHECK/SIM_INVARIANT "
                    "from sim/check.hpp")

            for pat, what in STDIO_ALWAYS:
                if not pat.search(code):
                    continue
                if self.allows_line(rel, i, raw, "stdio"):
                    continue
                self.report(
                    rel, i, "stdio",
                    f"{what} — simulator code must not write "
                    "to standard streams; reporting goes "
                    "through the metrics layer")
            for pat, what in STDOUT_PRINTF:
                if not pat.search(code):
                    continue
                if self.allows_line(rel, i, raw, "stdio"):
                    continue
                if stdio_file_line is not None:
                    self.use_waiver(rel, stdio_file_line,
                                    "LINT-ALLOW", "stdio")
                    continue
                self.report(
                    rel, i, "stdio",
                    f"{what} — stdout output is reserved "
                    "for files with a file-level "
                    "`// LINT-ALLOW(stdio): reason` "
                    "marker")

            if is_hotpath:
                m = HOTPATH_CONTAINER.search(code)
                if m:
                    if HOTPATH_ALLOW.search(raw):
                        self.use_waiver(rel, i, "HOTPATH-ALLOW")
                    elif i >= 2 and HOTPATH_ALLOW.search(
                            lines[i - 2]):
                        self.use_waiver(rel, i - 1, "HOTPATH-ALLOW")
                    else:
                        self.report(
                            rel, i, "hotpath",
                            f"{m.group(0)} in a per-cycle simulation "
                            "path — use RingBuf (sim/ringbuf.hpp) "
                            "or a flat table (DESIGN.md §14), or "
                            "waive a cold-path use with "
                            "`// HOTPATH-ALLOW(reason)`")

            if NOLINT.search(raw) and not NOLINT_OK.search(raw):
                self.report(
                    rel, i, "nolint-reason",
                    "bare NOLINT — write "
                    "`NOLINT(check-name): reason`")

            if is_header:
                m = ID_PARAM.search(code)
                if m and not self.allows_line(
                        rel, i, raw, "int-id-param"):
                    self.report(
                        rel, i, "int-id-param",
                        f"integer parameter '{m.group(1)}' — use the "
                        "strong types from sim/types.hpp (KernelId, "
                        "SmId, WarpSlot) or rename to *_index if it "
                        "is a positional index")

        if is_header:
            self.lint_guard(rel, lines)
            self.mark_snapshot_skips(rel, lines)

    def mark_snapshot_skips(self, rel, lines):
        """Mark each SNAPSHOT-SKIP that annotates a data member of a
        snapshotted header as used; the rest are unused waivers."""
        text = "\n".join(lines)
        if not (SNAPSHOT_DECL.search(text)
                and RESTORE_DECL.search(text)):
            return
        for i, raw in enumerate(lines, 1):
            if not SNAPSHOT_SKIP.search(raw):
                continue
            # On its own declaration line, or a comment within the
            # three lines above one (doc-block style).
            for j in range(i, min(i + 3, len(lines)) + 1):
                if MEMBER_DECL.search(strip_code_noise(lines[j - 1])):
                    self.use_waiver(rel, i, "SNAPSHOT-SKIP")
                    break

    def lint_guard(self, rel, lines):
        want = guard_name(rel)
        ifndef = next(
            (l for l in lines
             if l.lstrip().startswith("#ifndef")), None)
        if ifndef is None or ifndef.split()[1] != want:
            got = ifndef.split()[1] if ifndef else "none"
            self.report(
                rel, 1, "include-guard",
                f"guard '{got}' — expected '{want}'")

    def run(self):
        src = os.path.join(self.root, "src")
        for dirpath, _, names in os.walk(src):
            for name in sorted(names):
                if not name.endswith((".hpp", ".cpp")):
                    continue
                rel = os.path.relpath(
                    os.path.join(dirpath, name), self.root)
                self.lint_file(rel)
        for (rel, line, kind), w in sorted(self.waivers.items()):
            if w["used"]:
                continue
            what = (f"LINT-ALLOW({w['rule']})"
                    if kind == "LINT-ALLOW" else kind)
            self.report(
                rel, line, "unused-waiver",
                f"{what} marker no longer suppresses any finding — "
                "the code it excused is gone (or never matched); "
                "delete the marker so waivers cannot rot")
        return self.findings


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--root",
        default=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    args = ap.parse_args()

    findings = Linter(args.root).run()
    if findings:
        for f in sorted(findings):
            print(f, file=sys.stderr)
        print(f"lint_sim: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print("lint_sim: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
