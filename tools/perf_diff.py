#!/usr/bin/env python3
"""Gate strict_busy cycles/sec on interleaved parent/change runs.

    python3 tools/perf_diff.py PARENT CHANGE [PARENT CHANGE ...] > paired.json

Each PARENT CHANGE pair is two bench_perf artifacts measured back to
back on one host: the parent commit's build and the change's build,
alternating which side runs first. For every strict_busy case (a
workload and a scheme) the tool takes each pair's ratio change /
parent of cycles_per_sec (higher is faster) and gates the median
ratio: below --tolerance is a regression. A case that no parent
artifact has is new: its row records the change's numbers, marked
"new", and it is gated from the next comparison on; a parent case the
change lacks is a finding. A ratio is only meaningful between runs of
one host in one session, so both sides are measured together; an
artifact recorded on another machine says nothing about this one.

stdout is the BENCH_perf.json record of the comparison: the last
CHANGE artifact, whose strict_busy section gains the pair count and,
per case, the median of each side, the median ratio ("improvement")
and its spread (the first and third quartiles of the ratios). stderr
has one line per case and the verdict.

The codec section (Gpu::snapshot and Gpu::restorePrefix of a
profiling window) is reported, never gated: per window, the median
change / parent ratio of each time (below 1 is faster) and its
quartiles, or "new" when no parent artifact has the window.

Exit status: 0 clean, 1 if a median ratio falls below --tolerance or a
case is missing from some artifacts, 2 on unreadable artifacts or an
odd number of paths.
"""

import argparse
import json
import statistics
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def busy_cases(doc):
    """strict_busy cases by (workload, scheme). An artifact whose cases
    carry no workload ran them all on the section's one workload."""
    busy = doc.get("strict_busy", {})
    return {(c.get("workload", busy.get("workload")), c["scheme"]): c
            for c in busy.get("cases", [])}


def codec_windows(doc):
    """codec windows by name (none in artifacts older than the
    section)."""
    return {w["window"]: w
            for w in doc.get("codec", {}).get("windows", [])}


def codec_rows(pairs, last):
    """The codec section's paired ratios, one row per window of the
    last artifact. Reported only: host noise on a few-ms timing is no
    gate."""
    rows = []
    for name, final in codec_windows(last).items():
        both = [(codec_windows(p).get(name), codec_windows(c).get(name))
                for p, c in pairs]
        both = [(p, c) for p, c in both if p is not None and c is not None]
        row = {"window": name, "sms": final["sms"],
               "plain_bytes": final["plain_bytes"],
               "deflated_bytes": final["deflated_bytes"]}
        if not both:
            changes = [codec_windows(c).get(name) for _, c in pairs]
            changes = [c for c in changes if c is not None]
            for key in ("snapshot_ms", "restore_ms"):
                row[key] = round(statistics.median(
                    c[key] for c in changes), 3)
            row["new"] = True
            print(f"codec {name:<20} change snapshot "
                  f"{row['snapshot_ms']:.2f} ms  restorePrefix "
                  f"{row['restore_ms']:.2f} ms  new: no parent window",
                  file=sys.stderr)
            rows.append(row)
            continue
        line = f"codec {name:<20}"
        for key, what in (("snapshot_ms", "snapshot"),
                          ("restore_ms", "restorePrefix")):
            ratios = [c[key] / p[key] for p, c in both]
            q1, q3 = quartiles(ratios)
            stem = key[:-3]
            row[key] = round(statistics.median(c[key] for _, c in both), 3)
            row[f"prev_{key}"] = round(
                statistics.median(p[key] for p, _ in both), 3)
            row[f"{stem}_ratio"] = round(statistics.median(ratios), 3)
            row[f"{stem}_ratio_q1"] = round(q1, 3)
            row[f"{stem}_ratio_q3"] = round(q3, 3)
            line += (f"  {what} {row[f'prev_{key}']:.2f} -> "
                     f"{row[key]:.2f} ms {row[f'{stem}_ratio']:5.3f}x "
                     f"[q1 {q1:5.3f}, q3 {q3:5.3f}]")
        print(f"{line} over {len(both)} pair(s), ungated",
              file=sys.stderr)
        rows.append(row)
    return rows


def dumps(value, indent=0):
    """JSON with one line per record: a dict or list holding no
    container is written on one line, as bench_perf writes its rows."""
    pad = "  " * (indent + 1)
    if isinstance(value, dict) and any(
            isinstance(v, (dict, list)) for v in value.values()):
        items = [f"{pad}{json.dumps(k)}: {dumps(v, indent + 1)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + "  " * indent + "}"
    if isinstance(value, list) and any(
            isinstance(v, (dict, list)) for v in value):
        items = [pad + dumps(v, indent + 1) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + "  " * indent + "]"
    return json.dumps(value)


def quartiles(values):
    """First and third quartiles (inclusive method; one value is its
    own quartiles)."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2])
    ap.add_argument("artifacts", nargs="+",
                    help="PARENT CHANGE [PARENT CHANGE ...]")
    ap.add_argument(
        "--tolerance", type=float, default=0.90,
        help="lowest median change/parent throughput ratio before a "
             "scheme counts as a regression (default %(default)s)")
    args = ap.parse_args()
    if len(args.artifacts) % 2:
        print("perf_diff: artifacts come in PARENT CHANGE pairs",
              file=sys.stderr)
        return 2

    docs = [load(p) for p in args.artifacts]
    pairs = list(zip(docs[0::2], docs[1::2]))
    last = docs[-1]
    findings = []
    rows = []
    for (workload, scheme), final in busy_cases(last).items():
        name = f"{workload} {scheme}"
        key = (workload, scheme)
        if all(key not in busy_cases(parent) for parent, _ in pairs):
            changes = [busy_cases(change).get(key) for _, change in pairs]
            if None in changes:
                findings.append(f"strict_busy {name}: missing from a "
                                "change artifact")
                continue
            rows.append({
                "workload": workload, "scheme": scheme,
                "wall_ms": round(statistics.median(
                    c["wall_ms"] for c in changes), 3),
                "cycles_per_sec": round(statistics.median(
                    c["cycles_per_sec"] for c in changes)),
                "new": True})
            print(f"strict_busy {name:<20} change "
                  f"{rows[-1]['cycles_per_sec']:>9} cyc/s  new: no "
                  "parent case, gated from the next comparison on",
                  file=sys.stderr)
            continue
        parent_cps, change_cps, change_ms, ratios = [], [], [], []
        for parent, change in pairs:
            pc = busy_cases(parent).get(key)
            cc = busy_cases(change).get(key)
            if pc is None or cc is None:
                findings.append(f"strict_busy {name}: missing from a "
                                "pair's artifact")
                break
            parent_cps.append(pc["cycles_per_sec"])
            change_cps.append(cc["cycles_per_sec"])
            change_ms.append(cc["wall_ms"])
            ratios.append(cc["cycles_per_sec"] / pc["cycles_per_sec"])
        else:
            ratio = statistics.median(ratios)
            q1, q3 = quartiles(ratios)
            row = {"workload": workload,
                   "scheme": scheme,
                   "wall_ms": round(statistics.median(change_ms), 3),
                   "cycles_per_sec": round(statistics.median(change_cps)),
                   "prev_cycles_per_sec":
                       round(statistics.median(parent_cps)),
                   "improvement": round(ratio, 3),
                   "ratio_q1": round(q1, 3),
                   "ratio_q3": round(q3, 3)}
            if "prof_attributed_pct" in final:
                row["prof_attributed_pct"] = final["prof_attributed_pct"]
            rows.append(row)
            verdict = "REGRESSION" if ratio < args.tolerance else "ok"
            print(f"strict_busy {name:<20} parent "
                  f"{row['prev_cycles_per_sec']:>9} cyc/s  change "
                  f"{row['cycles_per_sec']:>9} cyc/s  "
                  f"{ratio:5.3f}x [q1 {q1:5.3f}, q3 {q3:5.3f}] over "
                  f"{len(ratios)} pair(s)  {verdict}", file=sys.stderr)
            if ratio < args.tolerance:
                findings.append(
                    f"strict_busy {name}: median {ratio:.3f}x of the "
                    f"parent (tolerance {args.tolerance:.2f})")

    for workload, scheme in sorted(
            {key for parent, _ in pairs for key in busy_cases(parent)}
            - set(busy_cases(last))):
        findings.append(f"strict_busy {workload} {scheme}: in a parent "
                        "artifact but not the change's")
    if not rows and not findings:
        findings.append("no strict_busy cases in the artifacts")
    if "strict_busy" in last:
        busy = last["strict_busy"]
        busy.pop("cases", None)
        busy["pairs"] = len(pairs)
        busy["cases"] = rows
    if "codec" in last:
        codec = last["codec"]
        windows = codec_rows(pairs, last)
        codec.pop("windows", None)
        codec["pairs"] = len(pairs)
        codec["windows"] = windows
    print(dumps(last))

    if findings:
        print(f"perf_diff: {len(findings)} finding(s):", file=sys.stderr)
        for f in findings:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"perf_diff: {len(rows)} case(s) within tolerance "
          f"{args.tolerance:.2f} over {len(pairs)} pair(s)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
