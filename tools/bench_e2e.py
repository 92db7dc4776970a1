#!/usr/bin/env python3
"""Record end-to-end figure wall times of one or more builds.

Runs paper-evaluation experiments with --tables --jobs N, repeats
every (build, figure) run with the builds interleaved, and writes one
row per (build, figure): the median wall time with its quartiles, min
and max, the median CPU-seconds (user + system) with quartiles, peak
RSS, the engine's sims executed, WS prefix runs and restores, the
tables' md5, host_cores and the build's commit. Every build after the
first also gets, per figure, the median and quartiles of its per-repeat
wall and CPU ratios to the first build (wall_ratio_to_first and
cpu_ratio_to_first, below 1 is faster) and the repeats in which it
was faster. The tool only measures; it does not build.

    python3 tools/bench_e2e.py \\
        --build parent=../parent-build@6250f7c \\
        --build change=build@HEAD \\
        --repeats 3 --jobs 4 --out BENCH_e2e.json

A figure is NAME or NAME:CYCLES (CKESIM_CYCLES for that run; without
it the default length). NAME is an experiment's short name (t2, f2,
..., s45) or eval, every experiment. Each build runs a figure as
`bench/ckesim-eval --filter EXPERIMENT` and eval as one ckesim-eval
run; a build without bench/ckesim-eval is refused. The default set is t2,
f11, f12 and f13 at 5000 cycles plus f9 at the default length. A
commit given as a ref is resolved with git in the current directory.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

# ckesim-eval's experiments in table order: short name -> experiment name.
EXPERIMENTS = {
    "t2": "table2/characterization",
    "f2": "figure2/utilization",
    "f3": "figure3/scalability",
    "f4": "figure4/ws_gap",
    "f5": "figure5/cache_partitioning",
    "f6": "figure6/l1d_timeline",
    "f8": "figure8/bmi_timeline",
    "f9": "figure9/smil_sweep",
    "f11": "figure11/qbmi_dmil",
    "f12": "figure12/warped_slicer_eval",
    "f13": "figure13/smk_eval",
    "f14": "figure14/three_kernels",
    "s43": "s43/sensitivity",
    "s44": "s44/overhead_table",
    "s45": "s45/discussion",
}
FIGURES = ["eval"] + list(EXPERIMENTS)
DEFAULT_FIGURES = ["t2:5000", "f11:5000", "f12:5000", "f13:5000", "f9"]
SIMS_RE = re.compile(r"sweep engine: \d+ jobs, (\d+) sims executed")
PREFIX_RE = re.compile(r"WS prefixes (\d+) run / (\d+) restored")


def die(msg):
    print("bench_e2e: " + msg, file=sys.stderr)
    sys.exit(2)


def parse_build(spec):
    label, _, rest = spec.partition("=")
    path, _, commit = rest.partition("@")
    if not label or not path:
        die("--build wants LABEL=BUILD_DIR[@COMMIT], got " + spec)
    ckesim_eval = os.path.join(path, "bench", "ckesim-eval")
    if not os.path.isfile(ckesim_eval):
        die("%s has no bench/ckesim-eval" % path)
    if commit:
        try:
            commit = subprocess.check_output(
                ["git", "rev-parse", "--short", commit],
                stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass  # not a ref here: keep what was given
    return {"label": label, "ckesim_eval": ckesim_eval,
            "commit": commit or None}


def parse_figure(spec):
    name, _, cycles = spec.partition(":")
    if name not in FIGURES:
        die("unknown figure '%s' (known: %s)" % (name, " ".join(FIGURES)))
    return {"name": name, "cycles": int(cycles) if cycles else None}


def run_once(build, fig, jobs):
    env = dict(os.environ)
    for var in ("CKESIM_CYCLES", "CKESIM_JOBS", "CKESIM_PROF"):
        env.pop(var, None)
    if fig["cycles"] is not None:
        env["CKESIM_CYCLES"] = str(fig["cycles"])
    argv = [build["ckesim_eval"], "--tables", "--jobs", str(jobs)]
    if fig["name"] != "eval":
        argv += ["--filter", EXPERIMENTS[fig["name"]]]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        # wait4 reaps the child with its own rusage (peak RSS).
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
        out.seek(0)
        err.seek(0)
        out, err = out.read(), err.read()
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        die("%s exited %d: %s" % (" ".join(argv), code,
                                  err.decode(errors="replace")[-400:]))
    text = err.decode(errors="replace")
    sims = SIMS_RE.search(text)
    prefix = PREFIX_RE.search(text)
    return {"wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "sims": int(sims.group(1)) if sims else None,
            "prefix_runs": int(prefix.group(1)) if prefix else 0,
            "prefix_restores": int(prefix.group(2)) if prefix else 0,
            "md5": hashlib.md5(out).hexdigest()}


def spread(values, digits=3):
    """Median and quartiles (inclusive method) of @p values."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), digits),
            "q1": round(q1, digits), "q3": round(q3, digits)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build", action="append", required=True,
                    help="LABEL=BUILD_DIR[@COMMIT], repeatable")
    ap.add_argument("--figure", action="append",
                    help="NAME[:CYCLES], repeatable (default: %s)"
                    % " ".join(DEFAULT_FIGURES))
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--jobs", type=int, default=len(os.sched_getaffinity(0)))
    ap.add_argument("--out", default="BENCH_e2e.json")
    args = ap.parse_args()
    if args.repeats < 1:
        die("--repeats must be at least 1")

    builds = [parse_build(b) for b in args.build]
    figures = [parse_figure(f) for f in (args.figure or DEFAULT_FIGURES)]
    runs = {}  # (build label, figure index) -> list of run dicts
    for rep in range(args.repeats):
        for fi, fig in enumerate(figures):
            # Alternate which build goes first, so drift on a shared
            # host does not favour one of them.
            order = builds if rep % 2 == 0 else list(reversed(builds))
            for build in order:
                r = run_once(build, fig, args.jobs)
                runs.setdefault((build["label"], fi), []).append(r)
                print("bench_e2e: rep %d %-7s %-10s %7.2f s"
                      % (rep + 1, build["label"],
                         fig["name"] + (":%d" % fig["cycles"]
                                        if fig["cycles"] else ""),
                         r["wall"]), file=sys.stderr)

    host_cores = len(os.sched_getaffinity(0))
    rows = []
    for build in builds:
        for fi, fig in enumerate(figures):
            rs = runs[(build["label"], fi)]
            walls = [r["wall"] for r in rs]
            md5s = sorted({r["md5"] for r in rs})
            row = {
                "build": build["label"],
                "commit": build["commit"],
                "figure": fig["name"],
                "cycles": fig["cycles"] or "default",
                "jobs": args.jobs,
                "host_cores": host_cores,
                "repeats": len(rs),
                "wall_s": dict(spread(walls),
                               min=round(min(walls), 3),
                               max=round(max(walls), 3)),
                "cpu_s": spread([r["cpu"] for r in rs]),
                "peak_rss_mb": round(max(r["rss_mb"] for r in rs), 1),
                "sims_executed": rs[0]["sims"],
                "prefix_runs": rs[0]["prefix_runs"],
                "prefix_restores": rs[0]["prefix_restores"],
                "tables_md5": md5s[0] if len(md5s) == 1 else md5s,
            }
            first = runs[(builds[0]["label"], fi)]
            if build is not builds[0]:
                # Repeat k of each build ran back to back: a pair.
                for key in ("wall", "cpu"):
                    ratios = [r[key] / f[key] for r, f in zip(rs, first)]
                    row[key + "_ratio_to_first"] = dict(
                        spread(ratios), faster_repeats=sum(
                            x < 1.0 for x in ratios))
            rows.append(row)
    doc = {"bench": "e2e_figures",
           "host_cores": host_cores,
           "rows": rows}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print("bench_e2e: wrote %s" % args.out, file=sys.stderr)


if __name__ == "__main__":
    main()
