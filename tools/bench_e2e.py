#!/usr/bin/env python3
"""Record end-to-end figure wall times of one or more builds.

Runs paper-evaluation experiments with --tables --jobs N, repeats
every (build, figure) run with the builds interleaved, and writes one
row per (build, figure): median wall time with min and max, peak RSS,
the engine's sims executed, WS prefix runs and restores, the tables'
md5, host_cores and the build's commit. The tool only measures; it
does not build.

    python3 tools/bench_e2e.py \\
        --build parent=../parent-build@6250f7c \\
        --build change=build@HEAD \\
        --repeats 3 --jobs 4 --out BENCH_e2e.json

A figure is NAME or NAME:CYCLES (CKESIM_CYCLES for that run; without
it the default length). NAME is an experiment's short name (t2, f2,
..., s45) or eval, every experiment. A build with bench/ckesim-eval
runs a figure as `ckesim-eval --filter EXPERIMENT` and eval as one
ckesim-eval run. An older build runs the figure's own binary, and for
eval all 15 binaries in table order, summing walls, sims and prefix
counts and hashing the concatenated tables, so both rows' md5s
compare. The default set is t2, f11, f12 and f13 at 5000 cycles plus
f9 at the default length. A commit given as a ref is resolved with
git in the current directory.
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

# ckesim-eval's experiments in table order: short name, experiment
# name, and the binary that ran it alone before ckesim-eval existed.
EXPERIMENTS = [
    ("t2", "table2/characterization", "bench_t2_characterization"),
    ("f2", "figure2/utilization", "bench_f2_utilization"),
    ("f3", "figure3/scalability", "bench_f3_scalability"),
    ("f4", "figure4/ws_gap", "bench_f4_ws_gap"),
    ("f5", "figure5/cache_partitioning", "bench_f5_cache_partitioning"),
    ("f6", "figure6/l1d_timeline", "bench_f6_l1d_timeline"),
    ("f8", "figure8/bmi_timeline", "bench_f8_bmi_timeline"),
    ("f9", "figure9/smil_sweep", "bench_f9_smil_sweep"),
    ("f11", "figure11/qbmi_dmil", "bench_f11_qbmi_dmil"),
    ("f12", "figure12/warped_slicer_eval", "bench_f12_warped_slicer_eval"),
    ("f13", "figure13/smk_eval", "bench_f13_smk_eval"),
    ("f14", "figure14/three_kernels", "bench_f14_three_kernels"),
    ("s43", "s43/sensitivity", "bench_s43_sensitivity"),
    ("s44", "s44/overhead_table", "bench_s44_overhead"),
    ("s45", "s45/discussion", "bench_s45_discussion"),
]
FIGURES = ["eval"] + [short for short, _, _ in EXPERIMENTS]
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
    if commit:
        try:
            commit = subprocess.check_output(
                ["git", "rev-parse", "--short", commit],
                stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass  # not a ref here: keep what was given
    return {"label": label, "dir": path, "commit": commit or None}


def parse_figure(spec):
    name, _, cycles = spec.partition(":")
    if name not in FIGURES:
        die("unknown figure '%s' (known: %s)" % (name, " ".join(FIGURES)))
    return {"name": name, "cycles": int(cycles) if cycles else None}


def commands(build, name):
    """The processes figure NAME takes on BUILD, in run order."""
    bench = os.path.join(build["dir"], "bench")
    driver = os.path.join(bench, "ckesim-eval")
    rows = [row for row in EXPERIMENTS if name in ("eval", row[0])]
    if not os.path.isfile(driver):
        return [[os.path.join(bench, binary)] for _, _, binary in rows]
    if name == "eval":
        return [[driver]]
    return [[driver, "--filter", rows[0][1]]]


def run_once(build, fig, jobs):
    env = dict(os.environ)
    for var in ("CKESIM_CYCLES", "CKESIM_JOBS", "CKESIM_PROF"):
        env.pop(var, None)
    if fig["cycles"] is not None:
        env["CKESIM_CYCLES"] = str(fig["cycles"])
    run = {"wall": 0.0, "rss_mb": 0.0, "sims": 0, "prefix_runs": 0,
           "prefix_restores": 0}
    md5 = hashlib.md5()
    for argv in commands(build, fig["name"]):
        argv += ["--tables", "--jobs", str(jobs)]
        with tempfile.TemporaryFile() as out, \
                tempfile.TemporaryFile() as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
            # wait4 reaps the child with its own rusage (peak RSS).
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            out, err = out.read(), err.read()
        if proc.returncode != 0:
            die("%s exited %d: %s" % (" ".join(argv), proc.returncode,
                                      err.decode(errors="replace")[-400:]))
        md5.update(out)
        text = err.decode(errors="replace")
        sims = SIMS_RE.search(text)
        prefix = PREFIX_RE.search(text)
        run["wall"] += wall
        run["rss_mb"] = max(run["rss_mb"], usage.ru_maxrss / 1024.0)
        run["sims"] = (run["sims"] + int(sims.group(1))
                       if sims and run["sims"] is not None else None)
        if prefix:
            run["prefix_runs"] += int(prefix.group(1))
            run["prefix_restores"] += int(prefix.group(2))
    run["md5"] = md5.hexdigest()
    return run


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

    rows = []
    for build in builds:
        for fi, fig in enumerate(figures):
            rs = runs[(build["label"], fi)]
            walls = [r["wall"] for r in rs]
            md5s = sorted({r["md5"] for r in rs})
            rows.append({
                "build": build["label"],
                "commit": build["commit"],
                "figure": fig["name"],
                "cycles": fig["cycles"] or "default",
                "jobs": args.jobs,
                "repeats": len(rs),
                "wall_s": {"median": round(statistics.median(walls), 3),
                           "min": round(min(walls), 3),
                           "max": round(max(walls), 3)},
                "peak_rss_mb": round(max(r["rss_mb"] for r in rs), 1),
                "sims_executed": rs[0]["sims"],
                "prefix_runs": rs[0]["prefix_runs"],
                "prefix_restores": rs[0]["prefix_restores"],
                "tables_md5": md5s[0] if len(md5s) == 1 else md5s,
            })
    doc = {"bench": "e2e_figures",
           "host_cores": len(os.sched_getaffinity(0)),
           "rows": rows}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print("bench_e2e: wrote %s" % args.out, file=sys.stderr)


if __name__ == "__main__":
    main()
