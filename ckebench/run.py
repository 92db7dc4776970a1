#!/usr/bin/env python3
"""The ckesim benchmark: one command per workload, run from the root of a
checkout.

    python3 ckebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ckebench/README.md for why each was chosen):

  paper_eval  the four paper-evaluation bench binaries (t2, f11, f12, f13)
              with --tables --jobs $(nproc), one process per figure
  sim_busy    strict single-threaded Gpu::run, 16-SM Table 1 machine,
              C+C pairs pf+bp and bp+hs under WS, WS-QBMI-DMIL and SMK
  sim_stall   the same harness on the M+M pairs sv+ks and sv+ax
  service     ckesim-campaignd --serve with 2 workers and a journal, two
              closed-loop clients submitting smoke campaigns

The script builds the simulator, the four bench binaries, the daemon and
the harness (ckebench/harness.cpp) from source into $CARGO_TARGET_DIR
(default .bench_build), pins the environment, runs the workload, checks
its outputs and prints one JSON result as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones (a separate, profiled run). End-to-end
timings are scaled to a reference host speed by a fixed probe run between
timed steps. The line before the result records the host and build the
numbers came from, and the unscaled timings.

--short shrinks every workload for the benchmark's own test;
--expected FILE replaces the recorded digests and fingerprints.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

FIGURES = [
    "bench_t2_characterization",
    "bench_f11_qbmi_dmil",
    "bench_f12_warped_slicer_eval",
    "bench_f13_smk_eval",
]
SHORT_FIGURES = ["bench_t2_characterization", "bench_f13_smk_eval"]
PROFILED_FIGURE = "bench_f13_smk_eval"
TARGETS = FIGURES + ["ckesim-campaignd", "ckebench_harness"]

# Per-mode sizes. "full" is what BENCHMARK.json runs; "short" is the
# benchmark's own test.
SIZES = {
    "full": {"eval_cycles": 5000, "sim_cycles": 20000,
             "svc_cycles": 2000},
    "short": {"eval_cycles": 2000, "sim_cycles": 6000,
              "svc_cycles": 500},
}
PAIRS = {"sim_busy": "pf+bp,bp+hs", "sim_stall": "sv+ks,sv+ax"}
WORKLOADS = ["paper_eval", "sim_busy", "sim_stall", "service"]
PINNED_OFF = ["CKESIM_FAST", "CKESIM_PROF", "CKESIM_FULL", "CKESIM_JOBS"]
PROF_COMPS = ["sm_issue", "lsu", "l1d", "noc", "l2", "dram", "scheme",
              "integrity", "runloop"]
SWEEP_RE = re.compile(
    r"sweep engine: (\d+) jobs, (\d+) sims executed, (\d+) memo hits "
    r".*isolated runs (\d+) executed / (\d+) reused")
# CKESIM_PROF tables, printed by each Gpu at teardown.
PROFILE_RE = re.compile(r"^profile: wall (\d+\.\d) ms, attributed "
                        r"(\d+\.\d)%$")
COMP_RE = re.compile(r"^  ([a-z_0-9]+) +(\d+\.\d) +\d+\.\d% +\d+$")


def die(msg):
    print("ckebench: " + msg, file=sys.stderr)
    sys.exit(2)


def host_cores():
    return len(os.sched_getaffinity(0))


def median(xs):
    return statistics.median(xs) if xs else 0.0


def nearest_rank(xs, p):
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[max(0, math.ceil(p * len(s)) - 1)]


# ---- build -------------------------------------------------------------


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build(bdir):
    for rel in ("src/gpu.hpp", "src/CMakeLists.txt", "bench/CMakeLists.txt",
                "tools/campaignd.cpp"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            die("no simulator sources next to the benchmark (missing %s)"
                % rel)
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    with open(log, "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", str(host_cores()),
                      "--target"] + TARGETS)
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: " + " ".join(cmd))


def build_facts(bdir):
    facts = {"host_cores": host_cores(), "build_type": "?",
             "compiler": "?"}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                facts["build_type"] = line.split("=", 1)[1].strip()
            elif line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = line.split("=", 1)[1].strip()
                ver = subprocess.run([cxx, "--version"], capture_output=True,
                                     text=True).stdout.splitlines()
                facts["compiler"] = ver[0] if ver else cxx
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        commit = r.stdout.strip() or "none"
    facts["commit"] = commit
    digest = hashlib.sha256()
    for top in ("src", "bench", "tools", "ckebench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    facts["source_sha256"] = digest.hexdigest()[:16]
    return facts


def pinned_env(cycles):
    env = dict(os.environ)
    for name in PINNED_OFF:
        env.pop(name, None)
    env["CKESIM_CYCLES"] = str(cycles)
    return env


# ---- host-speed reference ---------------------------------------------


class Probes:
    """Reference probes between timed steps (RefProbe in harness.cpp).

    A shared host's neighbours slow every workload by up to 1.9x for
    seconds to minutes. The probe is a fixed workload, run on as many
    threads as the timed step uses, that slows down with them but not
    with a change to ckesim; each timed step is scaled by ref_ms / the
    mean of the probes just before and just after it.
    """

    def __init__(self, bdir, threads):
        self.argv = [os.path.join(bdir, "ckebench_harness"), "probe",
                     "--threads", str(threads)]
        self.times = []
        self.ref = self.run()

    def run(self):
        r = subprocess.run(self.argv, capture_output=True, text=True,
                           check=True)
        out = json.loads(r.stdout)
        self.times.append(out["probe_ms"])
        return out["ref_ms"]

    def scale(self):
        """Probe again; the factor for the step since the last probe."""
        self.run()
        return self.ref / ((self.times[-2] + self.times[-1]) / 2.0)


# ---- paper_eval ----------------------------------------------------------


def run_figure(bdir, fig, env, args, workdir):
    """One bench binary: (wall_s, cpu_s, peak_rss_mb, rc, stdout, stderr)."""
    exe = os.path.join(bdir, "bench", fig)
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([exe] + args, env=env, stdout=out, stderr=err)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    rc = p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read().decode(errors="replace")
    return (wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, rc,
            stdout, stderr)


def check_figure(fig, rc, stdout, stderr, expected, res):
    """Count one figure run; returns its sweep summary counts or None."""
    res["attempted"] += 1
    digest = hashlib.md5(stdout).hexdigest()
    m = SWEEP_RE.search(stderr)
    if rc != 0:
        res["errors"].append("%s exited %d" % (fig, rc))
    elif digest != expected.get(fig):
        res["errors"].append("%s tables md5 %s, recorded %s"
                             % (fig, digest, expected.get(fig)))
    elif not m:
        res["errors"].append("%s printed no sweep summary" % fig)
    else:
        return [int(g) for g in m.groups()]
    res["failed"] += 1
    return None


def eval_pass(bdir, figures, env, jobs, expected, res, workdir, probes):
    """Every figure once; checks bytes and counts engine work."""
    out = {"wall": 0.0, "scaled": 0.0, "cpu": 0.0, "rss": 0.0,
           "fig_s": {}, "scaled_fig_s": {}, "sweep": [0] * 5}
    for fig in figures:
        wall, cpu, rss, rc, stdout, stderr = run_figure(
            bdir, fig, env, ["--tables", "--jobs", str(jobs)], workdir)
        scale = probes.scale()
        out["wall"] += wall
        out["scaled"] += wall * scale
        out["cpu"] += cpu
        out["rss"] = max(out["rss"], rss)
        out["fig_s"][fig] = wall
        out["scaled_fig_s"][fig] = wall * scale
        sweep = check_figure(fig, rc, stdout, stderr, expected, res)
        for i, n in enumerate(sweep or []):
            out["sweep"][i] += n
    return out


def profiled_figure(bdir, fig, env, expected, res, workdir):
    """One figure at --jobs 1, plain and with CKESIM_PROF.

    One job at a time, so no two Gpu teardown reports interleave on
    stderr; a report count other than the executed sims fails the run.
    """
    args = ["--tables", "--jobs", "1"]
    plain = run_figure(bdir, fig, env, args, workdir)
    check_figure(fig, plain[3], plain[4], plain[5], expected, res)
    wall, _, _, rc, stdout, stderr = run_figure(
        bdir, fig, dict(env, CKESIM_PROF="1"), args, workdir)
    sweep = check_figure(fig, rc, stdout, stderr, expected, res) or [0] * 5
    prof = {"sims": sweep[1], "wall": 0.0, "attr": 0.0, "comp": {},
            "overhead": wall / plain[0] - 1}
    reports = tables = 0
    for line in stderr.splitlines():
        pm = PROFILE_RE.match(line)
        cm = COMP_RE.match(line)
        if pm:
            reports += 1
            prof["wall"] += float(pm.group(1))
            prof["attr"] += float(pm.group(1)) * float(pm.group(2)) / 100.0
        elif line.split() == ["component", "ms", "%", "scopes"]:
            tables += 1
        elif cm:
            prof["comp"][cm.group(1)] = prof["comp"].get(
                cm.group(1), 0.0) + float(cm.group(2))
    if rc == 0 and not reports == tables == sweep[1]:
        res["failed"] += 1
        res["errors"].append("%s: %d profile reports, %d tables, %d sims"
                             % (fig, reports, tables, sweep[1]))
    return prof


def paper_eval(bdir, opts, size, expected, res):
    with scratch_dir(bdir) as workdir:
        return measure_paper_eval(bdir, opts, size, expected, res, workdir)


def measure_paper_eval(bdir, opts, size, expected, res, workdir):
    figures = SHORT_FIGURES if opts.short else FIGURES
    cycles = size["eval_cycles"]
    env = pinned_env(cycles)
    jobs = host_cores()
    want = expected["paper_eval"]
    if want["cycles"] != cycles:
        die("recorded paper_eval digests are for %d cycles" % want["cycles"])
    probes = Probes(bdir, jobs)

    # Set-up: every binary's --list start-up, five rounds.
    setups = []
    for _ in range(5):
        t0 = time.perf_counter()
        for fig in figures:
            run_figure(bdir, fig, env, ["--list"], workdir)
        setups.append((time.perf_counter() - t0) * probes.scale())

    # The seed fixes the order the figures run in; their inputs are the
    # paper's fixed kernel suite.
    order = list(figures)
    random.Random(opts.seed).shuffle(order)

    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start + passes[-1]["wall"]
                         <= opts.seconds):
        passes.append(eval_pass(bdir, order, env, jobs, want["md5"], res,
                                workdir, probes))
    res["raw"] = {"eval_wall_s": median([p["wall"] for p in passes]),
                  "probe_ms": median(probes.times), "passes": len(passes)}

    if not opts.trace:
        figs = [p["scaled_fig_s"][f] * 1000.0 for p in passes for f in order]
        return {
            "eval_wall_s": (median([p["scaled"] for p in passes]), "s"),
            "sim_mcycles_per_s": (median(
                [p["sweep"][1] * cycles / p["scaled"] / 1e6
                 for p in passes]), "Mcycle/s"),
            "submit_p50_ms": (median(figs), "ms"),
            "submit_p90_ms": (nearest_rank(figs, 0.9), "ms"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (max(p["rss"] for p in passes), "MB"),
        }

    # Traced: f13 (the SMK figure) alone at --jobs 1 with the cycle-cost
    # profiler on; its denominator is nominal, sims x CKESIM_CYCLES.
    base = passes[0]
    prof = profiled_figure(bdir, PROFILED_FIGURE, env, want["md5"], res,
                           workdir)
    nominal_cycles = max(1, prof["sims"] * cycles)
    m = {"prof.%s_ns_per_cycle" % c:
         (prof["comp"].get(c, 0.0) * 1e6 / nominal_cycles, "ns/cycle")
         for c in PROF_COMPS}
    m["prof.attributed_pct"] = (
        100.0 * prof["attr"] / max(1e-9, prof["wall"]), "%")
    m["trace.overhead_pct"] = (100.0 * prof["overhead"], "%")
    for i, name in enumerate(["sims_executed", "memo_hits",
                              "isolated_executed", "isolated_reused"]):
        m["sweep." + name] = (base["sweep"][i + 1], "count")
    m["sweep.cpu_util"] = (base["cpu"] / (base["wall"] * jobs), "ratio")
    for fig in FIGURES:
        short = fig.split("_")[1]
        m["eval.%s_s" % short] = (base["fig_s"].get(fig, 0.0), "s")
    m["host.ref_probe_ms"] = (median(probes.times), "ms")
    return m


# ---- sim_* and service: the C++ harness ----------------------------------


@contextlib.contextmanager
def scratch_dir(bdir):
    """A per-run working directory inside the build tree."""
    path = os.path.join(bdir, "run-%d" % os.getpid())
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_harness(bdir, argv, env, res):
    exe = os.path.join(bdir, "ckebench_harness")
    with scratch_dir(bdir) as workdir:
        # Own session, so a hung harness takes its daemon down with it.
        p = subprocess.Popen([exe] + argv, cwd=workdir, env=env,
                             stdout=subprocess.PIPE, start_new_session=True)
        try:
            stdout, _ = p.communicate(timeout=160)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
            die("harness timed out")
    lines = stdout.decode().strip().splitlines()
    if p.returncode != 0 or not lines:
        die("harness exited %d" % p.returncode)
    out = json.loads(lines[-1])
    res["attempted"] += out["attempted"]
    res["failed"] += out["failed"]
    res["errors"] += out["errors"]
    res["raw"] = out["raw"]
    return out


def sim(bdir, opts, size, expected, res):
    cycles = size["sim_cycles"]
    argv = ["sim", "--pairs", PAIRS[opts.workload], "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--cycles", str(cycles)]
    if opts.trace:
        argv.append("--trace")
    out = run_harness(bdir, argv, pinned_env(cycles), res)
    want = expected["sim"]
    if opts.seed == want["seed"] and cycles == want["cycles"]:
        for case, got in out["cases"].items():
            rec = want["fingerprints"].get(case)
            if got["fp"] != "mismatch" and got["fp"] != rec:
                res["failed"] += got["runs"]
                res["errors"].append("%s fingerprint %s, recorded %s"
                                     % (case, got["fp"], rec))
    return {k: (v["value"], v["unit"]) for k, v in out["metrics"].items()}


def service(bdir, opts, size, expected, res):
    cycles = size["svc_cycles"]
    argv = ["service", "--daemon",
            os.path.join(bdir, "tools", "ckesim-campaignd"),
            "--seed", str(opts.seed), "--seconds", str(opts.seconds),
            "--cycles", str(cycles)]
    if opts.trace:
        argv.append("--trace")
    out = run_harness(bdir, argv, pinned_env(cycles), res)
    return {k: (v["value"], v["unit"]) for k, v in out["metrics"].items()}


RUNNERS = {"paper_eval": paper_eval, "sim_busy": sim, "sim_stall": sim,
           "service": service}


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--short", action="store_true")
    ap.add_argument("--expected", default=os.path.join(HERE,
                                                       "expected.json"))
    opts = ap.parse_args()

    bdir = build_dir()
    build(bdir)
    mode = "short" if opts.short else "full"
    with open(opts.expected) as f:
        expected = json.load(f)[mode]

    res = {"attempted": 0, "failed": 0, "errors": []}
    got = RUNNERS[opts.workload](bdir, opts, SIZES[mode], expected, res)

    # Every declared metric, in declaration order; a per-layer metric the
    # workload does not exercise reads 0.
    metrics = {}
    for m in declared_metrics(opts.trace):
        value, unit = got.get(m["name"], (0.0, m["unit"]))
        if unit != m["unit"]:
            die("%s measured in %s, declared %s" % (m["name"], unit,
                                                    m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}

    for err in res["errors"]:
        print("ckebench: FAILED " + err, file=sys.stderr)
    print(json.dumps({"env": dict(build_facts(bdir), workload=opts.workload,
                                  seed=opts.seed, mode=mode),
                      "raw": res.get("raw")}))
    print(json.dumps({"correct": res["failed"] == 0 and res["attempted"] > 0,
                      "attempted": max(1, res["attempted"]),
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
