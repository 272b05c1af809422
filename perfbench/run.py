#!/usr/bin/env python3
"""Same-machine benchmark of the four paper sweeps.

  python3 perfbench/run.py --workload dual_sparse --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --all [--trace 1]
  python3 perfbench/run.py --compare old.json new.json

Each workload is one paper sweep run as a fresh `griffin_bench run
<experiment>` process: a closed loop of one process at a time, with
min(4, nproc) threads, the experiment's default fidelity and the
workload seed.  The code under test is built from the checkout in
Release into .bench_build/ on first use.

--trace 0 measures the end-to-end metrics from outside the process for
--seconds seconds and reports medians: wall_s (fork to exit), cpu_s
(user + system), peak_rss_mb (rusage maximum RSS) and setup_s (wall
time of `griffin_bench describe`, which registers the experiments,
builds the suite and expands the grid, sampled many times).  Every
run's rows are checked (present, well formed, finite, identical across
repeats) and, once per build, the experiment at the checked-in
baselines' fidelity is byte-compared with bench/baselines/.  Failed
jobs over attempted jobs is the error rate.

--trace 1 runs the sweep once untraced and once through
perfbench_replay (replay.cc), which times the calls into each module
from outside and must reproduce the run's rows byte for byte; it
reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Everything else (report tables, the
environment record) comes before it; build output goes to stderr.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import metrics as M

# Workload name -> (experiment, why it is in the benchmark).
WORKLOADS = {
    "weight_sparse": ("fig5", "B-stream preprocessing dominates; no A "
                              "arbiter or dual scheduler"),
    "act_sparse": ("fig6", "operand generation and the A arbiter; builds "
                           "no B streams"),
    "dual_sparse": ("fig7", "the dual scheduler, the largest hot path"),
    "overall": ("fig8", "every preset incl. SparTen; renders the "
                        "paper's headline table"),
}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"),
              ("setup_s", "s"))

NETWORKS = ("AlexNet", "BERT", "GoogLeNet", "InceptionV3", "MobileNetV2",
            "ResNet50")
KERNELS = ("nonzero_masks", "count_nonzero", "accumulate_nonzero",
           "le_mask", "min_i64", "mt_temper")
# Per-layer metrics of the traced run, with units.
PER_LAYER = (
    [("tensor.operand_gen_s", "s"), ("tensor.worksets", "count"),
     ("tensor.operand_mb", "MiB"),
     ("sched.b_preprocess_s", "s"), ("sched.b_preprocess_calls", "count"),
     ("sched.b_stream_elems", "count"),
     ("sched.a_arbiter_s", "s"), ("sched.a_arbiter_calls", "count"),
     ("sched.dual_s", "s"), ("sched.dual_calls", "count"),
     ("sched.effectual_pairs", "count"),
     ("sim.gemm_s", "s"), ("sim.self_s", "s"),
     ("sim.tiles_simulated", "count"), ("sim.host_ns_per_tile", "ns"),
     ("baselines.sparten_s", "s"), ("baselines.sparten_calls", "count"),
     ("griffin.reduce_s", "s")]
    + [("griffin.net.%s_s" % n, "s") for n in NETWORKS]
    + [("simd.%s_ns_per_elem" % k, "ns") for k in KERNELS]
    + [("runtime.pool_util", "ratio"), ("sim.sim_cycles", "cycles"),
       ("sched.stolen_ops", "count"), ("sched.idle_slot_cycles", "cycles"),
       ("sched.bw_limited_cycles", "cycles"), ("replay.cpu_s", "s"),
       ("replay.cpu_ratio", "ratio"), ("paper.headline_dev", "ln")])
# Self time per pipeline stage, in the traced report's order.
STAGES = ("tensor.operand_gen_s", "sched.b_preprocess_s",
          "sched.a_arbiter_s", "sched.dual_s", "sim.self_s",
          "baselines.sparten_s", "griffin.reduce_s")

# describe takes a few ms, so setup_s is the median of many samples.
SETUP_SAMPLES = 41
# Fewest sweep repeats per run, so a median never rests on one sample.
MIN_REPEATS = 2
# Baseline fidelity of bench/baselines/*.jsonl (see its README).
ORACLE_FLAGS = ("--sample", "0.01", "--rowcap", "4")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build" / "cmake"
WORK = ROOT / ".bench_build" / "work"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def die(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def run_child(argv, stdout_path=None, timeout=170.0):
    """Run one process to completion; (exit status, wall s, cpu s,
    peak RSS MiB).  stdout goes to `stdout_path` or is discarded; a
    process still running after `timeout` seconds is killed."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdout_path:
            out.close()
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def build():
    """Configure (once) and build the code under test in Release;
    returns (griffin_bench, perfbench_replay)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die("no griffin source tree at %s; run from the root of a "
            "checkout" % ROOT)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(min(4, nproc())), "--target", "griffin_bench",
                  "perfbench_replay"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(step))
    return (str(BUILD / "griffin" / "griffin_bench"),
            str(BUILD / "perfbench_replay"))


def read_lines(path):
    try:
        return Path(path).read_text().splitlines()
    except OSError:
        return []


def fresh(name):
    """A work-file path with no stale content from an earlier run."""
    path = WORK / name
    if path.exists():
        path.unlink()
    return str(path)


def environment(replay):
    """Commit, compiler, build type, SIMD backend and core count."""
    info_path = fresh("info.json")
    if run_child([replay, "info"], info_path)[0] != 0:
        die("perfbench_replay info failed")
    env = json.loads(read_lines(info_path)[-1])
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                 "HEAD"], capture_output=True,
                                text=True).stdout.strip() or commit
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench"):
        paths = [ROOT / top] if top.endswith(".txt") else sorted(
            p for p in (ROOT / top).rglob("*") if p.is_file())
        for p in paths:
            digest.update(str(p.relative_to(ROOT)).encode())
            digest.update(p.read_bytes())
    env.update({"commit": commit, "source_digest": digest.hexdigest()[:16],
                "nproc": nproc()})
    return env


def oracle(experiment, bench, threads):
    """(attempted, failed) rows of the baseline-fidelity run against
    bench/baselines/<experiment>.jsonl.  Runs once per build: the result
    is kept under .bench_build/, keyed by the binary and the baseline."""
    reference_path = ROOT / "bench" / "baselines" / (experiment + ".jsonl")
    if not reference_path.is_file():
        die("missing oracle " + str(reference_path))
    key = hashlib.sha256(Path(bench).read_bytes() +
                         reference_path.read_bytes()).hexdigest()[:16]
    memo = WORK / ("oracle-%s-%s.json" % (experiment, key))
    if memo.is_file():
        return tuple(json.loads(memo.read_text()))
    reference = read_lines(reference_path)
    rows = fresh("oracle-%s.jsonl" % experiment)
    status = run_child([bench, "run", experiment, *ORACLE_FLAGS,
                        "--threads", str(threads), "--out", rows])[0]
    failed = (len(reference) if status != 0 else
              min(len(reference),
                  M.differing_lines(read_lines(rows), reference)))
    result = (len(reference), failed)
    memo.write_text(json.dumps(result))
    return result


def describe_jobs(text):
    match = re.search(r"= (\d+) jobs", text)
    if not match:
        die("cannot read the job count from griffin_bench describe")
    return int(match.group(1))


def sweep_argv(bench, experiment, seed, threads, rows, tables):
    return [bench, "run", experiment, "--threads", str(threads), "--seed",
            str(seed), "--out", rows, "--json", tables]


def measure(workload, seed, seconds, threads, bench):
    """Untraced run: end-to-end samples plus (attempted, failed)."""
    experiment = WORKLOADS[workload][0]
    attempted, failed = oracle(experiment, bench, threads)

    setup = []
    describe_out = fresh("describe.txt")
    for _ in range(SETUP_SAMPLES):
        status, wall, _, _ = run_child([bench, "describe", experiment],
                                       describe_out)
        if status != 0:
            die("griffin_bench describe %s failed" % experiment)
        setup.append(wall)
    expected = describe_jobs(Path(describe_out).read_text())

    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [],
               "setup_s": setup}
    reference = None
    headlines = []
    start = time.perf_counter()
    while True:
        rows, tables = fresh("rows.jsonl"), fresh("tables.jsonl")
        status, wall, cpu, rss = run_child(
            sweep_argv(bench, experiment, seed, threads, rows, tables))
        attempted += expected
        if status != 0:
            die("griffin_bench run %s exited with %d" % (experiment, status))
        lines = read_lines(rows)
        failed += M.failed_rows(lines, expected, experiment, reference)
        reference = reference or lines
        if experiment == "fig8":
            headline = M.headline_from_tables(read_lines(tables))
            if headline is None or (headlines and headline != headlines[0]):
                failed += 1
            headlines.append(headline)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mb"].append(rss)
        # Stop before a repeat that would overrun the measuring window,
        # so every run measures about `seconds` of work.
        walls = samples["wall_s"]
        elapsed = time.perf_counter() - start
        if (len(walls) >= MIN_REPEATS and
                elapsed + sum(walls) / len(walls) > seconds):
            break
    headline_dev = (M.headline_dev(*headlines[0])
                    if headlines and headlines[0] else None)
    return samples, attempted, failed, headline_dev


def trace(workload, seed, threads, bench, replay):
    """Traced run: per-layer metrics plus (attempted, failed) and the
    replay document."""
    experiment = WORKLOADS[workload][0]
    attempted, failed = oracle(experiment, bench, threads)
    describe_out = fresh("describe.txt")
    if run_child([bench, "describe", experiment], describe_out)[0] != 0:
        die("griffin_bench describe %s failed" % experiment)
    expected = describe_jobs(Path(describe_out).read_text())

    rows, tables = fresh("rows.jsonl"), fresh("tables.jsonl")
    status, wall, cpu, _ = run_child(
        sweep_argv(bench, experiment, seed, threads, rows, tables))
    if status != 0:
        die("griffin_bench run %s exited with %d" % (experiment, status))
    lines = read_lines(rows)
    failed += M.failed_rows(lines, expected, experiment)

    replay_rows, replay_out = fresh("replay.jsonl"), fresh("replay.json")
    status, _, replay_cpu, _ = run_child(
        [replay, "replay", experiment, "--threads", str(threads), "--seed",
         str(seed), "--rows", replay_rows], replay_out)
    if status != 0:
        die("perfbench_replay %s exited with %d" % (experiment, status))
    doc = json.loads(read_lines(replay_out)[-1])
    # The replay must attribute exactly the work the run did: the same
    # rows byte for byte, and every layer's cycles from its scheduler
    # calls.
    failed += M.failed_rows(read_lines(replay_rows), expected, experiment,
                            lines)
    failed += min(expected, doc["stage_mismatches"])

    values = dict(doc["metrics"])
    for net in NETWORKS:
        values["griffin.net.%s_s" % net] = doc["networks"].get(net, 0.0)
    values["runtime.pool_util"] = cpu / (wall * threads)
    values["replay.cpu_s"] = replay_cpu
    values["replay.cpu_ratio"] = replay_cpu / cpu
    headline = M.headline_from_tables(read_lines(tables))
    values["paper.headline_dev"] = (M.headline_dev(*headline)
                                    if headline else 0.0)
    if experiment == "fig8" and headline is None:
        failed += 1
    return values, attempted + 2 * expected, failed, doc


def fmt(value):
    return "%.6g" % value


def print_table(title, header, rows):
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    print("== %s ==" % title)
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    print()


def report_end_to_end(workload, samples, attempted, failed, headline_dev):
    rows = []
    for name, unit in END_TO_END:
        s = M.summary(samples[name])
        rows.append([name, unit, fmt(s["median"]), fmt(s["q1"]),
                     fmt(s["q3"]), s["n"]])
    rows.append(["error_rate", "ratio", fmt(failed / attempted), "", "",
                 attempted])
    if headline_dev is not None:
        rows.append(["headline_dev", "ln", fmt(headline_dev), "", "", 1])
    print_table("%s (%s) end to end" % (workload, WORKLOADS[workload][0]),
                ["metric", "unit", "median", "q1", "q3", "n"], rows)


def report_trace(workload, values, doc):
    stage_total = sum(values[s] for s in STAGES) or 1.0
    print_table("%s self time per stage (thread-seconds)" % workload,
                ["stage", "s", "share"],
                [[s, fmt(values[s]), "%.1f%%" % (100 * values[s] /
                                                 stage_total)]
                 for s in STAGES])
    print_table("%s top-10 network layers (gen + runLayer s)" % workload,
                ["network", "index", "layer", "s"],
                [[t["network"], t["index"], t["layer"], fmt(t["s"])]
                 for t in doc["top_layers"]])
    print_table("%s SIMD kernels (%s, %d sampled operand bytes)"
                % (workload, doc["simd_backend"], doc["kernel_bytes"]),
                ["kernel", "ns/elem"],
                [[k, fmt(values["simd.%s_ns_per_elem" % k])]
                 for k in KERNELS])
    print_table("%s per-layer metrics" % workload, ["metric", "unit", "value"],
                [[n, u, fmt(values[n])] for n, u in PER_LAYER])


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed,
                       "metrics": {n: {"value": v, "unit": u}
                                   for n, (v, u) in metrics.items()}})


def run_one(workload, args, threads, bench, replay):
    """One workload at one setting; (metrics, attempted, failed, record)."""
    if args.trace:
        values, attempted, failed, doc = trace(workload, args.seed, threads,
                                               bench, replay)
        report_trace(workload, values, doc)
        metrics = {n: (values[n], u) for n, u in PER_LAYER}
        return metrics, attempted, failed, {"per_layer": values}
    samples, attempted, failed, headline_dev = measure(
        workload, args.seed, args.seconds, threads, bench)
    report_end_to_end(workload, samples, attempted, failed, headline_dev)
    metrics = {n: (M.summary(samples[n])["median"], u) for n, u in END_TO_END}
    return metrics, attempted, failed, {"samples": samples,
                                        "headline_dev": headline_dev}


def compare(old_path, new_path):
    """Median and quartiles of two --record files, metric by metric."""
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    for key in ("simd_backend", "nproc"):
        if old["env"][key] != new["env"][key]:
            die("refusing to compare: %s differs (%s vs %s)"
                % (key, old["env"][key], new["env"][key]))
    rows = []
    for workload in sorted(set(old["workloads"]) & set(new["workloads"])):
        a, b = old["workloads"][workload], new["workloads"][workload]
        for name, unit in END_TO_END:
            if name not in a.get("samples", {}) or \
                    name not in b.get("samples", {}):
                continue
            sa, sb = M.summary(a["samples"][name]), M.summary(b["samples"][name])
            rows.append([workload, name, unit, fmt(sa["median"]),
                         fmt(sb["median"]), "%.3f" % (sb["median"] /
                                                     sa["median"]),
                         "[%s, %s]" % (fmt(sa["q1"]), fmt(sa["q3"])),
                         "[%s, %s]" % (fmt(sb["q1"]), fmt(sb["q3"]))])
    print_table("compare %s -> %s" % (old_path, new_path),
                ["workload", "metric", "unit", "old", "new", "new/old",
                 "old q1-q3", "new q1-q3"], rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print every metric")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write samples and the "
                        "environment to this JSON file (for --compare)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if bool(args.workload) == args.all:
        parser.error("pass exactly one of --workload and --all")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    bench, replay = build()
    WORK.mkdir(parents=True, exist_ok=True)
    threads = min(4, nproc())
    env = environment(replay)
    print("env: " + json.dumps(env, sort_keys=True))

    workloads = sorted(WORKLOADS) if args.all else [args.workload]
    all_metrics, attempted, failed, record = {}, 0, 0, {}
    for workload in workloads:
        metrics, att, fail, rec = run_one(workload, args, threads, bench,
                                          replay)
        attempted += att
        failed += fail
        record[workload] = rec
        if args.all:
            metrics = {workload + "." + n: v for n, v in metrics.items()}
        all_metrics.update(metrics)
    if args.record:
        Path(args.record).write_text(json.dumps(
            {"env": env, "seed": args.seed, "threads": threads,
             "workloads": record}, indent=1, sort_keys=True))
    print(result_line(failed == 0, attempted, failed, all_metrics))


if __name__ == "__main__":
    main()
