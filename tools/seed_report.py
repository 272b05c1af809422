#!/usr/bin/env python3
"""Seeds report: how far a change moves the reproduced numbers.

Runs `griffin_bench run --all --seed s --threads 4` for each seed s
(1..8 by default) with a parent and a change binary, then prints:

  * for each (experiment, arch, category, options) geomean of speedup
    over the networks, the delta of its mean over the seeds, change
    against parent, in percent: the max, the median and the ten
    largest;
  * fig8's headline_dev per seed, through perfbench/metrics.py.

A behaviour change that should move nothing but seed noise keeps
every delta small; ROADMAP's directions 1-3 report this table.

    tools/seed_report.py PARENT_BENCH CHANGE_BENCH [--seeds 1-8]
        [--experiments fig8 ...] [--max-delta PERCENT]

With --max-delta, the exit status is 1 when any delta's magnitude
exceeds it (the seed_report ctest runs one binary as both sides and
demands 0).
"""

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import metrics  # noqa: E402  (perfbench/metrics.py, imported unedited)


def parse_seeds(text):
    """'1-8' or '1,2,5' to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds in " + repr(text))
    return seeds


def run_side(bench, seed, experiments, workdir):
    """One griffin_bench run: (result rows, table JSON lines)."""
    rows = os.path.join(workdir, "rows.jsonl")
    tables = os.path.join(workdir, "tables.jsonl")
    for path in (rows, tables):
        if os.path.exists(path):
            os.remove(path)
    cmd = ([bench, "run"] + (experiments or ["--all"]) +
           ["--seed", str(seed), "--threads", "4", "--out", rows,
            "--json", tables])
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit("seed_report: %s exited %d:\n%s" %
                 (" ".join(cmd), done.returncode, done.stderr))
    with open(rows) as f:
        row_lines = f.read().splitlines()
    with open(tables) as f:
        table_lines = f.read().splitlines()
    return row_lines, table_lines


def geomeans(row_lines):
    """{(experiment, arch, category, options): geomean of speedup}."""
    speedups = collections.defaultdict(list)
    for line in row_lines:
        row = json.loads(line)
        options = {k: v for k, v in row["options"].items() if k != "seed"}
        key = (row["experiment"], row["arch"], row["category"],
               json.dumps(options, sort_keys=True))
        speedups[key].append(row["speedup"])
    return {key: math.exp(statistics.fmean(math.log(s) for s in values))
            for key, values in speedups.items()}


def headline(table_lines):
    """fig8's headline_dev, or None when the run rendered no headline."""
    ratios = metrics.headline_from_tables(table_lines)
    return None if ratios is None else metrics.headline_dev(*ratios)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent's griffin_bench")
    parser.add_argument("change", help="the change's griffin_bench")
    parser.add_argument("--seeds", type=parse_seeds,
                        default=parse_seeds("1-8"))
    parser.add_argument("--experiments", nargs="+", default=None,
                        help="experiments to run (default: --all)")
    parser.add_argument("--max-delta", type=float, default=None,
                        help="exit 1 if any |delta| exceeds this percent")
    args = parser.parse_args()

    sums = {"parent": collections.defaultdict(float),
            "change": collections.defaultdict(float)}
    headlines = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as workdir:
        for seed in args.seeds:
            for side in ("parent", "change"):
                rows, tables = run_side(getattr(args, side), seed,
                                        args.experiments, workdir)
                for key, value in geomeans(rows).items():
                    sums[side][key] += value
                headlines[side].append(headline(tables))
    if set(sums["parent"]) != set(sums["change"]):
        sys.exit("seed_report: the two sides report different geomeans")

    deltas = sorted(
        ((100.0 * (sums["change"][k] / sums["parent"][k] - 1.0), k)
         for k in sums["parent"]),
        key=lambda item: -abs(item[0]))
    magnitudes = [abs(d) for d, _ in deltas]
    seeds = ",".join(str(s) for s in args.seeds)
    print("seed_report: %d geomeans of speedup over seeds %s" %
          (len(deltas), seeds))
    print("delta of the mean over seeds, change vs parent: max %.3f%%, "
          "median %.3f%%" % (max(magnitudes), statistics.median(magnitudes)))
    print("ten largest:")
    for delta, (exp, arch, cat, options) in deltas[:10]:
        print("  %+8.3f%%  %s %s %s %s" % (delta, exp, arch, cat, options))

    if None not in headlines["parent"] + headlines["change"]:
        print("fig8 headline_dev per seed:")
        print("  seed  parent  change")
        for seed, p, c in zip(args.seeds, headlines["parent"],
                              headlines["change"]):
            print("  %4d  %.4f  %.4f" % (seed, p, c))
        print("  median %.4f  %.4f" % (statistics.median(headlines["parent"]),
                                       statistics.median(headlines["change"])))

    if args.max_delta is not None and max(magnitudes) > args.max_delta:
        print("seed_report: a delta exceeds %g%%" % args.max_delta)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
