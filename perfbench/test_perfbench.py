#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic.

  python3 perfbench/test_perfbench.py
"""

import json
import math
import re
import unittest
from pathlib import Path

import metrics as M
import run

HERE = Path(__file__).resolve().parent

# Interfaces the open cleanup items delete or rework: the benchmark
# must measure later code without depending on any of them.
BANNED_HEADERS = ("runtime/schedule_cache.hh", "runtime/cache_store.hh",
                  "runtime/perf_report.hh", "runtime/telemetry.hh",
                  "fleet/", "common/socket.hh", "bench_runner")
BANNED_FLAGS = ("--cache-file", "--cache-budget-mb", "--trace", "--stats",
                "serve", "worker", "perf", "bench_runner")


def baseline_row():
    return (HERE.parent / "bench" / "baselines" /
            "fig8.jsonl").read_text().splitlines()[0]


class SummaryTest(unittest.TestCase):
    def test_quartiles_of_fixed_samples(self):
        s = M.summary([10, 1, 9, 2, 8, 3, 7, 4, 6, 5])
        self.assertEqual(s["median"], 5.5)
        self.assertAlmostEqual(s["q1"], 2.75)
        self.assertAlmostEqual(s["q3"], 8.25)
        self.assertEqual(s["n"], 10)

    def test_single_sample(self):
        self.assertEqual(M.summary([0.5]),
                         {"median": 0.5, "q1": 0.5, "q3": 0.5, "n": 1})

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            M.summary([])


class HeadlineTest(unittest.TestCase):
    # fig8's headline table at default fidelity, seed 1.
    POWER = [2.98, 1.81, 2.35, 1.31]
    AREA = [3.86, 2.39, 2.59, 1.59]

    def test_deviation_of_quoted_table(self):
        self.assertAlmostEqual(M.headline_dev(self.POWER, self.AREA), 0.314,
                               places=3)

    def test_paper_values_deviate_by_zero(self):
        self.assertEqual(M.headline_dev(M.PAPER_POWER, M.PAPER_AREA), 0.0)

    def test_parse_rendered_table(self):
        rows = [[cat, "%.2fx" % p, "%.2fx" % a] for cat, p, a in
                zip(M.HEADLINE_CATEGORIES, self.POWER, self.AREA)]
        lines = [json.dumps({"table": "Fig. 8 — DNN.A", "columns": [],
                             "rows": []}),
                 json.dumps({"table": "Headline — Griffin vs SparTen.AB",
                             "columns": ["category", "power", "area"],
                             "rows": rows})]
        self.assertEqual(M.headline_from_tables(lines),
                         (self.POWER, self.AREA))
        self.assertIsNone(M.headline_from_tables(lines[:1]))


class RowCheckTest(unittest.TestCase):
    def setUp(self):
        self.row = baseline_row()
        self.other = json.dumps(dict(json.loads(self.row), arch="Griffin"))

    def test_good_rows_pass(self):
        self.assertIsNone(M.row_problem(self.row, "fig8"))
        self.assertEqual(M.failed_rows([self.row, self.other], 2, "fig8"), 0)

    def test_altered_row(self):
        altered = self.row.replace('"total_cycles": ', '"total_cycles": 1',
                                   1)
        self.assertEqual(M.failed_rows([altered, self.other], 2, "fig8",
                                       [self.row, self.other]), 1)

    def test_missing_row(self):
        self.assertEqual(M.failed_rows([self.row], 2, "fig8"), 1)

    def test_row_differs_between_repeats(self):
        first = [self.row, self.other]
        self.assertEqual(M.failed_rows([self.other, self.row], 2, "fig8",
                                       first), 2)
        self.assertEqual(M.failed_rows(first, 2, "fig8", first), 0)

    def test_malformed_and_non_finite_rows(self):
        doc = json.loads(self.row)
        self.assertEqual(M.row_problem(self.row[:-3], "fig8"), "malformed")
        self.assertEqual(M.row_problem(self.row, "fig7"), "wrong experiment")
        for key, value in (("speedup", math.nan),
                           ("tops_per_watt", math.inf)):
            bad = json.dumps(dict(doc, **{key: value}))
            self.assertEqual(M.row_problem(bad, "fig8"), "non-finite " + key)
        bad = json.dumps(dict(doc, total_cycles=-1))
        self.assertEqual(M.row_problem(bad, "fig8"), "bad total_cycles")
        bad = json.dumps(dict(doc, layers=[]))
        self.assertEqual(M.row_problem(bad, "fig8"), "no layers")

    def test_oracle_line_diff(self):
        ref = ["a", "b", "c"]
        self.assertEqual(M.differing_lines(ref, ref), 0)
        self.assertEqual(M.differing_lines(["a", "x"], ref), 2)


class InterfaceTest(unittest.TestCase):
    def test_sources_include_no_retiring_header(self):
        sources = list(HERE.glob("*.cc")) + list(HERE.glob("*.hh"))
        self.assertTrue(sources)
        for src in sources:
            for inc in re.findall(r'#include\s+"([^"]+)"', src.read_text()):
                for banned in BANNED_HEADERS:
                    self.assertNotIn(banned, inc, "%s includes %s"
                                     % (src.name, inc))

    def test_sweep_uses_no_retiring_flag(self):
        argv = run.sweep_argv("griffin_bench", "fig7", 3, 4, "r.jsonl",
                              "t.jsonl")
        self.assertEqual(argv[1:3], ["run", "fig7"])
        for banned in BANNED_FLAGS:
            self.assertNotIn(banned, argv)
        for arg in run.ORACLE_FLAGS:
            self.assertNotIn(arg, BANNED_FLAGS)

    def test_workloads_cover_the_four_sweeps(self):
        self.assertEqual(sorted(e for e, _ in run.WORKLOADS.values()),
                         ["fig5", "fig6", "fig7", "fig8"])

    def test_benchmark_json_matches_the_metrics_reported(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
