"""Pure logic of the benchmark: summary statistics, result-row checks
and the deviation of fig8's headline ratios from the paper's.

Kept free of process handling so test_perfbench.py can pin it on
fixed inputs.
"""

import json
import math
import statistics

# Griffin vs SparTen.AB efficiency ratios the paper reports for
# DNN.dense / DNN.B / DNN.A / DNN.AB (Shin et al., HPCA 2022, abstract
# and Fig. 8).
PAPER_POWER = (1.2, 3.0, 3.1, 1.4)
PAPER_AREA = (3.8, 3.1, 3.7, 1.8)
HEADLINE_CATEGORIES = ("DNN.dense", "DNN.B", "DNN.A", "DNN.AB")

ROW_KEYS = ("experiment", "network", "arch", "category", "options",
            "dense_cycles", "total_cycles", "speedup", "tops_per_watt",
            "tops_per_mm2", "layers")
LAYER_KEYS = ("name", "dense_cycles", "compute_cycles", "dram_cycles",
              "total_cycles", "macs", "speedup")
CYCLE_KEYS = ("dense_cycles", "compute_cycles", "dram_cycles",
              "total_cycles")


def summary(values):
    """Median, first and third quartile (statistics.quantiles, n=4)
    and sample count of a non-empty list."""
    values = list(values)
    if not values:
        raise ValueError("summary of no samples")
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def headline_dev(power, area):
    """Mean |ln(reproduced / paper)| over the eight headline ratios."""
    pairs = list(zip(power, PAPER_POWER)) + list(zip(area, PAPER_AREA))
    if len(pairs) != 8 or any(r <= 0 for r, _ in pairs):
        raise ValueError("headline needs four positive power and four "
                         "positive area ratios")
    return sum(abs(math.log(r / p)) for r, p in pairs) / len(pairs)


def headline_from_tables(table_lines):
    """(power, area) ratios from fig8's rendered tables, given as the
    JSON Lines `griffin_bench run --json` writes; None when absent."""
    for line in table_lines:
        table = json.loads(line)
        if not table.get("table", "").startswith("Headline"):
            continue
        by_cat = {row[0]: row for row in table["rows"]}
        if set(by_cat) != set(HEADLINE_CATEGORIES):
            return None
        ratio = lambda cell: float(cell.rstrip("x"))
        power = [ratio(by_cat[c][1]) for c in HEADLINE_CATEGORIES]
        area = [ratio(by_cat[c][2]) for c in HEADLINE_CATEGORIES]
        return power, area
    return None


def _finite(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def row_problem(line, experiment):
    """Why one result row is unusable, or None when it is well formed:
    every field present, numbers finite, cycle counts non-negative
    integers, and the row labelled with its experiment."""
    try:
        row = json.loads(line)
    except ValueError:
        return "malformed"
    if not isinstance(row, dict) or any(k not in row for k in ROW_KEYS):
        return "missing field"
    if row["experiment"] != experiment:
        return "wrong experiment"
    for key in ("speedup", "tops_per_watt", "tops_per_mm2"):
        if not _finite(row[key]):
            return "non-finite " + key
    layers = row["layers"]
    if not isinstance(layers, list) or not layers:
        return "no layers"
    for layer in [row] + layers:
        for key in CYCLE_KEYS:
            if key in layer and not (isinstance(layer[key], int)
                                     and layer[key] >= 0):
                return "bad " + key
    for layer in layers:
        if any(k not in layer for k in LAYER_KEYS):
            return "layer missing field"
        if not _finite(layer["speedup"]):
            return "non-finite layer speedup"
    return None


def failed_rows(lines, expected, experiment, reference=None):
    """Failed jobs among `expected`: a row that is missing, malformed or
    non-finite, or (given the rows of an earlier repeat) one that
    differs from that repeat."""
    failed = max(0, expected - len(lines))
    for i, line in enumerate(lines[:expected]):
        if row_problem(line, experiment) is not None:
            failed += 1
        elif reference is not None and (i >= len(reference)
                                        or line != reference[i]):
            failed += 1
    return failed


def differing_lines(lines, reference):
    """Lines that differ from a reference document, missing ones
    included (the oracle comparison)."""
    differ = sum(1 for a, b in zip(lines, reference) if a != b)
    return differ + abs(len(lines) - len(reference))
