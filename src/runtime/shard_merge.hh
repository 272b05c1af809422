/**
 * @file
 * Post-hoc merging of grid-sharded result documents.
 *
 * A sharded run covers one experiment grid with N processes on one
 * or more machines
 * (`griffin_bench run <exp> --grid-shard i/n --out shard_i.jsonl`);
 * each shard emits result rows only, because its slice of the grid
 * cannot render correct aggregate tables.  This module reads the
 * shard .jsonl documents back (common/json.hh), validates that they
 * cover each experiment's expanded job list exactly once and in
 * submission order — disjoint, complete, duplicate-free — and rebuilds
 * the SweepResult the unsharded run would have produced, so the
 * experiment's own render() can produce the aggregate tables after
 * the fact (`griffin_bench merge shard0.jsonl shard1.jsonl ...`).
 *
 * Validation is positional: shard slices are contiguous blocks of the
 * submission order, so concatenating the shard files in shard order
 * must reproduce the expanded job list row for row.  Every mismatch —
 * a missing shard, a duplicated file, a different fidelity or --grid,
 * a stale binary with a different registry — surfaces as a fatal()
 * naming the first divergent row.
 */

#ifndef GRIFFIN_RUNTIME_SHARD_MERGE_HH
#define GRIFFIN_RUNTIME_SHARD_MERGE_HH

#include <string>
#include <vector>

#include "runtime/experiment.hh"
#include "runtime/result_sink.hh"

namespace griffin {

/**
 * Parse the result rows of shard .jsonl documents, concatenated in
 * argument order.  fatal() on unreadable files, malformed JSON, rows
 * missing required fields, or rows without an experiment label
 * (unlabeled documents cannot be validated against the registry).
 * Any non-row object is rejected.
 */
std::vector<ResultRow>
readShardRows(const std::vector<std::string> &paths);

/** One experiment's reassembled sweep. */
struct MergedExperiment
{
    const Experiment *experiment = nullptr;
    /** The fidelity the shards ran at (reconstructed from the rows). */
    RunOptions run;
    SweepSpec spec;
    SweepResult sweep;
};

/**
 * Group `rows` by experiment (first-appearance order, preserving row
 * order within each group) and validate each group against the
 * experiment's expanded spec: same job count, and per position the
 * same network, architecture, category, grid coordinates, and
 * RunOptions fields.  `gridOverride` must repeat the --grid text the
 * shards ran with (empty for none).  Returns the reassembled sweeps,
 * ready for render(); fatal() on any coverage violation.
 */
std::vector<MergedExperiment>
mergeShardRows(const std::vector<ResultRow> &rows,
               const std::string &gridOverride = "");

} // namespace griffin

#endif // GRIFFIN_RUNTIME_SHARD_MERGE_HH
