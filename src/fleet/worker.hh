/**
 * @file
 * The fleet worker: `griffin_bench worker`.
 *
 * Connects to a coordinator (fleet/coordinator.hh), identifies
 * itself, and loops: lease a job slice, re-expand the experiment's
 * grid locally from the leased options + --grid text (the exact
 * reconstruction shard_merge performs offline), run the
 * [job_begin, job_end) slice through the ordinary runSweep machinery
 * — shared workset cache included — and stream the result
 * rows back as the verbatim JSONL lines an unsharded run would have
 * written, so the coordinator can validate them positionally and
 * assemble byte-identical output.
 *
 * Fault tolerance: a background thread heartbeats the live lease so
 * long sweeps are not stolen; any connection loss drops the current
 * lease (the coordinator re-queues it) and the worker reconnects
 * with exponential backoff, surviving a coordinator restart.  When
 * the backoff budget is exhausted the worker dies with fatalRun()
 * (exit status exitRunFailure) so fleet scripts can tell "the run
 * failed" from "the flags were wrong".
 */

#ifndef GRIFFIN_FLEET_WORKER_HH
#define GRIFFIN_FLEET_WORKER_HH

#include <cstdint>
#include <string>

#include "runtime/workset_cache.hh"

namespace griffin {

/** `worker` knobs (defaults match the bench flags). */
struct WorkerConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Display name in coordinator logs (default: "pid<pid>"). */
    std::string name;

    /** Sweep execution knobs, as in `griffin_bench run`. */
    int threads = 1;
    bool layerShard = false;
    bool batchArchs = true;

    /** Lease-heartbeat cadence while a sweep is running. */
    int heartbeatMs = 1000;
    /** Initial reconnect backoff; doubles per failed attempt. */
    int backoffMs = 200;
    /** Consecutive failed connection attempts before giving up. */
    int maxReconnects = 5;
    /** Deadline for any coordinator reply. */
    int replyTimeoutMs = 30000;

    /**
     * Deterministic worker-death test hook: exit(0) upon *receiving*
     * the Nth lease, without running or acking it — the smoke test's
     * reproducible stand-in for kill(2) mid-run.  0 disables.
     */
    std::size_t abandonAfter = 0;

    /** Shared workset cache (null = per-sweep). */
    WorksetCache *worksetCache = nullptr;
};

/**
 * Run the worker loop until the coordinator says `done`.  Returns the
 * process exit status (exitSuccess on done or on the abandonAfter
 * hook); fatalRun() when the coordinator is unreachable past the
 * backoff budget or leases something this binary cannot re-expand
 * (version skew).
 */
int runWorker(const WorkerConfig &config);

} // namespace griffin

#endif // GRIFFIN_FLEET_WORKER_HH
