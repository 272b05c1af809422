#include "fleet/coordinator.hh"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/socket.hh"
#include "common/table.hh"
#include "fleet/protocol.hh"
#include "runtime/shard_merge.hh"
#include "runtime/telemetry.hh"

namespace griffin {

namespace {

/** One experiment's expansion plus its positionally-filled results. */
struct ExperimentState
{
    const Experiment *experiment = nullptr;
    RunOptions run;
    SweepSpec spec;
    std::vector<SweepJob> jobs;
    std::vector<NetworkResult> results; ///< results[i] <- jobs[i]
    std::size_t doneJobs = 0;
};

/** One connected worker. */
struct Client
{
    TcpStream stream;
    std::string name = "(pre-hello)";
    bool helloed = false;
    std::vector<std::uint64_t> leases; ///< live lease ids held
};

void
writePortFile(const std::string &path, std::uint16_t port)
{
    // Write-then-rename so a script polling for the file never reads
    // a partial port number.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp);
        if (!os)
            fatal("cannot open --port-file path '", tmp, "'");
        os << port << '\n';
        if (!os)
            fatal("write to --port-file path '", tmp, "' failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("cannot rename '", tmp, "' to --port-file '", path, "'");
}

void
removeLease(std::vector<std::uint64_t> &leases, std::uint64_t id)
{
    for (auto it = leases.begin(); it != leases.end(); ++it) {
        if (*it == id) {
            leases.erase(it);
            return;
        }
    }
}

constexpr std::uint64_t nsPerMs = 1000000ull;

} // namespace

FleetOutcome
serveFleet(const std::vector<FleetServeSpec> &specs,
           const CoordinatorConfig &config)
{
    if (specs.empty())
        fatal("serve needs at least one experiment");

    std::vector<ExperimentState> exps;
    std::vector<std::size_t> job_counts;
    std::size_t total_jobs = 0;
    for (const auto &spec : specs) {
        if (spec.experiment == nullptr)
            panic("serveFleet given a null experiment");
        if (!spec.experiment->setup)
            fatal("experiment '", spec.experiment->name,
                  "' is render-only; a fleet run has nothing to "
                  "lease");
        ExperimentState st;
        st.experiment = spec.experiment;
        st.run = spec.run;
        st.spec = buildExperimentSpec(*spec.experiment, spec.run,
                                      config.gridOverride);
        st.jobs = expandSweep(st.spec);
        st.results.resize(st.jobs.size());
        job_counts.push_back(st.jobs.size());
        total_jobs += st.jobs.size();
        exps.push_back(std::move(st));
    }
    if (total_jobs == 0)
        fatal("the requested grids expand to zero jobs");

    LeaseQueue queue(job_counts, config.leaseJobs,
                     static_cast<std::uint64_t>(config.leaseTimeoutMs) *
                         nsPerMs);
    /** Chunk of every lease ever granted (the queue keeps this
     *  private); Rows validation looks the slice back up here. */
    std::map<std::uint64_t, LeaseQueue::Chunk> chunk_of;

    TcpListener listener;
    if (!listener.listen(config.port))
        fatal("serve: cannot listen on port ", config.port, ": ",
              listener.lastError());
    if (!config.portFile.empty())
        writePortFile(config.portFile, listener.port());
    inform("fleet: serving ", exps.size(), " experiment(s), ",
           total_jobs, " job(s) in ", queue.chunks().size(),
           " lease(s) of up to ", config.leaseJobs,
           " job(s) on port ", listener.port());

    FleetOutcome out;
    std::vector<std::unique_ptr<Client>> clients;
    std::uint64_t last_progress_ns = monotonicNowNs();
    std::size_t last_progress_done = 0;

    /**
     * Handle one decoded message; returns false when the client must
     * be dropped (protocol violation, version skew, or a dead send).
     * `now` is the tick's clock so every message of one tick sees one
     * time.
     */
    const auto handle = [&](Client &c, const FleetMessage &msg,
                            std::uint64_t now) -> bool {
        switch (msg.type) {
          case FleetMessage::Type::Hello: {
            if (msg.protocol != fleetProtocolVersion) {
                FleetMessage err;
                err.type = FleetMessage::Type::Error;
                err.reason = "protocol version " +
                             std::to_string(msg.protocol) +
                             " does not match the coordinator's " +
                             std::to_string(fleetProtocolVersion);
                c.stream.sendLine(encodeFleetMessage(err));
                inform("fleet: rejected worker '", msg.worker, "': ",
                       err.reason);
                return false;
            }
            c.helloed = true;
            if (!msg.worker.empty())
                c.name = msg.worker;
            ++out.workersSeen;
            inform("fleet: worker '", c.name, "' connected (",
                   out.workersSeen, " seen)");
            FleetMessage welcome;
            welcome.type = FleetMessage::Type::Welcome;
            welcome.protocol = fleetProtocolVersion;
            return c.stream.sendLine(encodeFleetMessage(welcome));
          }
          case FleetMessage::Type::LeaseRequest: {
            if (!c.helloed) {
                FleetMessage err;
                err.type = FleetMessage::Type::Error;
                err.reason = "lease_request before hello";
                c.stream.sendLine(encodeFleetMessage(err));
                return false;
            }
            if (queue.complete()) {
                FleetMessage done;
                done.type = FleetMessage::Type::Done;
                return c.stream.sendLine(encodeFleetMessage(done));
            }
            LeaseQueue::Grant grant;
            if (!queue.grant(c.name, now, grant)) {
                // Everything is leased out to someone; the worker
                // should ask again shortly (a lease may expire).
                FleetMessage wait;
                wait.type = FleetMessage::Type::Wait;
                wait.retryMs = config.waitRetryMs;
                return c.stream.sendLine(encodeFleetMessage(wait));
            }
            chunk_of[grant.leaseId] = grant.chunk;
            c.leases.push_back(grant.leaseId);
            const ExperimentState &st =
                exps[grant.chunk.experimentIndex];
            FleetMessage lease;
            lease.type = FleetMessage::Type::Lease;
            lease.leaseId = grant.leaseId;
            lease.experiment = st.experiment->name;
            lease.jobBegin = grant.chunk.begin;
            lease.jobEnd = grant.chunk.end;
            lease.options = st.run;
            lease.gridOverride = config.gridOverride;
            return c.stream.sendLine(encodeFleetMessage(lease));
          }
          case FleetMessage::Type::Heartbeat:
            queue.heartbeat(msg.leaseId, now);
            return true;
          case FleetMessage::Type::Rows: {
            if (!c.helloed) {
                FleetMessage err;
                err.type = FleetMessage::Type::Error;
                err.reason = "rows before hello";
                c.stream.sendLine(encodeFleetMessage(err));
                return false;
            }
            const LeaseQueue::AckResult ack = queue.ack(msg.leaseId);
            FleetMessage reply;
            reply.type = FleetMessage::Type::RowsAck;
            reply.leaseId = msg.leaseId;
            if (ack == LeaseQueue::AckResult::Accepted) {
                const auto it = chunk_of.find(msg.leaseId);
                GRIFFIN_ASSERT(it != chunk_of.end(),
                               "accepted lease has no grant record");
                const LeaseQueue::Chunk &chunk = it->second;
                ExperimentState &st = exps[chunk.experimentIndex];
                // The online form of shard_merge's coverage check:
                // every streamed row must parse and match the exact
                // expanded job it claims to be, or the run is
                // unsalvageable (the two sides expanded different
                // grids — version or flag skew) and dies as a run
                // failure, not a usage error.
                if (msg.rows.size() != chunk.end - chunk.begin)
                    fatalRun("fleet: worker '", c.name, "' sent ",
                             msg.rows.size(), " row(s) for the ",
                             chunk.end - chunk.begin,
                             "-job lease ", msg.leaseId);
                for (std::size_t i = 0; i < msg.rows.size(); ++i) {
                    const std::size_t job_index = chunk.begin + i;
                    const std::string where =
                        "experiment '" + st.experiment->name +
                        "', job " + std::to_string(job_index) +
                        " (from worker '" + c.name + "')";
                    const ResultRow row =
                        parseResultRowLine(msg.rows[i], where);
                    if (row.experiment != st.experiment->name)
                        fatalRun(where, ": row is labeled '",
                                 row.experiment,
                                 "' — worker ran a different "
                                 "experiment?");
                    std::string error;
                    if (!validateRowAgainstJob(row, st.spec,
                                               st.jobs[job_index],
                                               error))
                        fatalRun(where, ": ", error,
                                 " — did the worker expand a "
                                 "different grid (version or flag "
                                 "skew)?");
                    st.results[job_index] = row.result;
                }
                st.doneJobs += msg.rows.size();
                out.rowsStreamed += msg.rows.size();
                removeLease(c.leases, msg.leaseId);
                reply.accepted = true;
            } else {
                reply.accepted = false;
                reply.reason =
                    ack == LeaseQueue::AckResult::Duplicate
                        ? "chunk already completed"
                    : ack == LeaseQueue::AckResult::Stale
                        ? "lease expired; the chunk was re-queued"
                        : "unknown lease id";
                removeLease(c.leases, msg.leaseId);
                inform("fleet: discarded rows from worker '", c.name,
                       "' for lease ", msg.leaseId, " (",
                       reply.reason, ")");
            }
            return c.stream.sendLine(encodeFleetMessage(reply));
          }
          case FleetMessage::Type::Error:
            inform("fleet: worker '", c.name,
                   "' reported an error: ", msg.reason);
            return false;
          default: {
            FleetMessage err;
            err.type = FleetMessage::Type::Error;
            err.reason = "unexpected message from a worker";
            c.stream.sendLine(encodeFleetMessage(err));
            return false;
          }
        }
    };

    while (!queue.complete()) {
        std::vector<int> fds;
        fds.reserve(clients.size() + 1);
        fds.push_back(listener.fd());
        for (const auto &c : clients)
            fds.push_back(c->stream.fd());
        const auto ready = pollReadable(fds, config.pollMs);
        const std::uint64_t now = monotonicNowNs();

        bool listener_ready = false;
        std::vector<bool> client_ready(clients.size(), false);
        for (const std::size_t index : ready) {
            if (index == 0)
                listener_ready = true;
            else
                client_ready[index - 1] = true;
        }

        if (listener_ready) {
            TcpStream stream;
            if (listener.accept(stream, 0)) {
                auto client = std::make_unique<Client>();
                client->stream = std::move(stream);
                clients.push_back(std::move(client));
                client_ready.push_back(false); // polled next tick
            }
        }

        std::vector<bool> drop(clients.size(), false);
        for (std::size_t i = 0; i < clients.size(); ++i) {
            Client &c = *clients[i];
            if (client_ready[i]) {
                const TcpStream::ReadStatus status =
                    c.stream.readIntoBuffer(0);
                if (status != TcpStream::ReadStatus::Ok)
                    drop[i] = true; // drain buffered lines first
            }
            std::string line;
            while (!drop[i] && c.stream.nextLine(line)) {
                FleetMessage msg;
                std::string error;
                if (!decodeFleetMessage(line, msg, error)) {
                    FleetMessage err;
                    err.type = FleetMessage::Type::Error;
                    err.reason = "malformed message: " + error;
                    c.stream.sendLine(encodeFleetMessage(err));
                    inform("fleet: dropping worker '", c.name,
                           "': ", err.reason);
                    drop[i] = true;
                    break;
                }
                if (!handle(c, msg, now))
                    drop[i] = true;
            }
        }

        for (std::size_t i = clients.size(); i-- > 0;) {
            if (!drop[i])
                continue;
            Client &c = *clients[i];
            if (!c.leases.empty()) {
                ++out.workerDeaths;
                const std::size_t requeued = queue.abandon(c.leases);
                inform("fleet: worker '", c.name,
                       "' disconnected holding ", c.leases.size(),
                       " lease(s); ", requeued,
                       " chunk(s) re-queued for stealing");
            } else if (c.helloed) {
                inform("fleet: worker '", c.name, "' disconnected");
            }
            clients.erase(clients.begin() +
                          static_cast<std::ptrdiff_t>(i));
        }

        for (const auto &grant : queue.expire(now)) {
            inform("fleet: lease ", grant.leaseId, " (experiment '",
                   exps[grant.chunk.experimentIndex].experiment->name,
                   "', jobs [", grant.chunk.begin, ", ",
                   grant.chunk.end,
                   ")) missed its heartbeat deadline; re-queued");
            for (const auto &c : clients)
                removeLease(c->leases, grant.leaseId);
        }

        if (config.progressEveryMs > 0 &&
            now - last_progress_ns >=
                static_cast<std::uint64_t>(config.progressEveryMs) *
                    nsPerMs &&
            queue.doneJobs() != last_progress_done) {
            last_progress_ns = now;
            last_progress_done = queue.doneJobs();
            // Live aggregate view on stderr — stdout stays reserved
            // for the final tables so fleet output pipes cleanly.
            Table t("Fleet progress",
                    {"experiment", "jobs", "done", "%"});
            for (const auto &st : exps)
                t.addRow({st.experiment->name,
                          std::to_string(st.jobs.size()),
                          std::to_string(st.doneJobs),
                          Table::num(st.jobs.empty()
                                         ? 100.0
                                         : 100.0 *
                                               static_cast<double>(
                                                   st.doneJobs) /
                                               static_cast<double>(
                                                   st.jobs.size()),
                                     1)});
            t.print(std::cerr);
            std::cerr << "  workers: " << clients.size()
                      << "  active leases: " << queue.activeLeases()
                      << "  pending chunks: " << queue.pendingChunks()
                      << "\n\n";
        }
    }

    // Every job acked exactly once — tell every still-connected
    // worker to exit, then let the sockets close with the listener.
    FleetMessage done;
    done.type = FleetMessage::Type::Done;
    const std::string done_line = encodeFleetMessage(done);
    for (const auto &c : clients)
        if (c->stream.open())
            c->stream.sendLine(done_line);

    out.leases = queue.stats();
    MetricsRegistry &reg = MetricsRegistry::instance();
    reg.counter("fleet.leases_granted").add(out.leases.leasesGranted);
    reg.counter("fleet.re_leases").add(out.leases.reLeases);
    reg.counter("fleet.leases_expired").add(out.leases.expired);
    reg.counter("fleet.leases_abandoned").add(out.leases.abandoned);
    reg.counter("fleet.duplicate_acks").add(out.leases.duplicateAcks);
    reg.counter("fleet.rows_streamed").add(out.rowsStreamed);
    reg.counter("fleet.workers").add(out.workersSeen);
    reg.counter("fleet.worker_deaths").add(out.workerDeaths);

    inform("fleet: run complete — ", out.rowsStreamed,
           " row(s) from ", out.workersSeen, " worker(s); ",
           out.leases.leasesGranted, " lease(s) granted, ",
           out.leases.reLeases, " re-leased, ", out.workerDeaths,
           " worker death(s)");

    for (auto &st : exps) {
        FleetExperimentOutcome eo;
        eo.experiment = st.experiment;
        eo.run = st.run;
        eo.sweep =
            SweepResult(std::move(st.jobs), std::move(st.results));
        eo.spec = std::move(st.spec);
        out.experiments.push_back(std::move(eo));
    }
    return out;
}

} // namespace griffin
