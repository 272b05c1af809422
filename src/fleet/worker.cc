#include "fleet/worker.hh"

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "common/socket.hh"
#include "fleet/protocol.hh"
#include "runtime/experiment.hh"
#include "runtime/result_sink.hh"
#include "runtime/runner.hh"
#include "runtime/telemetry.hh"

namespace griffin {

namespace {

void
sleepMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/** One connection attempt: TCP connect + hello/welcome handshake.
 *  False with `error` set on anything retryable; fatalRun() on a
 *  definitive rejection (version skew), which no retry can fix. */
bool
connectAndHello(const WorkerConfig &config, TcpStream &stream,
                std::string &error)
{
    if (!stream.connect(config.host, config.port)) {
        error = stream.lastError();
        return false;
    }
    FleetMessage hello;
    hello.type = FleetMessage::Type::Hello;
    hello.protocol = fleetProtocolVersion;
    hello.worker = config.name;
    if (!stream.sendLine(encodeFleetMessage(hello))) {
        error = stream.lastError();
        return false;
    }
    std::string line;
    if (!stream.recvLine(line, config.replyTimeoutMs)) {
        error = stream.lastError();
        stream.close();
        return false;
    }
    FleetMessage reply;
    if (!decodeFleetMessage(line, reply, error)) {
        stream.close();
        return false;
    }
    if (reply.type == FleetMessage::Type::Error)
        fatalRun("fleet worker '", config.name,
                 "': coordinator rejected the connection: ",
                 reply.reason);
    if (reply.type != FleetMessage::Type::Welcome) {
        error = "expected welcome, got another message";
        stream.close();
        return false;
    }
    if (reply.protocol != fleetProtocolVersion)
        fatalRun("fleet worker '", config.name,
                 "': coordinator speaks protocol ", reply.protocol,
                 ", this binary speaks ", fleetProtocolVersion);
    return true;
}

/** A sweep's rows as the verbatim JSONL lines the unsharded run's
 *  --out document would hold for those jobs — the coordinator
 *  concatenates them, so bytes matter. */
std::vector<std::string>
rowLines(const SweepResult &sweep, const std::string &experiment)
{
    std::ostringstream os;
    writeJsonLines(os, sweepRows(sweep, experiment));
    const std::string text = os.str();
    std::vector<std::string> lines;
    std::size_t begin = 0;
    while (begin < text.size()) {
        const auto nl = text.find('\n', begin);
        if (nl == std::string::npos) {
            lines.push_back(text.substr(begin));
            break;
        }
        lines.push_back(text.substr(begin, nl - begin));
        begin = nl + 1;
    }
    return lines;
}

} // namespace

int
runWorker(const WorkerConfig &config)
{
    WorkerConfig cfg = config;
    if (cfg.name.empty())
        cfg.name = "pid" + std::to_string(::getpid());
    MetricsRegistry &reg = MetricsRegistry::instance();

    TcpStream stream;
    const auto reconnect = [&]() {
        int backoff = cfg.backoffMs;
        int failed = 0;
        for (;;) {
            std::string error;
            if (connectAndHello(cfg, stream, error))
                return;
            ++failed;
            if (failed > cfg.maxReconnects)
                fatalRun("fleet worker '", cfg.name,
                         "': coordinator ", cfg.host, ":", cfg.port,
                         " unreachable after ", failed,
                         " attempt(s): ", error);
            inform("fleet worker '", cfg.name, "': connect failed (",
                   error, "); retrying in ", backoff, " ms (attempt ",
                   failed, "/", cfg.maxReconnects, ")");
            reg.counter("fleet.reconnects").add(1);
            sleepMs(backoff);
            if (backoff < 10000)
                backoff *= 2;
        }
    };

    std::size_t leases_taken = 0;
    for (;;) {
        if (!stream.open())
            reconnect();

        FleetMessage request;
        request.type = FleetMessage::Type::LeaseRequest;
        if (!stream.sendLine(encodeFleetMessage(request)))
            continue; // sendLine closed the stream; reconnect above
        std::string line;
        if (!stream.recvLine(line, cfg.replyTimeoutMs)) {
            inform("fleet worker '", cfg.name,
                   "': lost the coordinator (", stream.lastError(),
                   "); reconnecting");
            stream.close();
            continue;
        }
        FleetMessage msg;
        std::string error;
        if (!decodeFleetMessage(line, msg, error))
            fatalRun("fleet worker '", cfg.name,
                     "': malformed coordinator message: ", error);
        if (msg.type == FleetMessage::Type::Done) {
            inform("fleet worker '", cfg.name,
                   "': run complete after ", leases_taken,
                   " lease(s)");
            return exitSuccess;
        }
        if (msg.type == FleetMessage::Type::Wait) {
            sleepMs(msg.retryMs > 0 ? msg.retryMs : 100);
            continue;
        }
        if (msg.type == FleetMessage::Type::Error)
            fatalRun("fleet worker '", cfg.name,
                     "': coordinator error: ", msg.reason);
        if (msg.type != FleetMessage::Type::Lease)
            fatalRun("fleet worker '", cfg.name,
                     "': unexpected reply to lease_request");

        ++leases_taken;
        if (cfg.abandonAfter > 0 && leases_taken >= cfg.abandonAfter) {
            // Deterministic stand-in for a mid-run kill: hold the
            // lease, ack nothing, vanish.  The coordinator must
            // re-queue the chunk for another worker to steal.
            inform("fleet worker '", cfg.name,
                   "': exiting without acking lease ", msg.leaseId,
                   " (--abandon-after ", cfg.abandonAfter,
                   " test hook)");
            return exitSuccess;
        }

        const Experiment *exp = findExperiment(msg.experiment);
        if (exp == nullptr)
            fatalRun("fleet worker '", cfg.name,
                     "': leased unknown experiment '", msg.experiment,
                     "' — version skew with the coordinator?");
        SweepSpec spec =
            buildExperimentSpec(*exp, msg.options, msg.gridOverride);
        spec.shardLayers = cfg.layerShard;
        spec.batchArchs = cfg.batchArchs;
        spec.rangeBegin = msg.jobBegin;
        spec.rangeEnd = msg.jobEnd;

        // Heartbeat the lease from a side thread while the sweep
        // runs.  The main thread does not touch the stream until the
        // thread is joined, so the stream needs no lock; a heartbeat
        // send failure closes the stream, which the main thread
        // notices after the join.
        std::atomic<bool> stop{false};
        std::thread heartbeat([&stream, &stop, &cfg,
                               lease_id = msg.leaseId] {
            FleetMessage hb;
            hb.type = FleetMessage::Type::Heartbeat;
            hb.leaseId = lease_id;
            const std::string hb_line = encodeFleetMessage(hb);
            int since_ms = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                sleepMs(20);
                since_ms += 20;
                if (since_ms < cfg.heartbeatMs)
                    continue;
                since_ms = 0;
                if (!stream.sendLine(hb_line))
                    return;
            }
        });
        SweepResult sweep =
            runSweep(spec, cfg.threads, cfg.worksetCache);
        stop.store(true, std::memory_order_relaxed);
        heartbeat.join();

        if (!stream.open()) {
            inform("fleet worker '", cfg.name,
                   "': connection died mid-lease; dropping lease ",
                   msg.leaseId, " and reconnecting");
            continue; // the coordinator re-queues the chunk
        }
        FleetMessage rows;
        rows.type = FleetMessage::Type::Rows;
        rows.leaseId = msg.leaseId;
        rows.rows = rowLines(sweep, exp->name);
        if (!stream.sendLine(encodeFleetMessage(rows)))
            continue;
        if (!stream.recvLine(line, cfg.replyTimeoutMs)) {
            inform("fleet worker '", cfg.name,
                   "': lost the coordinator before the rows ack (",
                   stream.lastError(), "); reconnecting");
            stream.close();
            continue;
        }
        FleetMessage ack;
        if (!decodeFleetMessage(line, ack, error))
            fatalRun("fleet worker '", cfg.name,
                     "': malformed coordinator message: ", error);
        if (ack.type == FleetMessage::Type::Done) {
            // The run completed while this (stale) lease was being
            // worked; the coordinator's done broadcast crossed our
            // rows in flight.
            inform("fleet worker '", cfg.name,
                   "': run complete after ", leases_taken,
                   " lease(s)");
            return exitSuccess;
        }
        if (ack.type != FleetMessage::Type::RowsAck)
            fatalRun("fleet worker '", cfg.name,
                     "': unexpected reply to rows");
        if (ack.accepted) {
            reg.counter("fleet.leases_worked").add(1);
            reg.counter("fleet.rows_sent").add(rows.rows.size());
        } else {
            inform("fleet worker '", cfg.name, "': rows for lease ",
                   msg.leaseId, " discarded (", ack.reason, ")");
        }
    }
}

} // namespace griffin
