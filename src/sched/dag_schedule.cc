#include "sched/dag_schedule.hh"

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <unordered_map>

#include "common/logging.hh"

namespace griffin {

namespace {

/**
 * Executed-subset cap for the exact search.  Downward-closed subset
 * counts explode with branch width, so past this many stored states
 * the optimizer abandons exactness for the greedy order.  2^17 states
 * keeps the search well under a second and a few MiB.
 */
constexpr std::size_t kExactStateBudget = 131072;

/** Recompute candidates must cost at most this fraction of the whole
 *  network's dense cycles — re-running them is nearly free. */
constexpr double kRecomputeCycleFraction = 0.05;

/** Per-node consumer lists (duplicate edges collapsed). */
std::vector<std::vector<std::size_t>>
consumersOf(const NetworkSpec &net)
{
    std::vector<std::vector<std::size_t>> consumers(net.nodes.size());
    for (std::size_t v = 0; v < net.nodes.size(); ++v) {
        for (const std::size_t u : net.nodes[v].inputs) {
            auto &list = consumers[u];
            if (std::find(list.begin(), list.end(), v) == list.end())
                list.push_back(v);
        }
    }
    return consumers;
}

std::vector<std::size_t>
uniqueInputs(const NetworkNode &node)
{
    std::vector<std::size_t> inputs = node.inputs;
    std::sort(inputs.begin(), inputs.end());
    inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
    return inputs;
}

/** Bitset over node indices, sized at construction. */
struct NodeMask
{
    std::vector<std::uint64_t> words;

    explicit NodeMask(std::size_t bits) : words((bits + 63) / 64, 0) {}

    bool
    test(std::size_t i) const
    {
        return (words[i / 64] >> (i % 64)) & 1;
    }

    void
    set(std::size_t i)
    {
        words[i / 64] |= std::uint64_t(1) << (i % 64);
    }

    bool
    operator==(const NodeMask &other) const
    {
        return words == other.words;
    }
};

struct NodeMaskHash
{
    std::size_t
    operator()(const NodeMask &mask) const
    {
        // FNV-1a over the words.
        std::uint64_t hash = 1469598103934665603ull;
        for (const std::uint64_t word : mask.words) {
            hash ^= word;
            hash *= 1099511628211ull;
        }
        return static_cast<std::size_t>(hash);
    }
};

/** Search state: best known peak reaching this executed set, plus the
 *  move that got here for order reconstruction. */
struct ExactState
{
    std::int64_t peakBytes = 0;
    NodeMask parent{0};
    std::size_t chosen = 0;
};

/** Bytes live once `mask` has executed: outputs of executed nodes
 *  that still have an unexecuted consumer. */
std::int64_t
liveBytes(const NetworkSpec &net,
          const std::vector<std::vector<std::size_t>> &consumers,
          const NodeMask &mask)
{
    std::int64_t live = 0;
    for (std::size_t u = 0; u < net.nodes.size(); ++u) {
        if (!mask.test(u))
            continue;
        for (const std::size_t v : consumers[u]) {
            if (!mask.test(v)) {
                live += net.nodes[u].outputBytes;
                break;
            }
        }
    }
    return live;
}

/**
 * Exact minimum-peak order by DP over executed subsets.  Returns an
 * empty vector when the state budget is exceeded.
 */
std::vector<std::size_t>
exactOrder(const NetworkSpec &net,
           const std::vector<std::vector<std::size_t>> &consumers)
{
    const std::size_t n = net.nodes.size();
    std::unordered_map<NodeMask, ExactState, NodeMaskHash> states;
    NodeMask empty(n);
    states.emplace(empty, ExactState{0, NodeMask(0), 0});

    std::vector<NodeMask> level{empty};
    for (std::size_t executed = 0; executed < n; ++executed) {
        std::vector<NodeMask> next;
        for (const NodeMask &mask : level) {
            const std::int64_t basePeak = states.at(mask).peakBytes;
            const std::int64_t live = liveBytes(net, consumers, mask);
            for (std::size_t v = 0; v < n; ++v) {
                if (mask.test(v))
                    continue;
                bool ready = true;
                for (const std::size_t u : net.nodes[v].inputs) {
                    if (!mask.test(u)) {
                        ready = false;
                        break;
                    }
                }
                if (!ready)
                    continue;
                const std::int64_t stepPeak =
                    std::max(basePeak, live + net.nodes[v].outputBytes);
                NodeMask successor = mask;
                successor.set(v);
                auto it = states.find(successor);
                if (it == states.end()) {
                    states.emplace(successor,
                                   ExactState{stepPeak, mask, v});
                    next.push_back(successor);
                    if (states.size() > kExactStateBudget)
                        return {};
                } else if (stepPeak < it->second.peakBytes) {
                    it->second = ExactState{stepPeak, mask, v};
                }
            }
        }
        level = std::move(next);
    }

    NodeMask full(n);
    for (std::size_t i = 0; i < n; ++i)
        full.set(i);
    // Walk the parents back from the full set, last node first.
    std::vector<std::size_t> order;
    NodeMask cursor = full;
    for (std::size_t step = 0; step < n; ++step) {
        const ExactState &state = states.at(cursor);
        order.push_back(state.chosen);
        cursor = state.parent;
    }
    std::reverse(order.begin(), order.end());
    return order;
}

/**
 * Greedy topological order: always run the ready node with the lowest
 * live-byte delta (output bytes minus the input buffers it is the
 * last pending consumer of), tie-broken on output bytes then index.
 */
std::vector<std::size_t>
greedyOrder(const NetworkSpec &net,
            const std::vector<std::vector<std::size_t>> &consumers)
{
    const std::size_t n = net.nodes.size();
    std::vector<bool> executed(n, false);
    std::vector<std::size_t> pendingConsumers(n);
    for (std::size_t u = 0; u < n; ++u)
        pendingConsumers[u] = consumers[u].size();

    std::vector<std::size_t> order;
    order.reserve(n);
    for (std::size_t step = 0; step < n; ++step) {
        std::size_t best = n;
        std::int64_t bestDelta = 0, bestOut = 0;
        for (std::size_t v = 0; v < n; ++v) {
            if (executed[v])
                continue;
            bool ready = true;
            for (const std::size_t u : net.nodes[v].inputs) {
                if (!executed[u]) {
                    ready = false;
                    break;
                }
            }
            if (!ready)
                continue;
            std::int64_t freed = 0;
            for (const std::size_t u : uniqueInputs(net.nodes[v]))
                if (pendingConsumers[u] == 1)
                    freed += net.nodes[u].outputBytes;
            const std::int64_t delta = net.nodes[v].outputBytes - freed;
            const std::int64_t out = net.nodes[v].outputBytes;
            if (best == n || delta < bestDelta ||
                (delta == bestDelta &&
                 (out < bestOut || (out == bestOut && v < best)))) {
                best = v;
                bestDelta = delta;
                bestOut = out;
            }
        }
        GRIFFIN_ASSERT(best < n, "no ready node at step ", step,
                       " of validated network '", net.name, "'");
        executed[best] = true;
        for (const std::size_t u : uniqueInputs(net.nodes[best]))
            --pendingConsumers[u];
        order.push_back(best);
    }
    return order;
}

std::vector<ScheduleEntry>
toEntries(const std::vector<std::size_t> &order)
{
    std::vector<ScheduleEntry> entries;
    entries.reserve(order.size());
    for (const std::size_t node : order)
        entries.push_back(ScheduleEntry{node, false});
    return entries;
}

DagSchedule
priced(const NetworkSpec &net, std::vector<ScheduleEntry> entries,
       std::string label)
{
    DagSchedule schedule;
    schedule.entries = std::move(entries);
    schedule.label = std::move(label);
    const ScheduleEval eval = evaluateSchedule(net, schedule.entries);
    if (!eval.ok)
        panic("optimizer produced an invalid schedule for '", net.name,
              "': ", eval.error);
    schedule.peakBytes = eval.peakBytes;
    schedule.entryLiveBytes = eval.entryLiveBytes;
    return schedule;
}

/**
 * Try re-executing cheap multi-consumer nodes right before each of
 * their late consumers, so the original buffer dies at its first
 * consumer.  Keeps a trial only when it strictly lowers the peak.
 */
DagSchedule
recomputePass(const NetworkSpec &net,
              const std::vector<std::vector<std::size_t>> &consumers,
              DagSchedule best)
{
    const std::int64_t netCycles = net.denseCycles(TileShape{});
    const std::int64_t cycleCap = static_cast<std::int64_t>(
        kRecomputeCycleFraction * static_cast<double>(netCycles));
    bool inserted = false;
    for (std::size_t u = 0; u < net.nodes.size(); ++u) {
        if (consumers[u].size() < 2)
            continue;
        if (net.nodes[u].layer.denseCycles(TileShape{}) > cycleCap)
            continue;
        std::vector<ScheduleEntry> trial;
        trial.reserve(best.entries.size() + consumers[u].size());
        bool firstConsumerSeen = false;
        for (const ScheduleEntry &entry : best.entries) {
            const auto &inputs = net.nodes[entry.node].inputs;
            const bool consumesU = std::find(inputs.begin(), inputs.end(),
                                             u) != inputs.end();
            if (consumesU && firstConsumerSeen)
                trial.push_back(ScheduleEntry{u, true});
            trial.push_back(entry);
            if (consumesU)
                firstConsumerSeen = true;
        }
        const ScheduleEval eval = evaluateSchedule(net, trial);
        if (eval.ok && eval.peakBytes < best.peakBytes) {
            best.entries = std::move(trial);
            best.peakBytes = eval.peakBytes;
            best.entryLiveBytes = eval.entryLiveBytes;
            inserted = true;
        }
    }
    if (inserted)
        best.label += "+recompute";
    return best;
}

} // namespace

const char *
toString(SchedulePolicy policy)
{
    switch (policy) {
      case SchedulePolicy::Declaration:
        return "declaration";
      case SchedulePolicy::Optimized:
        return "optimized";
      case SchedulePolicy::OptimizedRecompute:
        return "recompute";
    }
    panic("bad SchedulePolicy ", static_cast<int>(policy));
}

SchedulePolicy
schedulePolicyFromString(const std::string &text)
{
    if (text == "declaration")
        return SchedulePolicy::Declaration;
    if (text == "optimized")
        return SchedulePolicy::Optimized;
    if (text == "recompute")
        return SchedulePolicy::OptimizedRecompute;
    fatal("unknown schedule policy '", text,
          "' (expected declaration, optimized or recompute)");
}

ScheduleEval
evaluateSchedule(const NetworkSpec &net,
                 const std::vector<ScheduleEntry> &entries)
{
    ScheduleEval eval;
    auto invalid = [&eval](std::string message) {
        eval.ok = false;
        eval.error = std::move(message);
        return eval;
    };

    const std::size_t n = net.nodes.size();
    if (n == 0)
        return invalid("network has no nodes");

    // Pass 1: bind each consumption to the latest prior production of
    // the input, and record each production's last serving position.
    std::vector<std::size_t> latestProduction(n, entries.size());
    std::vector<std::size_t> producedCount(n, 0);
    // lastServe[p]: last entry position the production at entry p
    // serves (itself if nothing consumes it before a reproduction).
    std::vector<std::size_t> lastServe(entries.size());
    std::vector<std::size_t> producerOf(entries.size());
    for (std::size_t p = 0; p < entries.size(); ++p) {
        const ScheduleEntry &entry = entries[p];
        if (entry.node >= n)
            return invalid(detail::concat("entry ", p, " names node ",
                                          entry.node, " of ", n));
        for (const std::size_t u : uniqueInputs(net.nodes[entry.node])) {
            if (latestProduction[u] == entries.size())
                return invalid(detail::concat(
                    "'", net.nodes[entry.node].layer.name,
                    "' (entry ", p, ") consumes '",
                    net.nodes[u].layer.name,
                    "' before any production of it"));
            lastServe[latestProduction[u]] = p;
        }
        if (entry.recompute != (producedCount[entry.node] > 0))
            return invalid(detail::concat(
                "entry ", p, " ('", net.nodes[entry.node].layer.name,
                "') has recompute=", entry.recompute ? "true" : "false",
                " but is production #", producedCount[entry.node] + 1));
        ++producedCount[entry.node];
        latestProduction[entry.node] = p;
        lastServe[p] = p;
        producerOf[p] = entry.node;
    }
    for (std::size_t v = 0; v < n; ++v)
        if (producedCount[v] == 0)
            return invalid(detail::concat("node '", net.nodes[v].layer.name,
                                          "' is never scheduled"));

    // Pass 2: liveness walk.  A production is live from its entry
    // until the entry serving its last consumer has run; frees land
    // after the consuming step, so consumed inputs count against that
    // step's live bytes.
    std::vector<std::vector<std::size_t>> freesAt(entries.size());
    for (std::size_t p = 0; p < entries.size(); ++p)
        freesAt[lastServe[p]].push_back(p);
    std::int64_t live = 0;
    eval.entryLiveBytes.resize(entries.size());
    for (std::size_t p = 0; p < entries.size(); ++p) {
        live += net.nodes[producerOf[p]].outputBytes;
        eval.entryLiveBytes[p] = live;
        eval.peakBytes = std::max(eval.peakBytes, live);
        for (const std::size_t production : freesAt[p])
            live -= net.nodes[producerOf[production]].outputBytes;
    }
    eval.ok = true;
    return eval;
}

DagSchedule
declarationSchedule(const NetworkSpec &net)
{
    std::vector<std::size_t> order(net.nodes.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    return priced(net, toEntries(order), "declaration");
}

DagSchedule
optimizeSchedule(const NetworkSpec &net, bool allowRecompute)
{
    net.validate();
    const auto consumers = consumersOf(net);
    const DagSchedule declaration = declarationSchedule(net);

    std::vector<std::size_t> order = exactOrder(net, consumers);
    std::string label = "optimized(exact)";
    if (order.empty()) {
        order = greedyOrder(net, consumers);
        label = "optimized(greedy)";
    }
    DagSchedule best = priced(net, toEntries(order), std::move(label));
    if (allowRecompute)
        best = recomputePass(net, consumers, std::move(best));
    // The optimizer must never lose to the trivial order.
    if (best.peakBytes >= declaration.peakBytes)
        return declaration;
    return best;
}

DagSchedule
scheduleFor(const NetworkSpec &net, SchedulePolicy policy)
{
    switch (policy) {
      case SchedulePolicy::Declaration:
        return declarationSchedule(net);
      case SchedulePolicy::Optimized:
        return optimizeSchedule(net, false);
      case SchedulePolicy::OptimizedRecompute:
        return optimizeSchedule(net, true);
    }
    panic("bad SchedulePolicy ", static_cast<int>(policy));
}

std::string
describeDag(const NetworkSpec &net)
{
    net.validate();
    std::size_t edges = 0;
    for (const NetworkNode &node : net.nodes)
        edges += node.inputs.size();

    std::ostringstream os;
    os << net.name << ": " << net.nodes.size() << " nodes, " << edges
       << " edges\n";
    for (std::size_t v = 0; v < net.nodes.size(); ++v) {
        const NetworkNode &node = net.nodes[v];
        os << "  [" << v << "] " << node.layer.name << " <- ";
        if (node.inputs.empty()) {
            os << "input";
        } else {
            for (std::size_t i = 0; i < node.inputs.size(); ++i)
                os << (i ? "," : "") << node.inputs[i];
        }
        os << "  (out " << node.outputBytes << " B)\n";
    }

    const DagSchedule declaration = declarationSchedule(net);
    const DagSchedule optimized = optimizeSchedule(net, true);
    os << "declaration peak: " << declaration.peakBytes << " B\n";
    os << "optimized peak:   " << optimized.peakBytes << " B ["
       << optimized.label << "]\n";
    os << "optimized order: ";
    for (std::size_t i = 0; i < optimized.entries.size(); ++i) {
        const ScheduleEntry &entry = optimized.entries[i];
        os << (i ? " " : "") << entry.node << (entry.recompute ? "r" : "");
    }
    os << "\n";
    return os.str();
}

} // namespace griffin
