/**
 * @file
 * Traced replay of one benchmark workload, from outside the pipeline.
 *
 *   perfbench_replay info
 *   perfbench_replay replay fig7 --seed 1 --threads 4 --rows rows.jsonl
 *
 * `replay` expands the experiment through the registry exactly as
 * `griffin_bench run` does, then makes the sweep's public calls itself
 * and times each one: generateLayerWorkset per (grid point, layer),
 * Accelerator::runLayer per architecture over that workset, the sampled
 * tiles through preprocessB / scheduleA / scheduleDual (or
 * simulateSparTen on MacGrid architectures), and reduceLayers per job.
 * No cache is attached, so the replay attributes the pipeline's own
 * work rather than whatever a cache happened to hold.
 *
 * The reduced rows are written with the same sink `run --out` uses, so
 * the caller can byte-compare them against the timed run; the
 * scheduler replay must also reproduce every layer's compute cycles,
 * which proves it timed the calls the simulation actually made.  One
 * JSON object with every counter and timing goes to stdout.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/sparten.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "griffin/accelerator.hh"
#include "runtime/experiment.hh"
#include "runtime/result_sink.hh"
#include "sched/a_arbiter.hh"
#include "sched/b_preprocess.hh"
#include "sched/dual_scheduler.hh"
#include "sim/gemm_sim.hh"
#include "sim/sampling.hh"
#include "simd/occupancy.hh"
#include "tensor/shuffle.hh"
#include "tensor/tile.hh"
#include "tensor/workset.hh"

using namespace griffin;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Per-thread timings and counters, merged after the workers join. */
struct Tally
{
    double operandGenS = 0.0;
    std::int64_t worksets = 0;
    std::int64_t operandBytes = 0;
    double bPreprocessS = 0.0;
    std::int64_t bPreprocessCalls = 0;
    std::int64_t bStreamElems = 0;
    double aArbiterS = 0.0;
    std::int64_t aArbiterCalls = 0;
    double dualS = 0.0;
    std::int64_t dualCalls = 0;
    std::int64_t effectualPairs = 0;
    double gemmS = 0.0;
    std::int64_t tilesSimulated = 0;
    double sparTenS = 0.0;
    std::int64_t sparTenCalls = 0;
    std::int64_t stolenOps = 0;
    std::int64_t idleSlotCycles = 0;
    std::int64_t bwLimitedCycles = 0;
    std::int64_t stageMismatches = 0;

    void
    add(const Tally &o)
    {
        operandGenS += o.operandGenS;
        worksets += o.worksets;
        operandBytes += o.operandBytes;
        bPreprocessS += o.bPreprocessS;
        bPreprocessCalls += o.bPreprocessCalls;
        bStreamElems += o.bStreamElems;
        aArbiterS += o.aArbiterS;
        aArbiterCalls += o.aArbiterCalls;
        dualS += o.dualS;
        dualCalls += o.dualCalls;
        effectualPairs += o.effectualPairs;
        gemmS += o.gemmS;
        tilesSimulated += o.tilesSimulated;
        sparTenS += o.sparTenS;
        sparTenCalls += o.sparTenCalls;
        stolenOps += o.stolenOps;
        idleSlotCycles += o.idleSlotCycles;
        bwLimitedCycles += o.bwLimitedCycles;
        stageMismatches += o.stageMismatches;
    }

    void
    addStats(const ScheduleStats &s)
    {
        stolenOps += s.stolenOps;
        idleSlotCycles += s.idleSlotCycles;
        bwLimitedCycles += s.bwLimitedCycles;
    }
};

/** Sampled cycle total scaled to the population (as the simulator
 *  scales it). */
std::int64_t
scaleUp(std::int64_t sum, std::size_t count, std::int64_t population)
{
    if (count == 0)
        return 0;
    const double scale = static_cast<double>(population) /
                         static_cast<double>(count);
    return static_cast<std::int64_t>(
        std::llround(static_cast<double>(sum) * scale));
}

/**
 * The scheduler calls simulateGemm makes for one GEMM, made and timed
 * here.  Returns the GEMM compute cycles those schedules imply.
 */
std::int64_t
replaySchedulers(const LayerWorkset &ws, const ArchConfig &arch,
                 DnnCategory cat, const SimOptions &opt, Tally &t)
{
    const TileShape &shape = arch.tile;
    const RoutingConfig routing = arch.effectiveRouting(cat);
    const double bw = arch.effectiveBwScale(cat);
    const auto m = static_cast<std::int64_t>(ws.a.rows());
    const auto k = static_cast<std::int64_t>(ws.a.cols());
    const auto n = static_cast<std::int64_t>(ws.b.cols());
    const std::int64_t row_tiles = (m + shape.m0 - 1) / shape.m0;
    const std::int64_t col_tiles = (n + shape.n0 - 1) / shape.n0;
    if (row_tiles * col_tiles == 0 || k == 0)
        return 0;
    const Shuffler shuffler(routing.shuffle, shape.k0);
    std::int64_t sum = 0;

    switch (routing.mode) {
      case SparsityMode::Dense:
        return denseCycles(m, k, n, shape);
      case SparsityMode::B: {
        const auto picks =
            sampleTiles(col_tiles, 1, opt.sampleFraction,
                        opt.minSampledTiles, opt.seed);
        for (const auto &p : picks) {
            const TileViewB vb(ws.b, shape, p.row * shape.n0);
            const auto start = Clock::now();
            const BSchedule stream =
                preprocessB(vb, routing.b, shuffler, false);
            t.bPreprocessS += secondsSince(start);
            ++t.bPreprocessCalls;
            t.bStreamElems += stream.scheduledElems();
            t.addStats(stream.stats());
            sum += std::max<std::int64_t>(
                stream.cycles(),
                static_cast<std::int64_t>(std::ceil(
                    static_cast<double>(vb.steps()) / bw)));
        }
        t.tilesSimulated += static_cast<std::int64_t>(picks.size());
        return scaleUp(sum, picks.size(), col_tiles) * row_tiles;
      }
      case SparsityMode::A: {
        const auto picks =
            sampleTiles(row_tiles, 1, opt.sampleFraction,
                        opt.minSampledTiles, opt.seed);
        for (const auto &p : picks) {
            const TileViewA va(ws.a, shape, p.row * shape.m0);
            const auto start = Clock::now();
            const ScheduleResult r =
                scheduleA(va, routing.a, shuffler, bw, false);
            t.aArbiterS += secondsSince(start);
            ++t.aArbiterCalls;
            t.addStats(r.stats);
            sum += r.stats.cycles;
        }
        t.tilesSimulated += static_cast<std::int64_t>(picks.size());
        return scaleUp(sum, picks.size(), row_tiles) * col_tiles;
      }
      case SparsityMode::AB: {
        const auto picks =
            sampleTiles(row_tiles, col_tiles, opt.sampleFraction,
                        opt.minSampledTiles, opt.seed);
        // One B stream per distinct column tile, reused across row
        // tiles, as the simulator does.
        std::map<std::int64_t, BSchedule> streams;
        for (const auto &p : picks) {
            const TileViewA va(ws.a, shape, p.row * shape.m0);
            const TileViewB vb(ws.b, shape, p.col * shape.n0);
            const BSchedule *stream = nullptr;
            if (routing.preprocessB) {
                auto it = streams.find(p.col);
                if (it == streams.end()) {
                    const auto start = Clock::now();
                    it = streams
                             .emplace(p.col, preprocessB(vb, routing.b,
                                                         shuffler, false))
                             .first;
                    t.bPreprocessS += secondsSince(start);
                    ++t.bPreprocessCalls;
                    t.bStreamElems += it->second.scheduledElems();
                }
                stream = &it->second;
            }
            const auto start = Clock::now();
            const DualSchedule dual = scheduleDual(va, vb, routing, shuffler,
                                                   stream, bw, false);
            t.dualS += secondsSince(start);
            ++t.dualCalls;
            t.effectualPairs += dual.effectualPairs;
            t.addStats(dual.stage2);
            sum += dual.cycles;
        }
        t.tilesSimulated += static_cast<std::int64_t>(picks.size());
        return scaleUp(sum, picks.size(), row_tiles * col_tiles);
      }
    }
    return 0;
}

/** GEMM cycles of the simulated row slice scaled to the whole layer,
 *  as Accelerator::runLayer scales them. */
std::int64_t
layerCycles(const LayerSpec &layer, const TileShape &shape,
            std::int64_t m_sim, std::int64_t gemm_cycles)
{
    const auto full = (layer.m + shape.m0 - 1) / shape.m0;
    const auto sim = (m_sim + shape.m0 - 1) / shape.m0;
    return static_cast<std::int64_t>(std::llround(
        static_cast<double>(gemm_cycles) *
        (static_cast<double>(full) / static_cast<double>(sim)) *
        static_cast<double>(layer.groups) *
        static_cast<double>(layer.repeat)));
}

/** Median ns per element of `body` over a few trials of >= 20 ms. */
template <typename Body>
double
nsPerElem(std::int64_t elems_per_pass, Body &&body)
{
    body();
    std::vector<double> trials;
    for (int trial = 0; trial < 5; ++trial) {
        std::int64_t passes = 0;
        const auto start = Clock::now();
        double elapsed = 0.0;
        do {
            body();
            ++passes;
            elapsed = secondsSince(start);
        } while (elapsed < 0.02);
        trials.push_back(elapsed * 1e9 /
                         static_cast<double>(passes * elems_per_pass));
    }
    std::sort(trials.begin(), trials.end());
    return trials[trials.size() / 2];
}

/** Every SIMD kernel over `bytes` (a sample of the workload's own
 *  generated operands), in ns per element. */
std::vector<std::pair<std::string, double>>
timeKernels(const std::vector<std::int8_t> &bytes)
{
    const simd::KernelTable &kern = simd::kernels();
    const auto len = static_cast<std::int64_t>(bytes.size() / 64 * 64);
    const std::int64_t groups = len / 64;
    std::vector<std::uint64_t> masks(static_cast<std::size_t>(groups));
    std::vector<std::int32_t> counts(static_cast<std::size_t>(len), 0);
    kern.nonzeroMasks(bytes.data(), 64, 64, groups, masks.data());
    // Per-row nonzero counts stand in for the schedulers' queue heads.
    std::vector<std::int64_t> heads(masks.size());
    for (std::size_t g = 0; g < masks.size(); ++g)
        heads[g] = simd::popcount64(masks[g]);
    std::vector<std::uint64_t> bits((heads.size() + 63) / 64);
    std::vector<std::uint64_t> words(static_cast<std::size_t>(len / 8));
    std::memcpy(words.data(), bytes.data(), words.size() * 8);
    std::vector<std::uint64_t> tempered(words.size());
    volatile std::int64_t sink = 0;

    std::vector<std::pair<std::string, double>> out;
    out.emplace_back("nonzero_masks", nsPerElem(len, [&] {
        kern.nonzeroMasks(bytes.data(), 64, 64, groups, masks.data());
    }));
    out.emplace_back("count_nonzero", nsPerElem(len, [&] {
        sink += kern.countNonzero(bytes.data(),
                                  static_cast<std::size_t>(len));
    }));
    out.emplace_back("accumulate_nonzero", nsPerElem(len, [&] {
        kern.accumulateNonzero(bytes.data(),
                               static_cast<std::size_t>(len),
                               counts.data());
    }));
    out.emplace_back("le_mask", nsPerElem(groups, [&] {
        kern.leMask(heads.data(), groups, 32, bits.data());
    }));
    out.emplace_back("min_i64", nsPerElem(groups, [&] {
        sink += kern.minI64(heads.data(), groups);
    }));
    // The engine tempers one 312-word refill block at a time.
    constexpr std::int64_t block = 312;
    const auto nwords = static_cast<std::int64_t>(words.size());
    out.emplace_back("mt_temper", nsPerElem(nwords, [&] {
        for (std::int64_t off = 0; off < nwords; off += block)
            kern.mtTemper(words.data() + off,
                          std::min(block, nwords - off),
                          tempered.data() + off);
    }));
    return out;
}

int
runInfo()
{
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    std::cout << "{\"compiler\": \"" << jsonEscape(compiler)
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"simd_backend\": \""
              << simd::backendName(simd::activeBackend()) << "\"}\n";
    return 0;
}

int
runReplay(const Cli &cli, const std::string &name)
{
    const Experiment *exp = findExperiment(name);
    if (exp == nullptr || !exp->setup)
        fatal("no sweeping experiment named '", name, "'");
    const auto threads = cli.getInt("threads");
    if (threads < 1 || threads > 256)
        fatal("--threads must be in 1..256, got ", threads);
    const std::string rows_path = cli.getString("rows");
    if (rows_path.empty())
        fatal("replay needs --rows <path.jsonl>");

    const RunOptions run =
        resolveFidelity(cli, exp->defaultSample, exp->defaultRowCap);
    const SweepSpec spec = buildExperimentSpec(*exp, run);
    const std::vector<SweepJob> jobs = expandSweep(spec);
    std::vector<Accelerator> accs;
    accs.reserve(spec.archs.size());
    for (const auto &arch : spec.archs)
        accs.emplace_back(arch);

    // The architectures of one (network, category, options) point share
    // each layer's workset, as in the batched sweep.
    std::map<std::tuple<std::size_t, std::size_t, std::size_t>, std::size_t>
        batch_of;
    std::vector<std::vector<std::size_t>> batches;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto key = std::make_tuple(jobs[i].networkIndex,
                                         jobs[i].categoryIndex,
                                         jobs[i].optionsIndex);
        const auto [it, fresh] = batch_of.emplace(key, batches.size());
        if (fresh)
            batches.emplace_back();
        batches[it->second].push_back(i);
    }
    struct Unit
    {
        std::size_t batch;
        std::size_t layer;
    };
    std::vector<Unit> units;
    std::vector<std::vector<LayerResult>> layers(jobs.size());
    for (std::size_t b = 0; b < batches.size(); ++b) {
        const auto &net = spec.networks[jobs[batches[b].front()].networkIndex];
        for (std::size_t l = 0; l < net.layerCount(); ++l)
            units.push_back({b, l});
        for (const std::size_t j : batches[b])
            layers[j].resize(net.layerCount());
    }

    const auto replayUnit = [&](const Unit &u, Tally &t) {
        const auto &batch = batches[u.batch];
        const SweepJob &first = jobs[batch.front()];
        const NetworkSpec &net = spec.networks[first.networkIndex];
        const DnnCategory cat = spec.categories[first.categoryIndex];
        std::vector<std::pair<WorksetParams, LayerWorkset>> worksets;
        double unit_s = 0.0;
        for (const std::size_t j : batch) {
            const SweepJob &job = jobs[j];
            const Accelerator &acc = accs[job.archIndex];
            const ArchConfig &arch = acc.config();
            const WorksetParams params =
                acc.layerWorksetParams(net, u.layer, cat, job.options);
            auto ws = std::find_if(
                worksets.begin(), worksets.end(),
                [&](const auto &e) { return e.first == params; });
            if (ws == worksets.end()) {
                const auto start = Clock::now();
                LayerWorkset fresh = generateLayerWorkset(params);
                const double dt = secondsSince(start);
                t.operandGenS += dt;
                unit_s += dt;
                ++t.worksets;
                t.operandBytes +=
                    static_cast<std::int64_t>(fresh.a.size() + fresh.b.size());
                worksets.emplace_back(params, std::move(fresh));
                ws = worksets.end() - 1;
            }
            const LayerWorkset &workset = ws->second;

            const auto start = Clock::now();
            const LayerResult lr =
                acc.runLayer(net, u.layer, cat, job.options, workset);
            const double dt = secondsSince(start);
            unit_s += dt;
            const bool mac_grid = arch.style == DatapathStyle::MacGrid;
            if (!mac_grid)
                t.gemmS += dt;
            layers[j][u.layer] = lr;

            SimOptions sim = job.options.sim;
            sim.seed = workset.simSeed;
            std::int64_t gemm_cycles = 0;
            if (mac_grid) {
                const auto s_start = Clock::now();
                gemm_cycles = simulateSparTen(workset.a, workset.b, arch,
                                              cat, sim)
                                  .computeCycles;
                t.sparTenS += secondsSince(s_start);
                ++t.sparTenCalls;
            } else {
                gemm_cycles = replaySchedulers(workset, arch, cat, sim, t);
            }
            const auto m_sim = static_cast<std::int64_t>(workset.a.rows());
            if (layerCycles(net.layer(u.layer), arch.tile, m_sim,
                            gemm_cycles) != lr.computeCycles)
                ++t.stageMismatches;
        }
        return unit_s;
    };

    std::vector<double> unit_seconds(units.size(), 0.0);
    std::vector<Tally> tallies(static_cast<std::size_t>(threads));
    std::atomic<std::size_t> next{0};
    {
        std::vector<std::thread> pool;
        for (std::int64_t w = 0; w < threads; ++w)
            pool.emplace_back([&, w] {
                for (;;) {
                    const std::size_t i = next.fetch_add(1);
                    if (i >= units.size())
                        return;
                    unit_seconds[i] = replayUnit(
                        units[i], tallies[static_cast<std::size_t>(w)]);
                }
            });
        for (auto &th : pool)
            th.join();
    }
    Tally total;
    for (const auto &t : tallies)
        total.add(t);

    double reduce_s = 0.0;
    std::int64_t sim_cycles = 0;
    ResultSink sink(rows_path);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const SweepJob &job = jobs[j];
        const auto start = Clock::now();
        NetworkResult result = accs[job.archIndex].reduceLayers(
            spec.networks[job.networkIndex],
            spec.categories[job.categoryIndex], std::move(layers[j]),
            job.options);
        reduce_s += secondsSince(start);
        sim_cycles += result.totalCycles;
        ResultRow row;
        row.result = std::move(result);
        row.annotated = true;
        row.options = job.options;
        row.coords = job.coords;
        row.experiment = exp->name;
        sink.add(std::move(row));
    }
    sink.flush();

    // Attribution by network and by (network, layer index).
    std::map<std::string, double> per_net;
    std::map<std::pair<std::string, std::size_t>, double> per_layer;
    for (std::size_t i = 0; i < units.size(); ++i) {
        const auto &net =
            spec.networks[jobs[batches[units[i].batch].front()].networkIndex];
        per_net[net.name] += unit_seconds[i];
        per_layer[{net.name, units[i].layer}] += unit_seconds[i];
    }
    std::vector<std::pair<double, std::pair<std::string, std::size_t>>> top;
    for (const auto &[key, s] : per_layer)
        top.push_back({s, key});
    std::sort(top.begin(), top.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });
    if (top.size() > 10)
        top.resize(10);

    // Kernel timing input: one mid-network layer workset per network,
    // regenerated (untimed) from the workload's own first grid points.
    constexpr std::size_t kernel_bytes_cap = std::size_t{4} << 20;
    std::vector<std::int8_t> bytes;
    for (std::size_t ni = 0;
         ni < spec.networks.size() && bytes.size() < kernel_bytes_cap; ++ni) {
        for (const auto &batch : batches) {
            const SweepJob &job = jobs[batch.front()];
            if (job.networkIndex != ni)
                continue;
            const NetworkSpec &net = spec.networks[ni];
            const LayerWorkset ws = generateLayerWorkset(
                accs[job.archIndex].layerWorksetParams(
                    net, net.layerCount() / 2,
                    spec.categories[job.categoryIndex], job.options));
            for (const MatrixI8 *mat : {&ws.a, &ws.b})
                bytes.insert(bytes.end(), mat->data(),
                             mat->data() + std::min(mat->size(),
                                                    kernel_bytes_cap));
            break;
        }
    }
    bytes.resize(std::min(bytes.size(), kernel_bytes_cap));
    const auto kernels = timeKernels(bytes);

    std::ostringstream os;
    os << "{\"experiment\": \"" << jsonEscape(exp->name) << "\""
       << ", \"jobs\": " << jobs.size() << ", \"units\": " << units.size()
       << ", \"stage_mismatches\": " << total.stageMismatches
       << ", \"simd_backend\": \""
       << simd::backendName(simd::activeBackend()) << "\""
       << ", \"kernel_bytes\": " << bytes.size() << ", \"metrics\": {"
       << "\"tensor.operand_gen_s\": " << jsonNumber(total.operandGenS)
       << ", \"tensor.worksets\": " << total.worksets
       << ", \"tensor.operand_mb\": "
       << jsonNumber(static_cast<double>(total.operandBytes) / (1 << 20))
       << ", \"sched.b_preprocess_s\": " << jsonNumber(total.bPreprocessS)
       << ", \"sched.b_preprocess_calls\": " << total.bPreprocessCalls
       << ", \"sched.b_stream_elems\": " << total.bStreamElems
       << ", \"sched.a_arbiter_s\": " << jsonNumber(total.aArbiterS)
       << ", \"sched.a_arbiter_calls\": " << total.aArbiterCalls
       << ", \"sched.dual_s\": " << jsonNumber(total.dualS)
       << ", \"sched.dual_calls\": " << total.dualCalls
       << ", \"sched.effectual_pairs\": " << total.effectualPairs
       << ", \"sim.gemm_s\": " << jsonNumber(total.gemmS)
       << ", \"sim.self_s\": "
       << jsonNumber(std::max(0.0, total.gemmS - total.bPreprocessS -
                                total.aArbiterS - total.dualS))
       << ", \"sim.tiles_simulated\": " << total.tilesSimulated
       << ", \"sim.host_ns_per_tile\": "
       << jsonNumber(total.tilesSimulated > 0
                  ? total.gemmS * 1e9 /
                        static_cast<double>(total.tilesSimulated)
                  : 0.0)
       << ", \"baselines.sparten_s\": " << jsonNumber(total.sparTenS)
       << ", \"baselines.sparten_calls\": " << total.sparTenCalls
       << ", \"griffin.reduce_s\": " << jsonNumber(reduce_s)
       << ", \"sim.sim_cycles\": " << sim_cycles
       << ", \"sched.stolen_ops\": " << total.stolenOps
       << ", \"sched.idle_slot_cycles\": " << total.idleSlotCycles
       << ", \"sched.bw_limited_cycles\": " << total.bwLimitedCycles;
    for (const auto &[kernel, ns] : kernels)
        os << ", \"simd." << kernel << "_ns_per_elem\": " << jsonNumber(ns);
    os << "}, \"networks\": {";
    bool first = true;
    for (const auto &[net, s] : per_net) {
        os << (first ? "" : ", ") << "\"" << jsonEscape(net)
           << "\": " << jsonNumber(s);
        first = false;
    }
    os << "}, \"top_layers\": [";
    first = true;
    for (const auto &[s, key] : top) {
        const auto net = std::find_if(
            spec.networks.begin(), spec.networks.end(),
            [&](const NetworkSpec &n) { return n.name == key.first; });
        os << (first ? "" : ", ") << "{\"network\": \""
           << jsonEscape(key.first) << "\", \"index\": " << key.second
           << ", \"layer\": \"" << jsonEscape(net->layer(key.second).name)
           << "\", \"s\": " << jsonNumber(s) << "}";
        first = false;
    }
    os << "]}";
    std::cout << os.str() << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("perfbench_replay: traced replay of one benchmark workload "
            "(subcommands: info | replay <experiment>)");
    addFidelityFlags(cli);
    cli.addInt("threads", 1, "replay worker threads");
    cli.addString("rows", "",
                  "write the replayed result rows here (.jsonl)");
    const auto positional = cli.parse(argc, argv);
    if (positional.empty())
        fatal("missing subcommand (info | replay <experiment>)\n",
              cli.usage());
    if (positional[0] == "info" && positional.size() == 1)
        return runInfo();
    if (positional[0] == "replay" && positional.size() == 2)
        return runReplay(cli, positional[1]);
    fatal("usage: perfbench_replay info | replay <experiment> [flags]\n",
          cli.usage());
}
