#include "sim/gemm_sim.hh"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "runtime/telemetry.hh"
#include "sched/a_arbiter.hh"
#include "sched/b_preprocess.hh"
#include "sched/dual_scheduler.hh"
#include "sim/sampling.hh"
#include "tensor/shuffle.hh"
#include "tensor/tile.hh"
#include "tensor/workset.hh"

namespace griffin {

namespace {

void
accumulate(ScheduleStats &into, const ScheduleStats &from)
{
    into.cycles += from.cycles;
    into.ops += from.ops;
    into.ownOps += from.ownOps;
    into.stolenOps += from.stolenOps;
    into.idleSlotCycles += from.idleSlotCycles;
    into.bwLimitedCycles += from.bwLimitedCycles;
}

/** Preprocess one B tile's queues into its compressed stream (the
 *  b_schedule stage). */
BSchedule
packStream(const SlotQueues &queues, const Borrow &db,
           const Shuffler &shuffler)
{
    ScopedSpan span("b_schedule");
    return preprocessB(queues, db, shuffler, false);
}

/** Scale a sampled cycle total back to the full population. */
std::int64_t
scaleUp(std::int64_t sampled_sum, std::int64_t sampled_count,
        std::int64_t population)
{
    if (sampled_count == 0)
        return 0;
    const double scale = static_cast<double>(population) /
                         static_cast<double>(sampled_count);
    return static_cast<std::int64_t>(
        std::llround(static_cast<double>(sampled_sum) * scale));
}

/**
 * Everything the per-mode compute stages share: resolved geometry and
 * routing, plus the result record they fill in (computeCycles,
 * simulatedTiles, sched).
 */
struct ComputeStage
{
    const MatrixI8 &a;
    const MatrixI8 &b;
    QueueMemo &memo; ///< queues of a's and b's tiles
    const SimOptions &opt;
    const TileShape &shape;
    const RoutingConfig &routing;
    const Shuffler &shuffler;
    double bw;
    std::int64_t rowTiles;
    std::int64_t colTiles;
};

/** Stage 2+3, SparsityMode::B: schedules depend only on B — simulate
 *  (a subset of) column tiles and multiply by the row-tile count. */
void
simulateSparseB(const ComputeStage &stage, GemmSimResult &result)
{
    auto picks = sampleTiles(stage.colTiles, 1, stage.opt.sampleFraction,
                             stage.opt.minSampledTiles, stage.opt.seed);
    std::int64_t sum = 0;
    for (const auto &t : picks) {
        TileViewB vb(stage.b, stage.shape, t.row * stage.shape.n0);
        const SlotQueues &queues = stage.memo.get(vb, stage.shuffler);
        ScheduleStats stats;
        { // the b_schedule stage; nothing here reads stream cells
            ScopedSpan span("b_schedule");
            stats = scheduleB(queues, stage.routing.b);
        }
        // Runtime is bandwidth-capped even though packing is offline:
        // replaying the stream can consume at most `bw` raw A steps
        // per cycle.
        const double min_cycles =
            static_cast<double>(vb.steps()) / stage.bw;
        sum += std::max<std::int64_t>(
            stats.cycles,
            static_cast<std::int64_t>(std::ceil(min_cycles)));
        accumulate(result.sched, stats);
    }
    result.computeCycles =
        scaleUp(sum, static_cast<std::int64_t>(picks.size()),
                stage.colTiles) *
        stage.rowTiles;
    result.simulatedTiles =
        static_cast<std::int64_t>(picks.size()) * stage.rowTiles;
}

/** Stage 2+3, SparsityMode::A: the symmetric row-tile form. */
void
simulateSparseA(const ComputeStage &stage, GemmSimResult &result)
{
    auto picks = sampleTiles(stage.rowTiles, 1, stage.opt.sampleFraction,
                             stage.opt.minSampledTiles, stage.opt.seed);
    std::int64_t sum = 0;
    for (const auto &t : picks) {
        TileViewA va(stage.a, stage.shape, t.row * stage.shape.m0);
        const SlotQueues &queues = stage.memo.get(va, stage.shuffler);
        ScheduleStats stats;
        { // the a_schedule stage
            ScopedSpan span("a_schedule");
            stats = scheduleA(queues, stage.routing.a, stage.bw, false).stats;
        }
        sum += stats.cycles;
        accumulate(result.sched, stats);
    }
    result.computeCycles =
        scaleUp(sum, static_cast<std::int64_t>(picks.size()),
                stage.rowTiles) *
        stage.colTiles;
    result.simulatedTiles =
        static_cast<std::int64_t>(picks.size()) * stage.colTiles;
}

/** Stage 2+3, SparsityMode::AB: dual schedules are per tile pair; the
 *  B-side streams compute per distinct column tile, and both sides'
 *  queues come from the memo. */
void
simulateDualSparse(const ComputeStage &stage, GemmSimResult &result)
{
    auto picks = sampleTiles(stage.rowTiles, stage.colTiles,
                             stage.opt.sampleFraction,
                             stage.opt.minSampledTiles, stage.opt.seed);
    // One preprocessed stream per distinct column tile; the per-call
    // memo short-circuits repeat columns of this GEMM.  A sorted flat
    // vector beats a node-based map here: a handful of distinct
    // columns, looked up once per sampled tile.
    std::vector<std::pair<std::int64_t, BSchedule>> streams;
    std::int64_t sum = 0;
    for (const auto &t : picks) {
        TileViewA va(stage.a, stage.shape, t.row * stage.shape.m0);
        TileViewB vb(stage.b, stage.shape, t.col * stage.shape.n0);
        const SlotQueues &a_queue = stage.memo.get(va, stage.shuffler);
        const SlotQueues *b_queue = nullptr;
        const BSchedule *stream = nullptr;
        if (stage.routing.preprocessB) {
            auto it = std::lower_bound(
                streams.begin(), streams.end(), t.col,
                [](const auto &e, std::int64_t col) {
                    return e.first < col;
                });
            if (it == streams.end() || it->first != t.col)
                it = streams.insert(
                    it, {t.col, packStream(stage.memo.get(vb, stage.shuffler),
                                           stage.routing.b,
                                           stage.shuffler)});
            // Valid until the next insert, which is after this tile.
            stream = &it->second;
        } else {
            b_queue = &stage.memo.get(vb, stage.shuffler);
        }
        DualSchedule dual;
        {
            ScopedSpan span("dual_schedule");
            dual = scheduleDual(a_queue, b_queue, stage.routing,
                                stage.shuffler, stream, stage.bw, false);
        }
        sum += dual.cycles;
        accumulate(result.sched, dual.stage2);
    }
    result.computeCycles = scaleUp(
        sum, static_cast<std::int64_t>(picks.size()), result.totalTiles);
    result.simulatedTiles = static_cast<std::int64_t>(picks.size());
}

GemmSimResult
simulate(const MatrixI8 &a, const MatrixI8 &b, QueueMemo &memo,
         const ArchConfig &arch, DnnCategory cat, const SimOptions &opt)
{
    arch.validate();
    if (arch.style != DatapathStyle::VectorCore)
        fatal("simulateGemm handles vector-core architectures; use the "
              "SparTen simulator in src/baselines for '",
              arch.name, "'");
    GRIFFIN_ASSERT(a.cols() == b.rows(), "GEMM shape mismatch: A ",
                   a.rows(), "x", a.cols(), ", B ", b.rows(), "x",
                   b.cols());
    if (opt.sampleFraction <= 0.0 || opt.sampleFraction > 1.0)
        fatal("sample fraction ", opt.sampleFraction, " outside (0,1]");

    const TileShape &shape = arch.tile;
    const auto routing = arch.effectiveRouting(cat);
    const double bw = arch.effectiveBwScale(cat);
    const auto m = static_cast<std::int64_t>(a.rows());
    const auto k = static_cast<std::int64_t>(a.cols());
    const auto n = static_cast<std::int64_t>(b.cols());

    GemmSimResult result;
    result.denseCycles = denseCycles(m, k, n, shape);
    result.denseOps = m * k * n;
    const std::int64_t row_tiles = (m + shape.m0 - 1) / shape.m0;
    const std::int64_t col_tiles = (n + shape.n0 - 1) / shape.n0;
    result.totalTiles = row_tiles * col_tiles;
    if (result.totalTiles == 0 || k == 0)
        return result;

    Shuffler shuffler(routing.shuffle, shape.k0);
    const ComputeStage stage{a,       b,        memo, opt,       shape,
                             routing, shuffler, bw,   row_tiles, col_tiles};

    // tile_queues and the b_schedule / a_schedule / dual_schedule spans
    // nest inside this one; the trace shows them as sub-slices of tile
    // simulation.
    ScopedSpan span("tile_sim");
    switch (routing.mode) {
      case SparsityMode::Dense:
        result.computeCycles = result.denseCycles;
        result.simulatedTiles = result.totalTiles;
        break;
      case SparsityMode::B:
        simulateSparseB(stage, result);
        break;
      case SparsityMode::A:
        simulateSparseA(stage, result);
        break;
      case SparsityMode::AB:
        simulateDualSparse(stage, result);
        break;
    }
    return result;
}

} // namespace

GemmSimResult
simulateGemm(const MatrixI8 &a, const MatrixI8 &b, const ArchConfig &arch,
             DnnCategory cat, const SimOptions &opt)
{
    QueueMemo memo;
    return simulate(a, b, memo, arch, cat, opt);
}

GemmSimResult
simulateGemm(const LayerWorkset &ws, const ArchConfig &arch,
             DnnCategory cat, const SimOptions &opt)
{
    return simulate(ws.a, ws.b, ws.memo, arch, cat, opt);
}

} // namespace griffin
