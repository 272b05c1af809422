#include "sim/gemm_sim.hh"

#include <algorithm>
#include <cmath>
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
 * One GEMM's dimensions and the operand sides its mode reads; a side
 * the mode does not read is null.
 */
struct Operands
{
    std::int64_t m;
    std::int64_t k;
    std::int64_t n;
    const MatrixI8 *a;
    const MatrixI8 *b;
};

/**
 * Everything the per-mode compute stages share: resolved geometry and
 * routing, plus the result record they fill in (computeCycles,
 * simulatedTiles, sched).
 */
struct ComputeStage
{
    const MatrixI8 *a; ///< null unless the mode reads A
    const MatrixI8 *b; ///< null unless the mode reads B
    QueueMemo &memo;   ///< queues of a's and b's tiles
    const SimOptions &opt;
    const TileShape &shape;
    const RoutingConfig &routing;
    const Shuffler &shuffler;
    double bw;
    std::int64_t rowTiles;
    std::int64_t colTiles;
};

/** Stage 2+3, SparsityMode::B: schedules depend only on B — simulate
 *  (a subset of) column tiles and multiply by the row-tile count.  One
 *  b_schedule span covers the stage; queue builds nest inside it. */
void
simulateSparseB(const ComputeStage &stage, GemmSimResult &result)
{
    auto picks = sampleTiles(stage.colTiles, 1, stage.opt.sampleFraction,
                             stage.opt.minSampledTiles, stage.opt.seed);
    std::int64_t sum = 0;
    ScopedSpan span("b_schedule"); // nothing here reads stream cells
    for (const auto &t : picks) {
        TileViewB vb(*stage.b, stage.shape, t.row * stage.shape.n0);
        const ScheduleStats stats =
            scheduleB(stage.memo.get(vb, stage.shuffler), stage.routing.b);
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

/** Stage 2+3, SparsityMode::A: the symmetric row-tile form, under one
 *  a_schedule span. */
void
simulateSparseA(const ComputeStage &stage, GemmSimResult &result)
{
    auto picks = sampleTiles(stage.rowTiles, 1, stage.opt.sampleFraction,
                             stage.opt.minSampledTiles, stage.opt.seed);
    std::int64_t sum = 0;
    ScopedSpan span("a_schedule");
    for (const auto &t : picks) {
        TileViewA va(*stage.a, stage.shape, t.row * stage.shape.m0);
        const ScheduleStats stats =
            scheduleA(stage.memo.get(va, stage.shuffler), stage.routing.a,
                      stage.bw, false)
                .stats;
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

/** Stage 2+3, SparsityMode::AB: dual schedules are per tile pair, under
 *  one dual_schedule span; the B-side streams are packed once per
 *  distinct column tile first (a nested b_schedule span), and both
 *  sides' queues come from the memo. */
void
simulateDualSparse(const ComputeStage &stage, GemmSimResult &result)
{
    auto picks = sampleTiles(stage.rowTiles, stage.colTiles,
                             stage.opt.sampleFraction,
                             stage.opt.minSampledTiles, stage.opt.seed);
    ScopedSpan span("dual_schedule");
    // One preprocessed stream per distinct column tile, in column
    // order: a handful of columns, looked up once per sampled tile.
    std::vector<std::int64_t> cols;
    std::vector<BSchedule> streams;
    if (stage.routing.preprocessB) {
        ScopedSpan pack_span("b_schedule");
        for (const auto &t : picks)
            cols.push_back(t.col);
        std::sort(cols.begin(), cols.end());
        cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
        streams.reserve(cols.size());
        for (const std::int64_t col : cols) {
            TileViewB vb(*stage.b, stage.shape, col * stage.shape.n0);
            streams.push_back(preprocessB(stage.memo.get(vb, stage.shuffler),
                                          stage.routing.b, stage.shuffler,
                                          false));
        }
    }
    std::int64_t sum = 0;
    for (const auto &t : picks) {
        TileViewA va(*stage.a, stage.shape, t.row * stage.shape.m0);
        const SlotQueues &a_queue = stage.memo.get(va, stage.shuffler);
        const SlotQueues *b_queue = nullptr;
        const BSchedule *stream = nullptr;
        if (stage.routing.preprocessB) {
            stream = &streams[static_cast<std::size_t>(
                std::lower_bound(cols.begin(), cols.end(), t.col) -
                cols.begin())];
        } else {
            TileViewB vb(*stage.b, stage.shape, t.col * stage.shape.n0);
            b_queue = &stage.memo.get(vb, stage.shuffler);
        }
        const DualSchedule dual =
            scheduleDual(a_queue, b_queue, stage.routing, stage.shuffler,
                         stream, stage.bw, false);
        sum += dual.cycles;
        accumulate(result.sched, dual.stage2);
    }
    result.computeCycles = scaleUp(
        sum, static_cast<std::int64_t>(picks.size()), result.totalTiles);
    result.simulatedTiles = static_cast<std::int64_t>(picks.size());
}

GemmSimResult
simulate(const Operands &ops, QueueMemo &memo, const ArchConfig &arch,
         DnnCategory cat, const SimOptions &opt)
{
    arch.validate();
    if (arch.style != DatapathStyle::VectorCore)
        fatal("simulateGemm handles vector-core architectures; use the "
              "SparTen simulator in src/baselines for '",
              arch.name, "'");
    if (opt.sampleFraction <= 0.0 || opt.sampleFraction > 1.0)
        fatal("sample fraction ", opt.sampleFraction, " outside (0,1]");

    const TileShape &shape = arch.tile;
    const auto routing = arch.effectiveRouting(cat);
    const double bw = arch.effectiveBwScale(cat);

    GemmSimResult result;
    result.denseCycles = denseCycles(ops.m, ops.k, ops.n, shape);
    result.denseOps = ops.m * ops.k * ops.n;
    const std::int64_t row_tiles = (ops.m + shape.m0 - 1) / shape.m0;
    const std::int64_t col_tiles = (ops.n + shape.n0 - 1) / shape.n0;
    result.totalTiles = row_tiles * col_tiles;
    if (result.totalTiles == 0 || ops.k == 0)
        return result;

    Shuffler shuffler(routing.shuffle, shape.k0);
    const ComputeStage stage{ops.a,   ops.b,    memo, opt,       shape,
                             routing, shuffler, bw,   row_tiles, col_tiles};

    // The mode's b_schedule / a_schedule / dual_schedule span, and the
    // tile_queues spans inside it, nest inside this one; the trace
    // shows them as sub-slices of tile simulation.
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
    GRIFFIN_ASSERT(a.cols() == b.rows(), "GEMM shape mismatch: A ",
                   a.rows(), "x", a.cols(), ", B ", b.rows(), "x",
                   b.cols());
    QueueMemo memo;
    return simulate({static_cast<std::int64_t>(a.rows()),
                     static_cast<std::int64_t>(a.cols()),
                     static_cast<std::int64_t>(b.cols()), &a, &b},
                    memo, arch, cat, opt);
}

GemmSimResult
simulateGemm(const LayerWorkset &ws, const ArchConfig &arch,
             DnnCategory cat, const SimOptions &opt)
{
    // Generate the sides the mode reads here, before tile_sim opens,
    // so gen_a and gen_b stay top-level stages.
    const RoutingConfig routing = arch.effectiveRouting(cat);
    const WorksetParams &p = ws.params();
    return simulate({p.m, p.k, p.n,
                     routing.sparseA() ? &ws.operandA() : nullptr,
                     routing.sparseB() ? &ws.operandB() : nullptr},
                    ws.memo, arch, cat, opt);
}

} // namespace griffin
