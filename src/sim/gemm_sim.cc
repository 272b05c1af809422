#include "sim/gemm_sim.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "runtime/telemetry.hh"
#include "sched/a_arbiter.hh"
#include "sched/b_preprocess.hh"
#include "sched/dual_scheduler.hh"
#include "sim/sampling.hh"
#include "simd/occupancy.hh"
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
 * One GEMM before any operand is read: geometry, routing and the
 * sampled tiles, so the workset form can generate what they read
 * first.
 */
struct GemmPlan
{
    TileShape shape;
    RoutingConfig routing;
    double bw = 0.0;
    std::int64_t rowTiles = 0;
    std::int64_t colTiles = 0;
    /** No tile to simulate (an empty grid or k = 0). */
    bool empty = true;
    /**
     * The sampled tiles: column tiles (as rows) for Sparse.B, row tiles
     * for Sparse.A, tile pairs for dual; none for dense.
     */
    std::vector<TileCoord> picks;
    /** The column tiles of B the picks read, ascending. */
    std::vector<std::int64_t> bCols;
    GemmSimResult result; ///< denseCycles, denseOps and totalTiles
};

GemmPlan
planGemm(std::int64_t m, std::int64_t k, std::int64_t n,
         const ArchConfig &arch, DnnCategory cat, const SimOptions &opt)
{
    arch.validate();
    if (arch.style != DatapathStyle::VectorCore)
        fatal("simulateGemm handles vector-core architectures; use the "
              "SparTen simulator in src/baselines for '",
              arch.name, "'");
    if (opt.sampleFraction <= 0.0 || opt.sampleFraction > 1.0)
        fatal("sample fraction ", opt.sampleFraction, " outside (0,1]");

    GemmPlan plan;
    plan.shape = arch.tile;
    plan.routing = arch.effectiveRouting(cat);
    plan.bw = arch.effectiveBwScale(cat);
    plan.result.denseCycles = denseCycles(m, k, n, plan.shape);
    plan.result.denseOps = m * k * n;
    plan.rowTiles = (m + plan.shape.m0 - 1) / plan.shape.m0;
    plan.colTiles = (n + plan.shape.n0 - 1) / plan.shape.n0;
    plan.result.totalTiles = plan.rowTiles * plan.colTiles;
    plan.empty = plan.result.totalTiles == 0 || k == 0;
    if (plan.empty)
        return plan;

    switch (plan.routing.mode) {
      case SparsityMode::Dense:
        break;
      case SparsityMode::B:
        plan.picks = sampleTiles(plan.colTiles, 1, opt.sampleFraction,
                                 opt.minSampledTiles, opt.seed);
        for (const auto &t : plan.picks)
            plan.bCols.push_back(t.row);
        break;
      case SparsityMode::A:
        plan.picks = sampleTiles(plan.rowTiles, 1, opt.sampleFraction,
                                 opt.minSampledTiles, opt.seed);
        break;
      case SparsityMode::AB:
        plan.picks = sampleTiles(plan.rowTiles, plan.colTiles,
                                 opt.sampleFraction, opt.minSampledTiles,
                                 opt.seed);
        for (const auto &t : plan.picks)
            plan.bCols.push_back(t.col);
        break;
    }
    std::sort(plan.bCols.begin(), plan.bCols.end());
    plan.bCols.erase(std::unique(plan.bCols.begin(), plan.bCols.end()),
                     plan.bCols.end());
    return plan;
}

/**
 * Everything the per-mode compute stages share: the plan, the operands
 * they read, and the shuffle.  They fill in the result's
 * computeCycles, simulatedTiles and sched.
 */
struct ComputeStage
{
    const GemmPlan &plan;
    const MatrixI8 *a; ///< null unless the mode reads A
    /** B's column tiles plan.bCols, in that order. */
    const std::vector<TileMasksB> &bTiles;
    QueueMemo &memo; ///< queues of a's and B's tiles
    const Shuffler &shuffler;

    /** Where column tile `col`, one of plan.bCols, sits in it. */
    std::size_t
    bIndex(std::int64_t col) const
    {
        return static_cast<std::size_t>(
            std::lower_bound(plan.bCols.begin(), plan.bCols.end(), col) -
            plan.bCols.begin());
    }
};

/** Stage 2+3, SparsityMode::B: schedules depend only on B — simulate
 *  (a subset of) column tiles and multiply by the row-tile count.  One
 *  b_schedule span covers the stage; queue builds nest inside it. */
void
simulateSparseB(const ComputeStage &stage, GemmSimResult &result)
{
    const GemmPlan &plan = stage.plan;
    std::int64_t sum = 0;
    ScopedSpan span("b_schedule"); // nothing here reads stream cells
    for (const auto &t : plan.picks) {
        const TileMasksB &vb = stage.bTiles[stage.bIndex(t.row)];
        const ScheduleStats stats =
            scheduleB(stage.memo.get(vb, stage.shuffler), plan.routing.b);
        // Runtime is bandwidth-capped even though packing is offline:
        // replaying the stream can consume at most `bw` raw A steps
        // per cycle.
        const double min_cycles = static_cast<double>(vb.steps()) / plan.bw;
        sum += std::max<std::int64_t>(
            stats.cycles,
            static_cast<std::int64_t>(std::ceil(min_cycles)));
        accumulate(result.sched, stats);
    }
    result.computeCycles =
        scaleUp(sum, static_cast<std::int64_t>(plan.picks.size()),
                plan.colTiles) *
        plan.rowTiles;
    result.simulatedTiles =
        static_cast<std::int64_t>(plan.picks.size()) * plan.rowTiles;
}

/** Stage 2+3, SparsityMode::A: the symmetric row-tile form, under one
 *  a_schedule span. */
void
simulateSparseA(const ComputeStage &stage, GemmSimResult &result)
{
    const GemmPlan &plan = stage.plan;
    std::int64_t sum = 0;
    ScopedSpan span("a_schedule");
    for (const auto &t : plan.picks) {
        TileViewA va(*stage.a, plan.shape, t.row * plan.shape.m0);
        const ScheduleStats stats =
            scheduleA(stage.memo.get(va, stage.shuffler), plan.routing.a,
                      plan.bw, false)
                .stats;
        sum += stats.cycles;
        accumulate(result.sched, stats);
    }
    result.computeCycles =
        scaleUp(sum, static_cast<std::int64_t>(plan.picks.size()),
                plan.rowTiles) *
        plan.colTiles;
    result.simulatedTiles =
        static_cast<std::int64_t>(plan.picks.size()) * plan.colTiles;
}

/** Stage 2+3, SparsityMode::AB: dual schedules are per tile pair, under
 *  one dual_schedule span; the B-side streams are packed once per
 *  distinct column tile first (a nested b_schedule span), and both
 *  sides' queues come from the memo. */
void
simulateDualSparse(const ComputeStage &stage, GemmSimResult &result)
{
    const GemmPlan &plan = stage.plan;
    ScopedSpan span("dual_schedule");
    // One preprocessed stream per distinct column tile, in plan.bCols
    // order: a handful of columns, looked up once per sampled tile.
    std::vector<BSchedule> streams;
    if (plan.routing.preprocessB) {
        ScopedSpan pack_span("b_schedule");
        streams.reserve(stage.bTiles.size());
        for (const TileMasksB &vb : stage.bTiles)
            streams.push_back(preprocessB(stage.memo.get(vb, stage.shuffler),
                                          plan.routing.b, stage.shuffler,
                                          false));
    }
    std::int64_t sum = 0;
    for (const auto &t : plan.picks) {
        TileViewA va(*stage.a, plan.shape, t.row * plan.shape.m0);
        const SlotQueues &a_queue = stage.memo.get(va, stage.shuffler);
        const SlotQueues *b_queue = nullptr;
        const BSchedule *stream = nullptr;
        if (plan.routing.preprocessB)
            stream = &streams[stage.bIndex(t.col)];
        else
            b_queue = &stage.memo.get(stage.bTiles[stage.bIndex(t.col)],
                                      stage.shuffler);
        const DualSchedule dual =
            scheduleDual(a_queue, b_queue, plan.routing, stage.shuffler,
                         stream, plan.bw, false);
        sum += dual.cycles;
        accumulate(result.sched, dual.stage2);
    }
    result.computeCycles = scaleUp(
        sum, static_cast<std::int64_t>(plan.picks.size()), result.totalTiles);
    result.simulatedTiles = static_cast<std::int64_t>(plan.picks.size());
}

/** Stages 2 and 3 of a planned GEMM; b_tiles are the column tiles
 *  plan.bCols. */
GemmSimResult
runGemm(const GemmPlan &plan, const MatrixI8 *a,
        const std::vector<TileMasksB> &b_tiles, QueueMemo &memo)
{
    GemmSimResult result = plan.result;
    if (plan.empty)
        return result;

    Shuffler shuffler(plan.routing.shuffle, plan.shape.k0);
    const ComputeStage stage{plan, a, b_tiles, memo, shuffler};

    // The mode's b_schedule / a_schedule / dual_schedule span, and the
    // tile_queues spans inside it, nest inside this one; the trace
    // shows them as sub-slices of tile simulation.
    ScopedSpan span("tile_sim");
    switch (plan.routing.mode) {
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
    const GemmPlan plan = planGemm(static_cast<std::int64_t>(a.rows()),
                                   static_cast<std::int64_t>(a.cols()),
                                   static_cast<std::int64_t>(b.cols()), arch,
                                   cat, opt);
    // B's sampled column tiles as their columns' masks, the form a
    // workset draws them in.
    const auto k = static_cast<std::int64_t>(b.rows());
    const std::int64_t words = (k + 63) / 64;
    const int n0 = plan.shape.n0;
    const auto tile_words = static_cast<std::size_t>(n0 * words);
    std::vector<std::uint64_t> masks(plan.bCols.size() * tile_words);
    std::vector<TileMasksB> b_tiles;
    b_tiles.reserve(plan.bCols.size());
    for (const std::int64_t col : plan.bCols) {
        std::uint64_t *tile = masks.data() + b_tiles.size() * tile_words;
        simd::bColumnMasks(b, col * n0, n0, words, tile);
        b_tiles.emplace_back(tile, k, n0, plan.shape, col * n0);
    }
    QueueMemo memo;
    return runGemm(plan, &a, b_tiles, memo);
}

GemmSimResult
simulateGemm(const LayerWorkset &ws, const ArchConfig &arch,
             DnnCategory cat, const SimOptions &opt)
{
    const WorksetParams &p = ws.params();
    const GemmPlan plan = planGemm(p.m, p.k, p.n, arch, cat, opt);
    // Generate what the sampled tiles read here, before tile_sim opens,
    // so gen_a and gen_b stay top-level stages: A whole, and B's
    // sampled column tiles.
    const MatrixI8 *a = plan.routing.sparseA() ? &ws.operandA() : nullptr;
    const std::vector<TileMasksB> b_tiles = ws.bTiles(plan.bCols, plan.shape);
    return runGemm(plan, a, b_tiles, ws.memo);
}

} // namespace griffin
