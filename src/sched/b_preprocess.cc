#include "sched/b_preprocess.hh"

#include <algorithm>

#include "common/arena.hh"
#include "sched/window_scheduler.hh"
#include "simd/occupancy.hh"

namespace griffin {

BSchedule
preprocessB(const TileViewB &b, const Borrow &db, const Shuffler &shuffler,
            bool record)
{
    GRIFFIN_ASSERT(shuffler.lanes() == b.lanes(),
                   "shuffler is ", shuffler.lanes(), " lanes wide, tile ",
                   b.lanes());

    SlotGrid grid;
    grid.steps = b.steps();
    grid.lanes = b.lanes();
    grid.rows = 1;
    grid.cols = b.units();

    // Bulk occupancy: one mask word per flat k with bit n set on
    // nonzero, then a count / prefix-sum / fill CSR build.  The
    // shuffler maps at most one k2 per (step, lane), so filling in
    // k1-major order keeps every slot's queue ascending.
    Arena &arena = workArena();
    ArenaScope scope(arena);
    const std::int64_t flat = grid.steps * grid.lanes;
    const std::int64_t nslots = grid.slots();
    auto *occ =
        arena.alloc<std::uint64_t>(static_cast<std::size_t>(flat));
    simd::bTileOccupancy(b.matrix(), b.unitBase(), grid.cols,
                         grid.steps, grid.lanes, occ);

    auto *offsets = arena.allocZeroed<std::int64_t>(
        static_cast<std::size_t>(nslots + 1));
    for (std::int64_t f = 0; f < flat; ++f) {
        const std::int64_t k1 = f / grid.lanes;
        const int lane =
            shuffler.apply(k1, static_cast<int>(f % grid.lanes));
        std::uint64_t word = occ[f];
        while (word != 0) {
            const int n = simd::ctz64(word);
            word &= word - 1;
            ++offsets[n * grid.lanes + lane + 1];
        }
    }
    for (std::int64_t s = 0; s < nslots; ++s)
        offsets[s + 1] += offsets[s];
    auto *values = arena.alloc<std::int64_t>(
        static_cast<std::size_t>(offsets[nslots]));
    auto *fill = arena.alloc<std::int64_t>(
        static_cast<std::size_t>(nslots));
    for (std::int64_t s = 0; s < nslots; ++s)
        fill[s] = offsets[s];
    for (std::int64_t f = 0; f < flat; ++f) {
        const std::int64_t k1 = f / grid.lanes;
        const int lane =
            shuffler.apply(k1, static_cast<int>(f % grid.lanes));
        std::uint64_t word = occ[f];
        while (word != 0) {
            const int n = simd::ctz64(word);
            word &= word - 1;
            values[fill[n * grid.lanes + lane]++] = k1;
        }
    }

    SlotQueueSpans queues;
    queues.grid = grid;
    queues.offsets = offsets;
    queues.values = values;

    BorrowWindow window;
    window.steps = 1 + db.d1;
    window.laneDist = db.d2;
    window.rowDist = 0;
    window.colDist = db.d3;
    // Offline packing: the stream layout is limited by the window
    // depth only, never by runtime bandwidth.
    window.advanceCap = window.steps;
    window.budgetCeiling = window.steps;

    // The packing ops *are* the stream content, so always record.
    auto result = runWindowSchedule(queues, window, true);

    BSchedule sched;
    sched.cycles_ = std::max<std::int64_t>(result.stats.cycles, 0);
    sched.lanes_ = grid.lanes;
    sched.cols_ = grid.cols;
    sched.elems_ = result.stats.ops;
    sched.stats_ = result.stats;
    const auto cells = static_cast<std::size_t>(
        sched.cycles_ * grid.lanes * grid.cols);
    sched.flatk_.assign(cells, -1);
    sched.homecol_.assign(cells, -1);
    sched.raw_end_.assign(static_cast<std::size_t>(sched.cycles_), -1);
    const auto col_cells =
        static_cast<std::size_t>(sched.cycles_ * grid.cols);
    sched.raw_lo_.assign(col_cells, -1);
    sched.raw_hi_.assign(col_cells, -1);

    for (const auto &op : result.ops) {
        // The op's element lane is post-shuffle; recover the original
        // k2 to form the flat k index used for A pairing.
        const int orig_k2 = shuffler.invert(op.step, op.lane);
        const auto idx =
            sched.index(op.cycle, op.consumerLane, op.consumerCol);
        GRIFFIN_ASSERT(sched.flatk_[idx] == -1,
                       "two elements packed into one stream slot");
        sched.flatk_[idx] = op.step * grid.lanes + orig_k2;
        sched.homecol_[idx] = static_cast<std::int16_t>(op.col);
        auto &frontier =
            sched.raw_end_[static_cast<std::size_t>(op.cycle)];
        frontier = std::max(frontier, op.step);
        const auto cidx = sched.colIndex(op.cycle, op.consumerCol);
        auto &lo = sched.raw_lo_[cidx];
        auto &hi = sched.raw_hi_[cidx];
        lo = (lo < 0) ? op.step : std::min(lo, op.step);
        hi = std::max(hi, op.step);
    }
    // Make the frontier cumulative; empty cycles inherit it.
    std::int64_t running = -1;
    for (auto &v : sched.raw_end_) {
        running = std::max(running, v);
        v = running;
    }
    if (record)
        sched.ops_ = std::move(result.ops);
    return sched;
}

std::vector<std::int64_t>
BSchedule::stepCosts() const
{
    std::vector<std::int64_t> costs(
        static_cast<std::size_t>(cycles_), 0);
    std::int64_t prev = -1;
    for (std::int64_t c = 0; c < cycles_; ++c) {
        const auto end = raw_end_[static_cast<std::size_t>(c)];
        costs[static_cast<std::size_t>(c)] = std::max<std::int64_t>(
            0, end - prev);
        prev = std::max(prev, end);
    }
    return costs;
}

} // namespace griffin
