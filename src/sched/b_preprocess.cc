#include "sched/b_preprocess.hh"

#include <algorithm>
#include <type_traits>

#include "common/arena.hh"
#include "sched/window_scheduler.hh"
#include "simd/occupancy.hh"

namespace griffin {

namespace {

BorrowWindow
packingWindow(const Borrow &db)
{
    BorrowWindow window;
    window.steps = 1 + db.d1;
    window.laneDist = db.d2;
    window.rowDist = 0;
    window.colDist = db.d3;
    // Offline packing: the stream layout is limited by the window
    // depth only, never by runtime bandwidth.
    window.advanceCap = window.steps;
    window.budgetCeiling = window.steps;
    return window;
}

} // namespace

BSchedule
preprocessB(const SlotQueues &queues, const Borrow &db,
            const Shuffler &shuffler, bool record)
{
    Arena &arena = workArena();
    ArenaScope scope(arena);
    // Slot n * lanes + post-shuffle lane of step k1 holds column n's
    // element at (k1, k2).
    const SlotGrid &grid = queues.grid();
    GRIFFIN_ASSERT(grid.rows == 1 && shuffler.lanes() == grid.lanes,
                   "preprocessB takes a B tile's queues under its "
                   "shuffle");
    const BorrowWindow window = packingWindow(db);
    BSchedule sched;
    sched.steps_ = grid.steps;
    sched.lanes_ = grid.lanes;
    sched.cols_ = grid.cols;
    sched.words_ = queues.wordsPerStep();
    sched.window_ = std::min<std::int64_t>(window.steps, grid.steps);
    sched.shuffler_ = shuffler;

    // Tables sized for grid.steps cycles: every packing cycle moves the
    // window base at least one step, so the stream is never longer
    // than the tile.  Steals are few, so they go straight to the
    // schedule.
    const std::int64_t steps = grid.steps;
    const std::int64_t words = sched.words_;
    const std::int64_t row = sched.window_ * words;
    const int lanes = grid.lanes;
    const int cols = grid.cols;
    auto table = [&](auto *&at, std::int64_t size) {
        at = arena.alloc<std::remove_reference_t<decltype(*at)>>(
            static_cast<std::size_t>(size));
    };
    std::int64_t *base, *steal_at, *raw_lo, *raw_hi, *raw_end;
    std::uint64_t *takes, *packed;
    table(base, steps);
    table(takes, steps * row);
    table(steal_at, steps + 1);
    table(raw_lo, steps * cols);
    table(raw_hi, steps * cols);
    table(raw_end, steps);
    table(packed, words);
    steal_at[0] = 0;
    const simd::KernelTable &kern = simd::kernels();

    auto on_cycle = [&](const WindowCycle &c) {
        GRIFFIN_ASSERT(c.cycle < steps, "packing ran past the tile's ",
                       steps, " steps");
        GRIFFIN_ASSERT(c.depth == std::min(sched.window_, steps - c.base),
                       "window of depth ", c.depth, " at base ", c.base);
        base[c.cycle] = c.base;
        std::uint64_t *rows = takes + c.cycle * row;
        std::copy(c.takes, c.takes + c.depth * words, rows);
        std::fill(rows + c.depth * words, rows + row, 0);
        sched.steals_.insert(sched.steals_.end(), c.steals,
                             c.steals + c.stealCount);
        steal_at[c.cycle + 1] = steal_at[c.cycle] + c.stealCount;

        // Each stream slot holds at most one element.
        std::fill(packed, packed + words, 0);
        for (std::int64_t d = 0; d < c.depth; ++d)
            for (std::int64_t i = 0; i < words; ++i) {
                const std::uint64_t take = c.takes[d * words + i];
                GRIFFIN_ASSERT((packed[i] & take) == 0,
                               "two elements packed into one stream slot");
                packed[i] |= take;
            }
        for (std::int64_t k = 0; k < c.stealCount; ++k) {
            const std::int64_t s = c.steals[k].consumer;
            const std::uint64_t bit = std::uint64_t{1} << (s & 63);
            GRIFFIN_ASSERT((packed[s >> 6] & bit) == 0,
                           "two elements packed into one stream slot");
            packed[s >> 6] |= bit;
        }

        // Raw extents: the lowest / highest step each column holds;
        // the frontier is cumulative.
        std::int64_t *lo = raw_lo + c.cycle * cols;
        std::int64_t *hi = raw_hi + c.cycle * cols;
        kern.takeExtents(c.takes, words, c.depth, lanes, cols, c.base, lo,
                         hi);
        std::int64_t end = c.cycle > 0 ? raw_end[c.cycle - 1] : -1;
        for (int j = 0; j < cols; ++j)
            end = std::max(end, hi[j]);
        for (std::int64_t k = 0; k < c.stealCount; ++k) {
            const std::int64_t step = c.steals[k].step;
            const auto j =
                static_cast<std::size_t>(c.steals[k].consumer / lanes);
            lo[j] = lo[j] < 0 ? step : std::min(lo[j], step);
            hi[j] = std::max(hi[j], step);
            end = std::max(end, step);
        }
        raw_end[c.cycle] = end;
        if (record)
            appendCycleOps(grid, c, sched.ops_);
    };
    sched.stats_ = runWindowSchedule(queues, window, on_cycle);

    const std::int64_t cycles = sched.stats_.cycles;
    sched.cycles_ = cycles;
    sched.elems_ = sched.stats_.ops;
    sched.base_.assign(base, base + cycles);
    sched.takes_.assign(takes, takes + cycles * row);
    sched.steal_at_.assign(steal_at, steal_at + cycles + 1);
    sched.steals_.shrink_to_fit();
    sched.raw_lo_.assign(raw_lo, raw_lo + cycles * cols);
    sched.raw_hi_.assign(raw_hi, raw_hi + cycles * cols);
    sched.raw_end_.assign(raw_end, raw_end + cycles);
    return sched;
}

StolenOp
BSchedule::cell(std::int64_t cycle, int lane, int col) const
{
    GRIFFIN_ASSERT(lane >= 0 && lane < lanes_ && col >= 0 && col < cols_,
                   "stream slot (", cycle, ",", lane, ",", col,
                   ") out of range");
    const std::int64_t s = std::int64_t{col} * lanes_ + lane;
    const std::uint64_t *rows = takes(cycle);
    for (std::int64_t d = 0; d < depth(cycle); ++d)
        if (rows[d * words_ + (s >> 6)] >> (s & 63) & 1u)
            return {base(cycle) + d, s, s};
    for (const StolenOp *k = stealsBegin(cycle); k != stealsEnd(cycle); ++k)
        if (k->consumer == s)
            return *k;
    return {-1, -1, s};
}

std::int64_t
BSchedule::flatK(std::int64_t cycle, int lane, int col) const
{
    // The element's lane is post-shuffle; the original k2 forms the
    // flat k index used for A pairing.
    const StolenOp c = cell(cycle, lane, col);
    if (c.step < 0)
        return -1;
    return c.step * lanes_ +
           shuffler_.invert(c.step, static_cast<int>(c.src % lanes_));
}

int
BSchedule::homeCol(std::int64_t cycle, int lane, int col) const
{
    const StolenOp c = cell(cycle, lane, col);
    return c.step < 0 ? -1 : static_cast<int>(c.src / lanes_);
}

BSchedule
preprocessB(const TileViewB &b, const Borrow &db, const Shuffler &shuffler,
            bool record)
{
    Arena &arena = workArena();
    ArenaScope scope(arena);
    return preprocessB(tileQueues(b, shuffler, arena), db, shuffler,
                       record);
}

ScheduleStats
scheduleB(const SlotQueues &queues, const Borrow &db)
{
    return runWindowSchedule(queues, packingWindow(db), nullptr);
}

} // namespace griffin
