#include "sched/b_preprocess.hh"

#include <algorithm>
#include <type_traits>

#include "common/arena.hh"
#include "sched/window_scheduler.hh"
#include "simd/occupancy.hh"

namespace griffin {

namespace {

/**
 * Packing queues of one B tile: slot n * lanes + lane of step k1 holds
 * column n's element at (k1, k2), lane being k2's post-shuffle lane.
 */
SlotQueues
packingQueues(const TileViewB &b, const Shuffler &shuffler, Arena &arena)
{
    GRIFFIN_ASSERT(shuffler.lanes() == b.lanes(),
                   "shuffler is ", shuffler.lanes(), " lanes wide, tile ",
                   b.lanes());
    const SlotGrid grid{b.steps(), b.lanes(), 1, b.units()};

    auto *occ = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(grid.steps * grid.lanes));
    simd::bTileOccupancy(b.matrix(), b.unitBase(), grid.cols,
                         grid.steps, grid.lanes, occ);
    return tileQueues(grid, nullptr, occ, shuffler, arena);
}

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

/**
 * Writes each packing cycle's stream cells from its take words into
 * arena tables sized for grid.steps cycles: every packing cycle moves
 * the window base at least one step, so the stream is never longer
 * than the tile.  The cell of consumer slot s at cycle c is
 * c * slots + s (rows == 1).  Each slot's lane and column, each step's
 * shuffle rotation and each (rotation, lane)'s original k2 are
 * precomputed.
 */
class StreamWriter
{
  public:
    StreamWriter(const SlotGrid &grid, const Shuffler &shuffler,
                 Arena &arena, std::vector<ScheduledOp> *ops)
        : grid_(grid), nslots_(grid.slots()), ops_(ops),
          period_(shuffler.enabled() ? shuffler.groupSize() : 1)
    {
        auto table = [&](auto *&at, std::int64_t size) {
            at = arena.alloc<std::remove_reference_t<decltype(*at)>>(
                static_cast<std::size_t>(size));
        };
        table(flatk, grid.steps * nslots_);
        table(homecol, grid.steps * nslots_);
        table(rawLo, grid.steps * grid.cols);
        table(rawHi, grid.steps * grid.cols);
        table(rawEnd, grid.steps);
        table(packed_, (nslots_ + 63) / 64);
        table(slotLane_, nslots_);
        table(slotCol_, nslots_);
        table(rot_, grid.steps);
        table(origLane_, period_ * grid.lanes);
        for (std::int64_t s = 0; s < nslots_; ++s) {
            slotLane_[s] = static_cast<int>(s % grid.lanes);
            slotCol_[s] = static_cast<std::int16_t>(s / grid.lanes);
        }
        for (std::int64_t k1 = 0; k1 < grid.steps; ++k1)
            rot_[k1] = static_cast<int>(k1 % period_) * grid.lanes;
        for (int r = 0; r < period_; ++r)
            for (int l = 0; l < grid.lanes; ++l)
                origLane_[r * grid.lanes + l] = shuffler.invert(r, l);
    }

    void cycle(const WindowCycle &c)
    {
        GRIFFIN_ASSERT(c.cycle < grid_.steps,
                       "packing ran past the tile's ", grid_.steps,
                       " steps");
        cell_ = c.cycle * nslots_;
        col_ = c.cycle * grid_.cols;
        std::fill(flatk + cell_, flatk + cell_ + nslots_, -1);
        std::fill(homecol + cell_, homecol + cell_ + nslots_, -1);
        std::fill(rawLo + col_, rawLo + col_ + grid_.cols, -1);
        std::fill(rawHi + col_, rawHi + col_ + grid_.cols, -1);
        std::fill(packed_, packed_ + c.words, 0);
        // The raw frontier is cumulative.
        end_ = c.cycle > 0 ? rawEnd[c.cycle - 1] : -1;
        for (std::int64_t d = 0; d < c.depth; ++d)
            for (std::int64_t i = 0; i < c.words; ++i)
                for (std::uint64_t take = c.takes[d * c.words + i];
                     take != 0; take &= take - 1) {
                    const std::int64_t s = i * 64 + simd::ctz64(take);
                    put(c.base + d, s, s);
                }
        for (std::int64_t k = 0; k < c.stealCount; ++k)
            put(c.steals[k].step, c.steals[k].src, c.steals[k].consumer);
        rawEnd[c.cycle] = end_;
        if (ops_ != nullptr)
            appendCycleOps(grid_, c, *ops_);
    }

    std::int64_t *flatk;
    std::int16_t *homecol;
    std::int64_t *rawLo;
    std::int64_t *rawHi;
    std::int64_t *rawEnd;

  private:
    void
    put(std::int64_t step, std::int64_t src, std::int64_t consumer)
    {
        const std::uint64_t bit = std::uint64_t{1} << (consumer & 63);
        GRIFFIN_ASSERT((packed_[consumer >> 6] & bit) == 0,
                       "two elements packed into one stream slot");
        packed_[consumer >> 6] |= bit;
        // The element's lane is post-shuffle; the original k2 forms
        // the flat k index used for A pairing.
        flatk[cell_ + consumer] =
            step * grid_.lanes + origLane_[rot_[step] + slotLane_[src]];
        homecol[cell_ + consumer] = slotCol_[src];
        std::int64_t &lo = rawLo[col_ + slotCol_[consumer]];
        std::int64_t &hi = rawHi[col_ + slotCol_[consumer]];
        lo = lo < 0 ? step : std::min(lo, step);
        hi = std::max(hi, step);
        end_ = std::max(end_, step);
    }

    const SlotGrid &grid_;
    std::int64_t nslots_;
    std::vector<ScheduledOp> *ops_; ///< recorded ops, when asked
    int period_;
    std::int64_t cell_ = 0; ///< first cell of the current cycle
    std::int64_t col_ = 0;  ///< first (cycle, col) extent of it
    std::int64_t end_ = -1; ///< its raw frontier so far
    std::uint64_t *packed_; ///< its consumer slots written so far
    int *slotLane_;
    std::int16_t *slotCol_;
    int *rot_; ///< (step mod group) * lanes
    int *origLane_;
};

} // namespace

BSchedule
preprocessB(const TileViewB &b, const Borrow &db, const Shuffler &shuffler,
            bool record)
{
    Arena &arena = workArena();
    ArenaScope scope(arena);
    const SlotQueues queues = packingQueues(b, shuffler, arena);
    const SlotGrid &grid = queues.grid();
    BSchedule sched;
    StreamWriter writer(grid, shuffler, arena,
                        record ? &sched.ops_ : nullptr);
    sched.stats_ =
        runWindowSchedule(queues, packingWindow(db),
                          [&writer](const WindowCycle &c) { writer.cycle(c); });
    sched.cycles_ = sched.stats_.cycles;
    sched.lanes_ = grid.lanes;
    sched.cols_ = grid.cols;
    sched.elems_ = sched.stats_.ops;
    const std::int64_t cells = sched.cycles_ * grid.slots();
    const std::int64_t col_cells = sched.cycles_ * grid.cols;
    sched.flatk_.assign(writer.flatk, writer.flatk + cells);
    sched.homecol_.assign(writer.homecol, writer.homecol + cells);
    sched.raw_lo_.assign(writer.rawLo, writer.rawLo + col_cells);
    sched.raw_hi_.assign(writer.rawHi, writer.rawHi + col_cells);
    sched.raw_end_.assign(writer.rawEnd, writer.rawEnd + sched.cycles_);
    return sched;
}

ScheduleStats
scheduleB(const TileViewB &b, const Borrow &db, const Shuffler &shuffler)
{
    Arena &arena = workArena();
    ArenaScope scope(arena);
    return runWindowSchedule(packingQueues(b, shuffler, arena),
                             packingWindow(db), nullptr);
}

} // namespace griffin
