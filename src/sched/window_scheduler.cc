#include "sched/window_scheduler.hh"

#include <algorithm>
#include <cstring>

#include "runtime/telemetry.hh"

namespace griffin {

ScheduleStats
runWindowSchedule(const SlotQueues &queues, const BorrowWindow &window,
                  const CycleSink &sink)
{
    const SlotGrid &grid = queues.grid();
    GRIFFIN_ASSERT(window.steps >= 1, "window of ", window.steps,
                   " steps");
    GRIFFIN_ASSERT(window.advanceCap > 0.0,
                   "advance cap must be positive");
    GRIFFIN_ASSERT(window.budgetCeiling >= 1.0,
                   "budget ceiling below one step cost");
    GRIFFIN_ASSERT(window.laneDist >= 0 && window.rowDist >= 0 &&
                   window.colDist >= 0, "negative borrow distance");

    ScheduleStats stats;
    std::int64_t remaining = queues.totalElements();
    if (remaining == 0)
        return stats;

    const std::int64_t steps = grid.steps;
    const std::int64_t nslots = grid.slots();
    const std::int64_t words = queues.wordsPerStep();
    Arena &arena = workArena();
    ArenaScope scope(arena);
    auto scratch = [&](std::int64_t n) {
        return arena.alloc<std::uint64_t>(static_cast<std::size_t>(n));
    };
    // The engine clears a slot's bit as its element runs, so it works
    // on a private copy of the queue bits.
    std::uint64_t *live = scratch(steps * words);
    std::memcpy(live, queues.stepWords(0),
                static_cast<std::size_t>(steps * words) *
                    sizeof(std::uint64_t));
    std::uint64_t *ran = scratch(words);
    std::uint64_t *elig = scratch(words);
    const StealPass steals(grid, window.laneDist, window.rowDist,
                           window.colDist, arena);
    // What the sink sees: each window step's take words and the
    // steals, at most one per slot.
    std::uint64_t *takes =
        sink ? scratch(std::min<std::int64_t>(window.steps, steps) * words)
             : nullptr;
    auto *stolen =
        sink ? arena.alloc<StolenOp>(static_cast<std::size_t>(nslots))
             : nullptr;
    auto always = [](std::int64_t) { return true; };

    std::int64_t w = 0;
    // The first window's worth of operands is loaded during pipeline
    // fill (accounted by the tile simulator), so the streaming budget
    // starts empty and accrues advanceCap per cycle.
    double budget = 0.0;

    while (remaining > 0) {
        const std::int64_t cycle = stats.cycles++;
        // Every live element sits at a step >= w, so w < steps here.
        const std::int64_t depth =
            std::min<std::int64_t>(window.steps, steps - w);
        std::uint64_t *window_live = live + w * words;
        const std::int64_t own = ownPass(window_live, words, depth, words,
                                         always, ran, elig, takes);
        // Only slots that ran can still hold window elements, so the
        // idle slots are ~ran.
        std::int64_t nsteal = 0;
        if (!steals.empty())
            steals.run(window_live, words, depth, always, ran, elig,
                       [&](std::int64_t d, std::int64_t src, std::int64_t con) {
                           if (stolen)
                               stolen[nsteal] = {w + d, src, con};
                           ++nsteal;
                       });

        const std::int64_t consumed = own + nsteal;
        remaining -= consumed;
        stats.ops += consumed;
        stats.ownOps += own;
        stats.stolenOps += nsteal;
        stats.idleSlotCycles += nslots - consumed;
        if (sink)
            sink({cycle, w, depth, words, takes, stolen, nsteal});
        if (remaining == 0)
            break;

        // Advance the window tail toward the earliest outstanding
        // element, bounded by buffer turnover (window depth) and the
        // SRAM bandwidth budget.  The advance is at most W steps, so
        // the earliest-element scan looks no further (and, with
        // elements left, stops inside the grid).
        std::int64_t min_head = w;
        while (min_head < w + window.steps &&
               std::all_of(live + min_head * words,
                           live + (min_head + 1) * words,
                           [](std::uint64_t x) { return x == 0; }))
            ++min_head;

        budget = std::min(budget + window.advanceCap,
                          window.budgetCeiling);
        std::int64_t advanced = 0;
        bool bw_limited = false;
        while (w < min_head && advanced < window.steps) {
            // Advancing the base from w to w+1 brings step w+W into
            // residence; past the end of the grid nothing enters, so
            // draining the tail is free.
            const double c = w + window.steps >= steps ? 0.0 : 1.0;
            if (budget >= c) {
                budget -= c;
                ++w;
                ++advanced;
            } else {
                bw_limited = true;
                break;
            }
        }
        if (bw_limited)
            ++stats.bwLimitedCycles;
    }

    return stats;
}

StealPass::StealPass(const SlotGrid &grid, int lane_dist, int row_dist,
                     int col_dist, Arena &arena)
    : words_((grid.slots() + 63) / 64)
{
    const int max_dl = std::min(lane_dist, grid.lanes - 1);
    const int max_dr = std::min(row_dist, grid.rows - 1);
    const int max_dc = std::min(col_dist, grid.cols - 1);
    const std::int64_t offsets =
        static_cast<std::int64_t>(max_dl + 1) * (max_dr + 1) * (max_dc + 1) -
        1;
    if (offsets == 0)
        return;
    delta_ = arena.alloc<std::int64_t>(static_cast<std::size_t>(offsets));
    inside_ = arena.allocZeroed<std::uint64_t>(
        static_cast<std::size_t>(offsets * words_));
    reach_ = arena.alloc<std::uint64_t>(static_cast<std::size_t>(words_));
    GRIFFIN_ASSERT(grid.lanes <= 64, "a unit's ", grid.lanes,
                   " lanes must fit one 64-bit field");
    for (int dl = 0; dl <= max_dl; ++dl) {
        // The lanes l < lanes - dl of one (row, column) unit.
        const int width = grid.lanes - dl;
        const std::uint64_t field =
            width == 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << width) - 1;
        for (int dr = 0; dr <= max_dr; ++dr)
            for (int dc = 0; dc <= max_dc; ++dc) {
                if (!dl && !dr && !dc)
                    continue;
                delta_[count_] = grid.slotIndex(dl, dr, dc);
                std::uint64_t *inside = inside_ + count_++ * words_;
                for (int c = 0; c + dc < grid.cols; ++c)
                    for (int r = 0; r + dr < grid.rows; ++r)
                        simd::orField(inside, grid.slotIndex(0, r, c), width,
                                      field);
            }
    }
}

ScheduleResult
runWindowSchedule(const SlotQueues &queues, const BorrowWindow &window,
                  bool record)
{
    ScheduleResult result;
    auto recorder = [&](const WindowCycle &c) {
        appendCycleOps(queues.grid(), c, result.ops);
    };
    result.stats = runWindowSchedule(queues, window,
                                     record ? CycleSink(recorder) : nullptr);
    return result;
}

void
appendCycleOps(const SlotGrid &grid, const WindowCycle &c,
               std::vector<ScheduledOp> &ops)
{
    auto op = [&](std::int64_t step, std::int64_t src, std::int64_t con) {
        const std::int64_t src_unit = src / grid.lanes;
        const std::int64_t con_unit = con / grid.lanes;
        ops.push_back({step, static_cast<int>(src % grid.lanes),
                       static_cast<int>(src_unit % grid.rows),
                       static_cast<int>(src_unit / grid.rows),
                       static_cast<int>(con % grid.lanes),
                       static_cast<int>(con_unit % grid.rows),
                       static_cast<int>(con_unit / grid.rows), c.cycle});
    };
    for (std::int64_t i = 0; i < c.words; ++i) {
        std::uint64_t ran = 0;
        for (std::int64_t d = 0; d < c.depth; ++d)
            ran |= c.takes[d * c.words + i];
        for (; ran != 0; ran &= ran - 1) {
            const int bit = simd::ctz64(ran);
            std::int64_t d = 0;
            while ((c.takes[d * c.words + i] >> bit & 1u) == 0)
                ++d;
            op(c.base + d, i * 64 + bit, i * 64 + bit);
        }
    }
    for (std::int64_t k = 0; k < c.stealCount; ++k)
        op(c.steals[k].step, c.steals[k].src, c.steals[k].consumer);
}

namespace {

/**
 * The shuffle as a map of lanes-wide fields: bit k2 of a step-k1 field
 * moves to bit shuffler.apply(k1, k2), each group of G lanes rotating
 * left by k1 mod G.  stay_[r] holds the lanes that rotation r keeps
 * inside their group without wrapping.
 */
class LaneRotation
{
  public:
    LaneRotation(const Shuffler &shuffler, int lanes, Arena &arena)
        : group_(shuffler.enabled() ? shuffler.groupSize() : 1),
          stay_(arena.alloc<std::uint64_t>(static_cast<std::size_t>(group_)))
    {
        for (int r = 0; r < group_; ++r) {
            stay_[r] = 0;
            for (int l = 0; l < lanes; ++l)
                if (l % group_ + r < group_)
                    stay_[r] |= std::uint64_t{1} << l;
        }
    }

    std::uint64_t
    operator()(std::int64_t k1, std::uint64_t field) const
    {
        const int r = static_cast<int>(k1 % group_);
        if (r == 0)
            return field;
        return (field & stay_[r]) << r | (field & ~stay_[r]) >> (group_ - r);
    }

  private:
    int group_;
    std::uint64_t *stay_;
};

/**
 * tileQueues' body: `units` unit masks over flat k, written by
 * masks(words, out), cut into one rotated lanes-wide field per unit
 * and step.  The queues go to `arena` before the scratch scope opens,
 * so they outlive it when `arena` is workArena().
 */
template <class Masks>
SlotQueues
sideQueues(const SlotGrid &grid, int units, const Shuffler &shuffler,
           Arena &arena, Masks &&masks)
{
    const int lanes = grid.lanes;
    GRIFFIN_ASSERT(lanes <= 64, "a step's ", lanes,
                   " lanes must fit one 64-bit field");
    GRIFFIN_ASSERT(shuffler.lanes() == lanes, "shuffler is ",
                   shuffler.lanes(), " lanes wide, tile ", lanes);
    SlotQueues queues(grid, arena);
    Arena &scratch = workArena();
    ArenaScope scope(scratch);
    const std::int64_t words = (grid.steps * lanes + 63) / 64;
    auto *unit_masks = scratch.alloc<std::uint64_t>(
        static_cast<std::size_t>(units * words));
    masks(words, unit_masks);
    const LaneRotation rotate(shuffler, lanes, scratch);
    for (std::int64_t k1 = 0; k1 < grid.steps; ++k1) {
        std::uint64_t *step = queues.stepWords(k1);
        for (int u = 0; u < units; ++u)
            simd::orField(step, std::int64_t{u} * lanes, lanes,
                          rotate(k1, simd::readField(unit_masks + u * words,
                                                     k1 * lanes, lanes)));
    }
    return queues;
}

} // namespace

SlotQueues
tileQueues(const TileViewA &a, const Shuffler &shuffler, Arena &arena)
{
    const int rows = a.units();
    return sideQueues(SlotGrid{a.steps(), a.lanes(), rows, 1}, rows,
                      shuffler, arena,
                      [&](std::int64_t words, std::uint64_t *out) {
                          simd::aRowMasks(a.matrix(), a.unitBase(), rows,
                                          words, out);
                      });
}

SlotQueues
tileQueues(const TileViewB &b, const Shuffler &shuffler, Arena &arena)
{
    const int cols = b.units();
    return sideQueues(SlotGrid{b.steps(), b.lanes(), 1, cols}, cols,
                      shuffler, arena,
                      [&](std::int64_t words, std::uint64_t *out) {
                          simd::bColumnMasks(b.matrix(), b.matrixCol(), cols,
                                             words, out);
                      });
}

SlotQueues
pairQueues(const SlotQueues &a, const SlotQueues &b, Arena &arena)
{
    const SlotGrid &ga = a.grid();
    const SlotGrid &gb = b.grid();
    GRIFFIN_ASSERT(ga.cols == 1 && gb.rows == 1, "pairQueues takes an A "
                   "side and a B side, got ", ga.rows, "x", ga.cols,
                   " and ", gb.rows, "x", gb.cols);
    GRIFFIN_ASSERT(ga.steps == gb.steps && ga.lanes == gb.lanes,
                   "A and B tiles disagree on k");
    const int lanes = ga.lanes;
    SlotQueues queues(SlotGrid{ga.steps, lanes, ga.rows, gb.cols}, arena);
    for (std::int64_t k1 = 0; k1 < ga.steps; ++k1) {
        const std::uint64_t *rows = a.stepWords(k1);
        const std::uint64_t *cols = b.stepWords(k1);
        std::uint64_t *step = queues.stepWords(k1);
        std::int64_t at = 0;
        for (int j = 0; j < gb.cols; ++j) {
            const std::uint64_t col =
                simd::readField(cols, std::int64_t{j} * lanes, lanes);
            for (int m = 0; m < ga.rows; ++m, at += lanes)
                simd::orField(step, at, lanes,
                              simd::readField(rows, std::int64_t{m} * lanes,
                                              lanes) &
                                  col);
        }
    }
    return queues;
}

template <class View>
const SlotQueues &
QueueMemo::lookup(bool b_side, const View &view, const Shuffler &shuffler)
{
    ++requests_;
    const Key key{b_side, view.unitBase(), view.units(), view.lanes(),
                  shuffler.enabled() ? shuffler.groupSize() : 0};
    auto it = queues_.find(key);
    if (it == queues_.end()) {
        ScopedSpan span("tile_queues");
        it = queues_.emplace(key, tileQueues(view, shuffler, *arena_)).first;
    }
    return it->second;
}

const SlotQueues &
QueueMemo::get(const TileViewA &a, const Shuffler &shuffler)
{
    return lookup(false, a, shuffler);
}

const SlotQueues &
QueueMemo::get(const TileViewB &b, const Shuffler &shuffler)
{
    return lookup(true, b, shuffler);
}

} // namespace griffin
