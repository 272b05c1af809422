/**
 * @file
 * The generic sliding-window scheduler every sparse family reuses.
 *
 * Cycle-level greedy semantics:
 *
 *  1. The window covers steps [w, w + W - 1].
 *  2. Each cycle, pass 1 lets every slot consume the head of its own
 *     queue if that head lies in the window; pass 2 lets still-idle
 *     slots steal the head of a neighbouring queue within
 *     (laneDist, rowDist, colDist), scanning offsets lexicographically
 *     — a priority-encoder chain like Bit-Tactical's.
 *  3. The window tail then advances past drained steps, at most
 *     `advanceCap` steps per cycle (SRAM bandwidth), with unused
 *     budget accumulating up to `budgetCeiling` (buffer capacity).
 *
 * Consequences: max speedup = W (paper observation VI-A(1)); lane
 * imbalance stalls the window unless laneDist / shuffle spreads load;
 * cross-PE borrowing needs the extra adder trees accounted elsewhere.
 *
 * Queues are per-step slot bitsets (SlotQueues).  tileQueues builds
 * one tile side's from one nonzero mask over k per tile unit (an A
 * row, a B column): each unit contributes one lanes-wide field per
 * step.  A dual tile's pairwise queues are its two sides' fields
 * ANDed (pairQueues).  A side's queues depend only on the operands,
 * the tile and the shuffle, never on the borrow window, so one
 * workset's QueueMemo builds each sampled tile's once and every
 * design point run on that workset reads it.  Both passes work on any
 * window of live slot bitsets, so the dual engine shares them.
 */

#ifndef GRIFFIN_SCHED_WINDOW_SCHEDULER_HH
#define GRIFFIN_SCHED_WINDOW_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/arena.hh"
#include "sched/schedule.hh"
#include "simd/occupancy.hh"
#include "tensor/shuffle.hh"
#include "tensor/tile.hh"

namespace griffin {

/**
 * Pass 1 over a window of `depth` entries (entry d at live + d * stride),
 * a word at a time: walking the entries in order, live & ~seen are the
 * slots whose head sits there; they run it when ready(d).  An entry
 * that is not ready still hides its slots' later entries, because a
 * slot runs its elements in stream order, and it is no steal source.
 * Fills ran and, when given, elig (steal sources: new head in the
 * window and ready) and takes[d * words + i].  Returns how many slots
 * ran.
 */
template <class Ready>
std::int64_t
ownPass(std::uint64_t *live, std::int64_t stride, std::int64_t depth,
        std::int64_t words, Ready &&ready, std::uint64_t *ran,
        std::uint64_t *elig, std::uint64_t *takes)
{
    std::int64_t own = 0;
    for (std::int64_t i = 0; i < words; ++i) {
        std::uint64_t seen = 0, seen_after = 0, ran_i = 0, elig_i = 0;
        for (std::int64_t d = 0; d < depth; ++d) {
            std::uint64_t &mask = live[d * stride + i];
            const bool ok = ready(d);
            const std::uint64_t take = ok ? mask & ~seen : 0;
            seen |= mask;
            mask &= ~take;
            elig_i |= ok ? mask & ~seen_after : 0;
            seen_after |= mask;
            ran_i |= take;
            if (takes != nullptr)
                takes[d * words + i] = take;
        }
        ran[i] = ran_i;
        if (elig != nullptr)
            elig[i] = elig_i;
        own += simd::popcount64(ran_i);
    }
    return own;
}

/**
 * Pass 2: each idle slot, in ascending order, takes the head of the
 * first eligible source among its (dl, dr, dc) offsets in
 * lexicographic priority.  Each offset keeps the mask of consumers it
 * stays inside the grid for, and a word-parallel reach test (the
 * sources shifted back by each offset) skips idle slots no source can
 * serve; sources only drain within a cycle, so that skips nothing.
 */
class StealPass
{
  public:
    /** Scratch comes from `arena`, which must outlive the pass. */
    StealPass(const SlotGrid &grid, int lane_dist, int row_dist,
              int col_dist, Arena &arena);

    bool empty() const { return count_ == 0; }

    /**
     * One cycle's steals over ownPass's window and outputs; slot s
     * lives at bit s of the window's words.  A steal clears the
     * source's earliest live entry d and calls on_steal(d, src,
     * consumer).
     */
    template <class Ready, class OnSteal>
    void
    run(std::uint64_t *live, std::int64_t stride, std::int64_t depth,
        Ready &&ready, const std::uint64_t *ran, std::uint64_t *elig,
        OnSteal &&on_steal) const
    {
        std::int64_t sources = 0;
        for (std::int64_t i = 0; i < words_; ++i) {
            reach_[i] = 0;
            sources += simd::popcount64(elig[i]);
        }
        for (std::int64_t k = 0; k < count_ && sources > 0; ++k) {
            const std::int64_t q = delta_[k] >> 6;
            const int r = static_cast<int>(delta_[k] & 63);
            for (std::int64_t i = 0; i + q < words_; ++i) {
                std::uint64_t src = elig[i + q] >> r;
                if (r != 0 && i + q + 1 < words_)
                    src |= elig[i + q + 1] << (64 - r);
                reach_[i] |= src & inside_[k * words_ + i];
            }
        }
        for (std::int64_t i = 0; i < words_ && sources > 0; ++i) {
            for (std::uint64_t cand = reach_[i] & ~ran[i];
                 cand != 0 && sources > 0; cand &= cand - 1) {
                const std::int64_t s = i * 64 + simd::ctz64(cand);
                for (std::int64_t k = 0; k < count_; ++k) {
                    const std::int64_t src = s + delta_[k];
                    const std::uint64_t src_bit = std::uint64_t{1}
                                                  << (src & 63);
                    if ((inside_[k * words_ + i] >> (s & 63) & 1u) == 0 ||
                        (elig[src >> 6] & src_bit) == 0)
                        continue;
                    std::uint64_t *word = live + (src >> 6);
                    std::int64_t d = 0;
                    while ((word[d * stride] & src_bit) == 0)
                        ++d;
                    word[d * stride] &= ~src_bit;
                    on_steal(d, src, s);
                    // Still a source while its next live entry is in
                    // the window and ready.
                    std::int64_t next = d + 1;
                    while (next < depth &&
                           (word[next * stride] & src_bit) == 0)
                        ++next;
                    if (next == depth || !ready(next)) {
                        elig[src >> 6] &= ~src_bit;
                        --sources;
                    }
                    break;
                }
            }
        }
    }

  private:
    std::int64_t words_;
    std::int64_t count_ = 0;
    std::int64_t *delta_ = nullptr;   ///< slot-index delta per offset
    std::uint64_t *inside_ = nullptr; ///< count_ x words_ masks
    std::uint64_t *reach_ = nullptr;  ///< words_ scratch
};

/** One cycle's picks: takes[d * words + i] holds the slots (word i)
 *  that ran their own head at step base + d; steals follow in the
 *  order the idle slots claimed them. */
struct WindowCycle
{
    std::int64_t cycle, base, depth, words;
    const std::uint64_t *takes;
    const StolenOp *steals;
    std::int64_t stealCount;
};

/** Per-cycle observer of the engine (op recording, B stream cells). */
using CycleSink = std::function<void(const WindowCycle &)>;

/** Run the window schedule to completion; `sink`, when set, sees every
 *  cycle.  With `record`, every executed op lands in result.ops. */
ScheduleStats runWindowSchedule(const SlotQueues &queues,
                                const BorrowWindow &window,
                                const CycleSink &sink);
ScheduleResult runWindowSchedule(const SlotQueues &queues,
                                 const BorrowWindow &window, bool record);

/** Append one cycle's ops in record order: pass-1 ops by ascending
 *  slot, each with its own step, then the steals. */
void appendCycleOps(const SlotGrid &grid, const WindowCycle &c,
                    std::vector<ScheduledOp> &ops);

/**
 * Queues of one tile side, straight from its per-unit nonzero masks
 * over flat k (simd::aRowMasks for A; B's come as a TileMasksB): the
 * element at (k1, k2) of unit u (an A row, a B column) queues on slot
 * u * lanes + shuffler.apply(k1, k2) of step k1 when it is nonzero.
 * Each unit contributes one lanes-wide field per step, rotated by the
 * shuffle's group rotation.  A's grid is M0 rows x 1 column, B's 1 row
 * x N0 columns; lanes <= 64.  The queues live in `arena`; scratch
 * comes from workArena(), so `arena` may be that one.  The TileViewB
 * form is simd::bColumnMasks of the view's columns, then the
 * TileMasksB form.
 */
SlotQueues tileQueues(const TileViewA &a, const Shuffler &shuffler,
                      Arena &arena);
SlotQueues tileQueues(const TileMasksB &b, const Shuffler &shuffler,
                      Arena &arena);
SlotQueues tileQueues(const TileViewB &b, const Shuffler &shuffler,
                      Arena &arena);

/**
 * A dual tile's pairwise queues from its A side's and B side's queues
 * under one shuffle: slot (j * rows + m) * lanes + l of step k1 is set
 * when A row m and B column j both have an element there — row m's
 * field AND column j's field.  The queues live in `arena`.
 */
SlotQueues pairQueues(const SlotQueues &a, const SlotQueues &b,
                      Arena &arena);

/**
 * One workset's single-side tile queues.  The first request for a
 * tile side under a (tile geometry, lanes, shuffle) builds its queues
 * with tileQueues (the `tile_queues` span); every later request with
 * that key returns the same queues, which no engine writes.  Every
 * tile must show the workset's own operands: A's rows, or B's column
 * masks.  A tile is named by its first row in A or first column in B
 * (unitBase()).  The memo holds only what was asked for, the sampled
 * tiles, until it is destroyed; it is not synchronized, so one thread
 * uses it at a time.
 */
class QueueMemo
{
  public:
    const SlotQueues &get(const TileViewA &a, const Shuffler &shuffler);
    const SlotQueues &get(const TileMasksB &b, const Shuffler &shuffler);

    /** Requests served so far, and how many of them built queues. */
    std::int64_t requests() const { return requests_; }
    std::int64_t
    builds() const
    {
        return static_cast<std::int64_t>(queues_.size());
    }

  private:
    /** (B side, first row in A or column in B, units, lanes, shuffle
     *  group or 0 when the shuffle is off). */
    using Key = std::tuple<bool, std::int64_t, int, int, int>;

    template <class Tile>
    const SlotQueues &lookup(bool b_side, const Tile &tile,
                             const Shuffler &shuffler);

    /** Holds every queue's words; behind a pointer so the memo moves. */
    std::unique_ptr<Arena> arena_ = std::make_unique<Arena>();
    std::map<Key, SlotQueues> queues_;
    std::int64_t requests_ = 0;
};

} // namespace griffin

#endif // GRIFFIN_SCHED_WINDOW_SCHEDULER_HH
