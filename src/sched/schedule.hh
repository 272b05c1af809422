/**
 * @file
 * Types shared by the scheduling engines.
 *
 * A schedule runs over a *slot grid*: one slot per (lane, row, col)
 * position of the datapath, each cycle executing at most one effectual
 * element drawn from a sliding window of temporal steps.  The borrow
 * window (arch/routing.hh, WindowParams) bounds how far an element may
 * be pulled across each axis.
 */

#ifndef GRIFFIN_SCHED_SCHEDULE_HH
#define GRIFFIN_SCHED_SCHEDULE_HH

#include <cstdint>
#include <vector>

#include "common/arena.hh"
#include "common/logging.hh"
#include "simd/occupancy.hh"

namespace griffin {

/**
 * Slot-grid geometry.  Single-sparse B schedules use rows = 1 and
 * cols = N0; single-sparse A schedules use rows = M0 and cols = 1;
 * dual schedules use the full M0 x N0 PE grid.
 */
struct SlotGrid
{
    std::int64_t steps = 0; ///< temporal extent (k1 steps or
                            ///< compressed cycles for dual stage 2)
    int lanes = 1;          ///< K0 dot-product lanes
    int rows = 1;           ///< A-side third axis extent
    int cols = 1;           ///< B-side third axis extent

    std::int64_t slots() const
    {
        return static_cast<std::int64_t>(lanes) * rows * cols;
    }

    std::int64_t
    slotIndex(int lane, int row, int col) const
    {
        GRIFFIN_ASSERT(lane >= 0 && lane < lanes && row >= 0 &&
                       row < rows && col >= 0 && col < cols,
                       "slot (", lane, ",", row, ",", col,
                       ") outside grid ", lanes, "x", rows, "x", cols);
        return (static_cast<std::int64_t>(col) * rows + row) * lanes +
               lane;
    }
};

/**
 * Borrow window of one scheduling pass.
 *
 * advanceCap models SRAM bandwidth: how many step-costs of new operand
 * data can stream into the buffers per cycle (baseline = 1).
 * budgetCeiling is the buffer capacity in the same units — prefetch
 * cannot run further ahead than the window can hold.
 */
struct BorrowWindow
{
    int steps = 1;      ///< resident temporal steps (1 + d1)
    int laneDist = 0;   ///< lookaside reach across lanes
    int rowDist = 0;    ///< cross-PE reach across rows (A side)
    int colDist = 0;    ///< cross-PE reach across columns (B side)
    double advanceCap = 1.0;
    double budgetCeiling = 1.0;
};

/**
 * One executed operation: which element (identified by its original
 * grid position) ran on which consumer slot at which cycle.  Recorded
 * only when verification asks for it.
 */
struct ScheduledOp
{
    std::int64_t step;
    int lane;
    int row;
    int col;
    int consumerLane;
    int consumerRow;
    int consumerCol;
    std::int64_t cycle;
};

/** One steal: the head of slot `src` at `step` ran on slot
 *  `consumer`. */
struct StolenOp
{
    std::int64_t step, src, consumer;
};

/** Aggregate counters of one scheduling pass. */
struct ScheduleStats
{
    std::int64_t cycles = 0;      ///< schedule length
    std::int64_t ops = 0;         ///< effectual elements executed
    std::int64_t ownOps = 0;      ///< executed in their home slot
    std::int64_t stolenOps = 0;   ///< executed via borrowing
    std::int64_t idleSlotCycles = 0; ///< slot-cycles with no work
    std::int64_t bwLimitedCycles = 0; ///< cycles where the bandwidth
                                      ///< budget capped the advance
};

/** Full result of one scheduling pass. */
struct ScheduleResult
{
    ScheduleStats stats;
    std::vector<ScheduledOp> ops; ///< empty unless recording enabled
};

/**
 * Per-slot FIFO queues of effectual element steps, stored as
 * steps x wordsPerStep() words: bit s of step t is set iff slot s has
 * an element at step t.  A slot's head is its lowest step whose bit is
 * still set, so the engines pick operands from per-step occupancy words
 * like the hardware's priority encoders pick them from zero masks.
 */
class SlotQueues
{
  public:
    /** Empty queues owning their storage. */
    explicit SlotQueues(const SlotGrid &grid)
        : grid_(grid), words_((grid.slots() + 63) / 64),
          own_(static_cast<std::size_t>(grid.steps * words_), 0),
          bits_(own_.data())
    {
    }

    /** Empty queues in `arena` memory: the hot path's per-tile queues,
     *  valid while the arena's current scope lasts. */
    SlotQueues(const SlotGrid &grid, Arena &arena)
        : grid_(grid), words_((grid.slots() + 63) / 64),
          bits_(arena.allocZeroed<std::uint64_t>(
              static_cast<std::size_t>(grid.steps * words_)))
    {
    }

    SlotQueues(SlotQueues &&) = default;
    SlotQueues(const SlotQueues &) = delete;
    SlotQueues &operator=(const SlotQueues &) = delete;

    const SlotGrid &grid() const { return grid_; }

    std::int64_t wordsPerStep() const { return words_; }

    /** Append one element, validated: per slot, steps must increase
     *  (the hardware's priority encoders scan in stream order). */
    void
    push(std::int64_t step, int lane, int row, int col)
    {
        GRIFFIN_ASSERT(step >= 0 && step < grid_.steps,
                       "step ", step, " outside grid of ", grid_.steps);
        const std::int64_t s = grid_.slotIndex(lane, row, col);
        for (std::int64_t t = step; t < grid_.steps; ++t)
            GRIFFIN_ASSERT((stepWords(t)[s >> 6] >> (s & 63) & 1u) == 0,
                           "elements must be pushed in increasing step "
                           "order per slot");
        stepWords(step)[s >> 6] |= std::uint64_t{1} << (s & 63);
    }

    /** Slot words of one step; builders OR element bits in directly. */
    std::uint64_t *
    stepWords(std::int64_t step)
    {
        return bits_ + step * words_;
    }

    const std::uint64_t *
    stepWords(std::int64_t step) const
    {
        return bits_ + step * words_;
    }

    std::int64_t
    totalElements() const
    {
        std::int64_t n = 0;
        for (std::int64_t i = 0; i < grid_.steps * words_; ++i)
            n += simd::popcount64(bits_[i]);
        return n;
    }

  private:
    SlotGrid grid_;
    std::int64_t words_;
    std::vector<std::uint64_t> own_;
    std::uint64_t *bits_;
};

} // namespace griffin

#endif // GRIFFIN_SCHED_SCHEDULE_HH
