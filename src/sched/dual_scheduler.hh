/**
 * @file
 * Dual-sparse scheduling (paper Section IV-A, Fig. 3).
 *
 * Two flavours:
 *
 *  - Preprocessed (Griffin-style): stage 1 packs B offline into its
 *    compressed stream (sched/b_preprocess.hh); stage 2 runs the
 *    7-step pipeline of Fig. 3 at runtime — zero masks of A are
 *    filtered by B's metadata and surviving pairs are window-scheduled
 *    over *compressed* cycles with the (da1,da2,da3) window.  The
 *    filter is a word AND: a (stream entry, PE column) live mask is
 *    A's queue word at each window step AND the column's take field
 *    for that step, repeated across the column's rows, plus the
 *    stream's stolen cells.  Each PE column's BBUF window is its
 *    1 + da1 oldest entries with a pair left, drained in place in
 *    those masks.  Every cycle, one loop over the columns runs pass 1
 *    on each window (an entry runs only once its raw span is resident
 *    in the ABUF), then that column's steals and record-mode ops, then
 *    moves its head past the drained entries.  The effective
 *    lookahead compounds: ABUF spans (1+da1)(1+db1) raw steps.
 *
 *  - On-the-fly (TensorDash-style): both operands are matched at
 *    runtime in one pass over raw steps; lookahead is limited by the
 *    shallower of the two raw buffers.  The pairwise queues are A's
 *    row fields AND B's column fields (pairQueues).
 *
 * Both engines read the tiles' single-side queues, which depend only
 * on the operands, the tile and the shuffle.  So the simulator takes
 * them from the workset's QueueMemo (sched/window_scheduler.hh): a row
 * tile's A queues are built once, not once per (row tile, column
 * tile) pair or per design point.  The tile-view overload builds them
 * itself.
 *
 * The A stream is dense in both cases, so stage 2's window advance is
 * charged per *raw* A step against the ASRAM bandwidth budget.
 */

#ifndef GRIFFIN_SCHED_DUAL_SCHEDULER_HH
#define GRIFFIN_SCHED_DUAL_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "arch/routing.hh"
#include "sched/b_preprocess.hh"
#include "sched/schedule.hh"
#include "tensor/shuffle.hh"
#include "tensor/tile.hh"

namespace griffin {

/**
 * One executed effectual pair: A[rowBase+m][k] x B[k][colBase+homeCol]
 * accumulating into C[rowBase+m][colBase+homeCol].
 */
struct DualOp
{
    std::int64_t flatK; ///< original k index of the pair
    int m;              ///< A-side row within the tile
    int homeCol;        ///< B-side home column within the tile
    std::int64_t cycle;
};

/** Result of scheduling one (A-row-tile x B-col-tile) pair. */
struct DualSchedule
{
    std::int64_t cycles = 0;   ///< runtime cycles of the tile
    ScheduleStats stage1;      ///< offline B packing stats
    ScheduleStats stage2;      ///< runtime pair-matching stats
    /** Pairs with A and B both nonzero.  Every one runs exactly once,
     *  so this is stage2.ops, the ops executed. */
    std::int64_t effectualPairs = 0;
    std::vector<DualOp> ops;   ///< recorded when asked
};

/**
 * Schedule one tile pair under a dual-sparse routing config
 * (cfg.mode must be Sparse.AB), given the pair's single-side queues
 * under `shuffler` (tileQueues of the A tile and of the B tile).
 *
 * @param a_queue    the A tile's queues
 * @param b_queue    the B tile's queues: needed by on-the-fly configs,
 *                   which AND them with A's into pairwise queues;
 *                   ignored (may be null) for preprocessed ones
 * @param b_stream   preprocessed B stream for this column tile, packed
 *                   under `shuffler`: needed by preprocessed configs,
 *                   ignored (may be null) for on-the-fly ones —
 *                   callers build it once per column tile and reuse it
 *                   across every row tile
 * @param advance_cap ASRAM bandwidth in raw A steps per cycle
 */
DualSchedule scheduleDual(const SlotQueues &a_queue,
                          const SlotQueues *b_queue,
                          const RoutingConfig &cfg,
                          const Shuffler &shuffler,
                          const BSchedule *b_stream, double advance_cap,
                          bool record);

/**
 * scheduleDual over the tiles' queues, built here: under the stream's
 * shuffle for preprocessed configs, under `shuffler` otherwise.
 */
DualSchedule scheduleDual(const TileViewA &a, const TileViewB &b,
                          const RoutingConfig &cfg,
                          const Shuffler &shuffler,
                          const BSchedule *b_stream, double advance_cap,
                          bool record);

} // namespace griffin

#endif // GRIFFIN_SCHED_DUAL_SCHEDULER_HH
