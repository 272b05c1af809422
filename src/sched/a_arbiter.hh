/**
 * @file
 * On-the-fly zero skipping in the activation matrix A (paper
 * Fig. 2(c,d)).
 *
 * A is produced at runtime, so zeros cannot be removed offline: an
 * arbiter per PE row inspects the ABUF window each cycle, picks
 * nonzero operands, and drives the BMUXes that fetch the matching B
 * elements.  Timing-wise this is the same window schedule as the B
 * preprocessor, but the window advance is bounded by the ASRAM
 * bandwidth (`advance_cap` steps per cycle).
 */

#ifndef GRIFFIN_SCHED_A_ARBITER_HH
#define GRIFFIN_SCHED_A_ARBITER_HH

#include "arch/routing.hh"
#include "sched/schedule.hh"
#include "tensor/shuffle.hh"
#include "tensor/tile.hh"

namespace griffin {

/**
 * Schedule one A tile under the (da1,da2,da3) borrow window, given the
 * tile's queues (tileQueues of the A tile under the shuffle).
 *
 * The result's op list (when recorded) identifies elements by their
 * post-shuffle lane; use the shuffler to recover original k indices.
 *
 * @param advance_cap ASRAM bandwidth in A steps per cycle
 * @param record      keep per-op routing for verification
 */
ScheduleResult scheduleA(const SlotQueues &queues, const Borrow &da,
                         double advance_cap, bool record);

/** scheduleA over the tile's queues, built here under `shuffler`. */
ScheduleResult scheduleA(const TileViewA &a, const Borrow &da,
                         const Shuffler &shuffler, double advance_cap,
                         bool record);

} // namespace griffin

#endif // GRIFFIN_SCHED_A_ARBITER_HH
