#include "sched/a_arbiter.hh"

#include <algorithm>

#include "common/arena.hh"
#include "sched/window_scheduler.hh"

namespace griffin {

ScheduleResult
scheduleA(const SlotQueues &queues, const Borrow &da, double advance_cap,
          bool record)
{
    GRIFFIN_ASSERT(advance_cap > 0.0, "non-positive advance cap");
    BorrowWindow window;
    window.steps = 1 + da.d1;
    window.laneDist = da.d2;
    window.rowDist = da.d3;
    window.colDist = 0;
    window.advanceCap = std::min<double>(advance_cap, window.steps);
    window.budgetCeiling = window.steps;

    return runWindowSchedule(queues, window, record);
}

ScheduleResult
scheduleA(const TileViewA &a, const Borrow &da, const Shuffler &shuffler,
          double advance_cap, bool record)
{
    // Slot m * lanes + post-shuffle lane: one word per step for the
    // default 4 x 16 tile.
    Arena &arena = workArena();
    ArenaScope scope(arena);
    return scheduleA(tileQueues(a, shuffler, arena), da, advance_cap,
                     record);
}

} // namespace griffin
