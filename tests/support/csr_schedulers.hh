/**
 * @file
 * Reference schedulers for the exact-equivalence oracle
 * (tests/test_schedule_oracle.cc).
 *
 * These are the CSR-queue engines the library ran before its slot
 * queues became per-step bitsets: every builder copies its occupancy
 * masks into an int64 CSR (count / prefix sum / fill) and the cycle
 * loops consume one queue head at a time.  They are slow and simple,
 * and they are test-only: nothing in libgriffin links them.  The
 * oracle holds the bitset engines to their every statistic, recorded
 * op and stream cell.
 */

#ifndef GRIFFIN_TESTS_SUPPORT_CSR_SCHEDULERS_HH
#define GRIFFIN_TESTS_SUPPORT_CSR_SCHEDULERS_HH

#include <cstdint>
#include <vector>

#include "arch/routing.hh"
#include "sched/b_preprocess.hh"
#include "sched/dual_scheduler.hh"
#include "sched/schedule.hh"
#include "tensor/shuffle.hh"
#include "tensor/tile.hh"

namespace griffin {
namespace csr {

/**
 * CSR view of per-slot element queues: slot s owns
 * values[offsets[s] .. offsets[s+1]), ascending.
 */
struct SlotQueueSpans
{
    SlotGrid grid;
    const std::int64_t *offsets = nullptr; ///< grid.slots() + 1 entries
    const std::int64_t *values = nullptr;  ///< offsets[grid.slots()]

    std::int64_t
    totalElements() const
    {
        return offsets[static_cast<std::size_t>(grid.slots())];
    }
};

/** The generic window engine over CSR queues. */
ScheduleResult runWindowSchedule(const SlotQueueSpans &queues,
                                 const BorrowWindow &window,
                                 bool record);

/** A packed B stream, cell for cell (see BSchedule). */
struct BStream
{
    std::int64_t cycles = 0;
    int lanes = 0;
    int cols = 0;
    std::int64_t elems = 0;
    ScheduleStats stats;
    std::vector<std::int64_t> flatk;   ///< (cycle, col, lane) cells
    std::vector<std::int16_t> homecol; ///< same layout as flatk
    std::vector<std::int64_t> rawEnd;  ///< per cycle, cumulative
    std::vector<std::int64_t> rawLo;   ///< (cycle, col)
    std::vector<std::int64_t> rawHi;   ///< (cycle, col)
    std::vector<ScheduledOp> ops;      ///< when recorded
};

BStream preprocessB(const TileViewB &b, const Borrow &db,
                    const Shuffler &shuffler, bool record);

ScheduleResult scheduleA(const TileViewA &a, const Borrow &da,
                         const Shuffler &shuffler, double advance_cap,
                         bool record);

/** scheduleDual's CSR form; `b_stream` as there. */
DualSchedule scheduleDual(const TileViewA &a, const TileViewB &b,
                          const RoutingConfig &cfg,
                          const Shuffler &shuffler,
                          const BSchedule *b_stream, double advance_cap,
                          bool record);

} // namespace csr
} // namespace griffin

#endif // GRIFFIN_TESTS_SUPPORT_CSR_SCHEDULERS_HH
