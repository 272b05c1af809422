/**
 * @file
 * Tests for the generic sliding-window scheduler: cycle accounting,
 * borrowing semantics, bandwidth capping, the paper's speedup bounds,
 * and pass 1's readiness contract, which the dual engine relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "sched/window_scheduler.hh"

namespace griffin {
namespace {

/** Dense queues: every slot has an element at every step. */
SlotQueues
denseQueues(const SlotGrid &grid)
{
    SlotQueues q(grid);
    for (std::int64_t s = 0; s < grid.steps; ++s)
        for (int c = 0; c < grid.cols; ++c)
            for (int r = 0; r < grid.rows; ++r)
                for (int l = 0; l < grid.lanes; ++l)
                    q.push(s, l, r, c);
    return q;
}

BorrowWindow
window(int steps, int lane = 0, int row = 0, int col = 0)
{
    BorrowWindow w;
    w.steps = steps;
    w.laneDist = lane;
    w.rowDist = row;
    w.colDist = col;
    w.advanceCap = steps;
    w.budgetCeiling = steps;
    return w;
}

TEST(WindowScheduler, DenseTakesOneCyclePerStep)
{
    SlotGrid grid{10, 4, 1, 2};
    auto result = runWindowSchedule(denseQueues(grid), window(1), false);
    EXPECT_EQ(result.stats.cycles, 10);
    EXPECT_EQ(result.stats.ops, 10 * 4 * 2);
    EXPECT_EQ(result.stats.stolenOps, 0);
    EXPECT_EQ(result.stats.idleSlotCycles, 0);
}

TEST(WindowScheduler, DenseGainsNothingFromDeepWindow)
{
    // With every slot loaded at every step, no window depth helps.
    SlotGrid grid{10, 4, 1, 1};
    auto result =
        runWindowSchedule(denseQueues(grid), window(5, 2), false);
    EXPECT_EQ(result.stats.cycles, 10);
}

TEST(WindowScheduler, EmptyQueuesFinishInstantly)
{
    SlotGrid grid{10, 4, 1, 1};
    SlotQueues q(grid);
    auto result = runWindowSchedule(q, window(2), false);
    EXPECT_EQ(result.stats.cycles, 0);
    EXPECT_EQ(result.stats.ops, 0);
}

TEST(WindowScheduler, TimeBorrowCompressesSingleLane)
{
    // One lane, elements at even steps only (50% sparse): window of 2
    // lets each cycle take one element while the window slides 2.
    SlotGrid grid{20, 1, 1, 1};
    SlotQueues q(grid);
    for (std::int64_t s = 0; s < 20; s += 2)
        q.push(s, 0, 0, 0);
    auto dense_like = runWindowSchedule(q, window(1), false);
    // W = 1: the window must walk every step.
    EXPECT_EQ(dense_like.stats.cycles, 19); // last element is at step 18
    auto compressed = runWindowSchedule(q, window(2), false);
    EXPECT_EQ(compressed.stats.cycles, 10); // 10 elements, 1 per cycle
}

TEST(WindowScheduler, IdealSpeedupIsWindowDepth)
{
    // A fully empty stretch can be skipped at most W steps per cycle
    // (paper observation VI-A(1): max speedup = 1 + d1).
    SlotGrid grid{100, 1, 1, 1};
    SlotQueues q(grid);
    q.push(99, 0, 0, 0); // single element at the end
    for (int w = 1; w <= 5; ++w) {
        auto result = runWindowSchedule(q, window(w), false);
        // Window must advance from 0 to at least 99-(w-1), at w/cycle,
        // then one consuming cycle.
        const std::int64_t expect =
            (99 - (w - 1) + w - 1) / w + 1;
        EXPECT_EQ(result.stats.cycles, expect) << "W=" << w;
    }
}

TEST(WindowScheduler, LaneStealingBalancesLoad)
{
    // Lane 1 has 10 elements, lane 0 none.  Without lookaside the
    // window drags behind lane 1; with laneDist = 1 the idle lane 0
    // can steal forward (source = consumer + Δ).
    SlotGrid grid{10, 2, 1, 1};
    SlotQueues q(grid);
    for (std::int64_t s = 0; s < 10; ++s)
        q.push(s, 1, 0, 0);
    auto alone = runWindowSchedule(q, window(4, 0), false);
    EXPECT_EQ(alone.stats.cycles, 10); // one per cycle from lane 1
    auto helped = runWindowSchedule(q, window(4, 1), false);
    EXPECT_EQ(helped.stats.cycles, 5); // two per cycle
    EXPECT_EQ(helped.stats.stolenOps, 5);
}

TEST(WindowScheduler, StealingIsForwardOnly)
{
    // Loaded lane 1 cannot be helped by lane 0 if laneDist reaches the
    // wrong way?  No: distances are forward (Δ >= 0), so lane 0 *can*
    // steal from lane 1 (source = consumer + Δ).  The loaded lane
    // must be *ahead* of the idle one.
    SlotGrid grid{10, 2, 1, 1};
    SlotQueues q(grid);
    for (std::int64_t s = 0; s < 10; ++s)
        q.push(s, 1, 0, 0); // all work in lane 1
    auto result = runWindowSchedule(q, window(4, 1), false);
    EXPECT_EQ(result.stats.cycles, 5); // lane 0 steals lane 1's work
    // And the reverse: work in lane 0 cannot be reached by lane 1,
    // whose forward window (lane 1 + Δ) points outside the loaded
    // lane.  Only lane 0 drains its own queue.
    SlotQueues q2(grid);
    for (std::int64_t s = 0; s < 10; ++s)
        q2.push(s, 0, 0, 0);
    auto fwd = runWindowSchedule(q2, window(4, 1), false);
    EXPECT_EQ(fwd.stats.cycles, 10);
    EXPECT_EQ(fwd.stats.stolenOps, 0);
}

TEST(WindowScheduler, RowAndColumnStealing)
{
    // Borrowing is forward-only, so work parked in (row 1, col 1) is
    // reachable by consumers at lower coordinates.
    SlotGrid grid{8, 1, 2, 2};
    SlotQueues q2(grid);
    for (std::int64_t s = 0; s < 8; ++s)
        q2.push(s, 0, 1, 1);
    auto no_reach = runWindowSchedule(q2, window(4), false);
    EXPECT_EQ(no_reach.stats.cycles, 8);
    // rowDist = 1: slot (row 0, col 1) now also reaches (1,1).
    auto row_reach = runWindowSchedule(q2, window(4, 0, 1, 0), false);
    EXPECT_EQ(row_reach.stats.cycles, 4);
    // rowDist = colDist = 1: (0,0), (0,1), (1,0) and the owner all
    // drain heads of the same deep queue in one cycle (the window
    // exposes four eligible elements at once).
    auto both_reach = runWindowSchedule(q2, window(4, 0, 1, 1), false);
    EXPECT_EQ(both_reach.stats.cycles, 2);
}

TEST(WindowScheduler, BandwidthCapThrottlesSkipping)
{
    // 100 empty steps before the lone element; window 10 but only 1
    // step/cycle of bandwidth -> ~100 cycles to stream past.
    SlotGrid grid{101, 1, 1, 1};
    SlotQueues q(grid);
    q.push(100, 0, 0, 0);
    auto w = window(10);
    w.advanceCap = 1.0;
    w.budgetCeiling = 10.0;
    auto result = runWindowSchedule(q, w, false);
    EXPECT_GE(result.stats.cycles, 92); // 10 prefilled, 1/cycle after
    EXPECT_LE(result.stats.cycles, 101);
    EXPECT_GT(result.stats.bwLimitedCycles, 0);
}

TEST(WindowScheduler, FractionalBandwidthAccumulates)
{
    SlotGrid grid{11, 1, 1, 1};
    SlotQueues q(grid);
    q.push(10, 0, 0, 0);
    auto w = window(2);
    w.advanceCap = 0.5; // one step every two cycles
    w.budgetCeiling = 2.0;
    auto result = runWindowSchedule(q, w, false);
    // 10 steps to cover at 0.5/cycle with 2 prefilled: ~16+ cycles.
    EXPECT_GE(result.stats.cycles, 16);
    EXPECT_LE(result.stats.cycles, 21);
}

TEST(WindowScheduler, RecordsOpsExactlyWhenAsked)
{
    SlotGrid grid{4, 2, 1, 1};
    auto q = denseQueues(grid);
    auto without = runWindowSchedule(q, window(2, 1), false);
    EXPECT_TRUE(without.ops.empty());
    auto with = runWindowSchedule(q, window(2, 1), true);
    EXPECT_EQ(static_cast<std::int64_t>(with.ops.size()),
              with.stats.ops);
    EXPECT_EQ(with.stats.ops, 8);
}

TEST(WindowScheduler, OwnPlusStolenEqualsTotal)
{
    SlotGrid grid{30, 4, 2, 2};
    SlotQueues q(grid);
    // Staggered load: lane l gets elements where (s + l) % 3 == 0.
    for (std::int64_t s = 0; s < 30; ++s)
        for (int c = 0; c < 2; ++c)
            for (int r = 0; r < 2; ++r)
                for (int l = 0; l < 4; ++l)
                    if ((s + l) % 3 == 0)
                        q.push(s, l, r, c);
    auto result = runWindowSchedule(q, window(3, 1, 1, 1), false);
    EXPECT_EQ(result.stats.ownOps + result.stats.stolenOps,
              result.stats.ops);
    EXPECT_EQ(result.stats.ops, q.totalElements());
}

TEST(OwnPass, UnreadyHeadHidesLaterEntriesAndIsNoStealSource)
{
    // Three window entries over one word, entry 0 not ready.  Slots 0
    // and 2 have their head at entry 0, so their entries 1 and 2 stay
    // put; slots 1, 3 and 4 run their head at entry 1 or 2, and slot 3
    // keeps a ready entry behind it, so it alone is a steal source.
    std::uint64_t live[3] = {0b00101, 0b01011, 0b11100};
    std::uint64_t ran = 0, elig = 0, takes[3] = {};
    auto entry0_waits = [](std::int64_t d) { return d != 0; };
    EXPECT_EQ(ownPass(live, 1, 3, 1, entry0_waits, &ran, &elig, takes), 3);
    EXPECT_EQ(ran, 0b11010u);
    EXPECT_EQ(takes[0], 0u);
    EXPECT_EQ(takes[1], 0b01010u);
    EXPECT_EQ(takes[2], 0b10000u);
    EXPECT_EQ(live[0], 0b00101u);
    EXPECT_EQ(live[1], 0b00001u);
    EXPECT_EQ(live[2], 0b01100u);
    EXPECT_EQ(elig, 0b01000u);

    // Entry 1 not ready: slot 0 runs entry 0, and its next head waits
    // at entry 1, so its ready entry 2 is no steal source either.
    std::uint64_t chain[3] = {0b1, 0b1, 0b1};
    auto entry1_waits = [](std::int64_t d) { return d != 1; };
    EXPECT_EQ(ownPass(chain, 1, 3, 1, entry1_waits, &ran, &elig, takes), 1);
    EXPECT_EQ(ran, 0b1u);
    EXPECT_EQ(elig, 0u);

    // The steal pass takes nothing from a slot whose head waits: lane
    // 0 is idle and may borrow from lane 1, whose head is at entry 0.
    std::uint64_t lanes[2] = {0b10, 0b10};
    Arena arena;
    const StealPass steals(SlotGrid{0, 2, 1, 1}, 1, 0, 0, arena);
    ASSERT_FALSE(steals.empty());
    EXPECT_EQ(ownPass(lanes, 1, 2, 1, entry0_waits, &ran, &elig, takes), 0);
    std::int64_t stolen = 0;
    steals.run(lanes, 1, 2, entry0_waits, &ran, &elig,
               [&](std::int64_t, std::int64_t, std::int64_t) { ++stolen; });
    EXPECT_EQ(stolen, 0);
    EXPECT_EQ(lanes[0], 0b10u);
    EXPECT_EQ(lanes[1], 0b10u);
}

TEST(OwnPass, ReadyEverywhereReplaysTheWindowEngine)
{
    // Random queues over two slot words, window 3, no steals: pass 1
    // with every entry ready, replayed on the engine's window bases,
    // picks exactly the engine's take words and drains every queue.
    const SlotGrid grid{40, 8, 3, 4};
    SlotQueues q(grid);
    Rng rng(11);
    for (std::int64_t s = 0; s < grid.steps; ++s)
        for (int c = 0; c < grid.cols; ++c)
            for (int r = 0; r < grid.rows; ++r)
                for (int l = 0; l < grid.lanes; ++l)
                    if (rng.bernoulli(0.4))
                        q.push(s, l, r, c);
    const std::int64_t words = q.wordsPerStep();
    ASSERT_EQ(words, 2);
    struct Picks
    {
        std::int64_t base, depth;
        std::vector<std::uint64_t> takes;
    };
    std::vector<Picks> cycles;
    const ScheduleStats stats = runWindowSchedule(
        q, window(3), [&](const WindowCycle &c) {
            cycles.push_back(
                {c.base, c.depth, {c.takes, c.takes + c.depth * c.words}});
        });
    ASSERT_EQ(static_cast<std::int64_t>(cycles.size()), stats.cycles);

    std::vector<std::uint64_t> live(q.stepWords(0),
                                    q.stepWords(0) + grid.steps * words);
    std::vector<std::uint64_t> ran(words), takes(3 * words);
    auto always = [](std::int64_t) { return true; };
    std::int64_t ops = 0;
    for (const Picks &c : cycles) {
        ops += ownPass(live.data() + c.base * words, words, c.depth, words,
                       always, ran.data(), nullptr, takes.data());
        EXPECT_TRUE(std::equal(c.takes.begin(), c.takes.end(), takes.begin()))
            << "cycle at base " << c.base;
    }
    EXPECT_EQ(ops, stats.ops);
    EXPECT_TRUE(std::all_of(live.begin(), live.end(),
                            [](std::uint64_t x) { return x == 0; }));
}

TEST(WindowSchedulerDeathTest, InvalidParametersPanic)
{
    SlotGrid grid{4, 1, 1, 1};
    SlotQueues q(grid);
    q.push(0, 0, 0, 0);
    BorrowWindow w;
    w.steps = 0;
    EXPECT_DEATH(runWindowSchedule(q, w, false), "window of 0");
    w = window(2);
    w.advanceCap = 0.0;
    EXPECT_DEATH(runWindowSchedule(q, w, false), "advance cap");
}

TEST(WindowSchedulerDeathTest, QueuePushValidation)
{
    SlotGrid grid{4, 2, 1, 1};
    SlotQueues q(grid);
    EXPECT_DEATH(q.push(4, 0, 0, 0), "outside grid");
    EXPECT_DEATH(q.push(0, 2, 0, 0), "outside grid");
    q.push(2, 0, 0, 0);
    EXPECT_DEATH(q.push(1, 0, 0, 0), "increasing step order");
}

} // namespace
} // namespace griffin
