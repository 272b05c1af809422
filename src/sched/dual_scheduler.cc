#include "sched/dual_scheduler.hh"

#include <algorithm>

#include "common/arena.hh"
#include "sched/window_scheduler.hh"
#include "simd/occupancy.hh"

namespace griffin {

namespace {

/**
 * Asynchronous two-level engine for preprocessed dual sparsity.
 *
 * Each PE column owns a BBUF of (1 + da1) compressed entries of its
 * own stream slice and advances it independently — this is the whole
 * point of the dual design's per-PE control (Fig. 3) and what lets the
 * measured speedup compound across both tensors.  Columns are coupled
 * only through the shared ABUF: the raw A steps every column currently
 * references must fit in a (1+da1)(1+db1)-step residency window, whose
 * leading edge streams in at the ASRAM bandwidth.
 *
 * Within a column, idle lanes steal across da2 lanes / da3 rows
 * (cross-column routing was already consumed by stage-1 packing).
 */
DualSchedule
schedulePreprocessed(const TileViewA &a, const RoutingConfig &cfg,
                     const BSchedule &stream, double advance_cap,
                     bool record)
{
    const int k0 = a.lanes();
    const int lanes = stream.lanes();
    const int rows = a.units();
    const int cols = stream.cols();
    const std::int64_t entries = stream.cycles();
    const int bbuf_depth = 1 + cfg.a.d1;
    const std::int64_t abuf_raw_depth =
        static_cast<std::int64_t>(1 + cfg.a.d1) * (1 + cfg.b.d1);

    DualSchedule out;
    out.stage1 = stream.stats();
    if (entries == 0)
        return out;

    Arena &arena = workArena();
    ArenaScope scope(arena);

    // Fig. 3 steps 2-3: zero masks of A filtered by B's metadata — a
    // pair survives only where the stream has an element *and* the
    // matching A operand is nonzero.  Pairs go into one live mask per
    // (entry, column), whole words per column (one for a 4 x 16
    // column), lane-major — bit l * rows + m — so a stream cell's row
    // mask occA[flat k] lands with one shift.  occA[-1] = 0 serves the
    // empty cells (flat k -1).
    const std::int64_t flat_steps = a.steps() * k0;
    auto *occA = arena.alloc<std::uint64_t>(
                     static_cast<std::size_t>(flat_steps + 1)) +
                 1;
    occA[-1] = 0;
    simd::aTileOccupancy(a.matrix(), a.unitBase(), rows, a.steps(), k0,
                         occA);

    const std::int64_t col_slots =
        static_cast<std::int64_t>(rows) * lanes;
    const std::int64_t cw = (col_slots + 63) / 64;
    const std::int64_t nslots = col_slots * cols;
    auto *live = arena.allocZeroed<std::uint64_t>(
        static_cast<std::size_t>(entries * cols * cw));
    auto live_of = [&](std::int64_t e, int j) {
        return live + (e * cols + j) * cw;
    };
    for (std::int64_t e = 0; e < entries; ++e) {
        for (int j = 0; j < cols; ++j) {
            const std::int64_t *slice = stream.flatKLanes(e, j);
            std::uint64_t *mask = live_of(e, j);
            for (int l = 0; l < lanes; ++l) {
                const std::uint64_t row_mask = occA[slice[l]];
                const std::int64_t at = static_cast<std::int64_t>(l) * rows;
                mask[at >> 6] |= row_mask << (at & 63);
                if ((at & 63) + rows > 64) // straddles two words
                    mask[(at >> 6) + 1] |= row_mask >> (64 - (at & 63));
            }
            for (std::int64_t i = 0; i < cw; ++i)
                out.effectualPairs += simd::popcount64(mask[i]);
        }
    }
    if (out.effectualPairs == 0)
        return out;

    // head[j]: the column's oldest entry with a pair left (its BBUF
    // tail); every entry before it is drained.
    auto *head =
        arena.allocZeroed<std::int64_t>(static_cast<std::size_t>(cols));
    auto skip_drained = [&](int j) {
        while (head[j] < entries &&
               std::all_of(live_of(head[j], j), live_of(head[j], j) + cw,
                           [](std::uint64_t x) { return x == 0; }))
            ++head[j];
    };
    for (int j = 0; j < cols; ++j)
        skip_drained(j);

    const std::int64_t max_raw = stream.rawEnd(entries - 1);
    std::int64_t frontier =
        std::min<std::int64_t>(abuf_raw_depth - 1, max_raw);
    double bw_budget = 0.0;

    // Steals scan consumers in ascending m * lanes + l order, so they
    // run on row-major copies of pass 1's masks; lane_bit maps a
    // row-major slot to its lane-major live bit.
    const StealPass steals(SlotGrid{0, lanes, rows, 1}, cfg.a.d2,
                           cfg.a.d3, 0, arena);
    auto *lane_bit =
        arena.alloc<std::int64_t>(static_cast<std::size_t>(col_slots));
    for (std::int64_t s = 0; s < col_slots; ++s)
        lane_bit[s] = s % lanes * rows + s / lanes;
    // ran/elig of ownPass, and their row-major copies.
    auto *ran = arena.alloc<std::uint64_t>(static_cast<std::size_t>(4 * cw));
    std::uint64_t *elig = ran + cw, *ran_rm = ran + 2 * cw;
    std::uint64_t *elig_rm = ran + 3 * cw;
    auto to_row_major = [&](const std::uint64_t *from, std::uint64_t *to) {
        std::fill(to, to + cw, 0);
        for (std::int64_t s = 0; s < col_slots; ++s)
            to[s >> 6] |= (from[lane_bit[s] >> 6] >> (lane_bit[s] & 63) & 1u)
                          << (s & 63);
    };
    // Record mode emits pass-1 ops in slot order from each entry's
    // take words.
    auto *takes = record ? arena.alloc<std::uint64_t>(
                               static_cast<std::size_t>(bbuf_depth * cw))
                         : nullptr;
    auto record_op = [&](std::int64_t e, int j, std::int64_t s,
                         std::int64_t cycle) {
        const int l = static_cast<int>(s % lanes);
        out.ops.push_back({stream.flatK(e, l, j),
                           static_cast<int>(s / lanes),
                           stream.homeCol(e, l, j), cycle});
    };
    const std::int64_t *raw_hi = stream.rawHiData();

    std::int64_t left = out.effectualPairs;
    auto &st = out.stage2;
    while (left > 0) {
        const std::int64_t cycle = st.cycles++;
        std::int64_t consumed_now = 0;

        for (int j = 0; j < cols; ++j) {
            // An entry is executable when it is inside its column's
            // BBUF window and its raw span has streamed into the ABUF.
            const std::int64_t first = head[j];
            const std::int64_t depth =
                std::min<std::int64_t>(bbuf_depth, entries - first);
            auto resident = [&](std::int64_t d) {
                return raw_hi[(first + d) * cols + j] <= frontier;
            };
            std::uint64_t *window_live = live_of(first, j);
            const std::int64_t stride = cols * cw;
            const std::int64_t own = ownPass(window_live, stride, depth, cw,
                                             resident, ran, elig, takes);
            for (std::int64_t s = 0; record && s < col_slots; ++s) {
                const std::int64_t b = lane_bit[s];
                const std::uint64_t bit = std::uint64_t{1} << (b & 63);
                if ((ran[b >> 6] & bit) == 0)
                    continue;
                std::int64_t d = 0;
                while ((takes[d * cw + (b >> 6)] & bit) == 0)
                    ++d;
                record_op(first + d, j, s, cycle);
            }
            // Lane/row stealing within the column.
            std::int64_t stolen = 0;
            if (!steals.empty()) {
                to_row_major(ran, ran_rm);
                to_row_major(elig, elig_rm);
                steals.run(window_live, stride, depth, resident, lane_bit,
                           ran_rm, elig_rm,
                           [&](std::int64_t d, std::int64_t src, std::int64_t) {
                               if (record)
                                   record_op(first + d, j, src, cycle);
                               ++stolen;
                           });
            }
            consumed_now += own + stolen;
            st.ownOps += own;
            st.stolenOps += stolen;
        }
        left -= consumed_now;
        st.ops += consumed_now;
        st.idleSlotCycles += nslots - consumed_now;
        if (left == 0)
            break;

        // Retire drained entries per column, then slide the shared raw
        // window: the tail is the lowest raw step any column's oldest
        // live entry still needs; the frontier streams forward at the
        // ASRAM rate into the remaining ABUF capacity.
        std::int64_t tail = max_raw;
        for (int j = 0; j < cols; ++j) {
            skip_drained(j);
            const auto p = head[j];
            if (p < entries) {
                const auto lo = stream.rawLo(p, j);
                if (lo >= 0)
                    tail = std::min(tail, lo);
            }
        }
        bw_budget += advance_cap;
        bool limited = false;
        while (frontier < max_raw &&
               frontier < tail + abuf_raw_depth - 1) {
            if (bw_budget >= 1.0) {
                bw_budget -= 1.0;
                ++frontier;
            } else {
                limited = true;
                break;
            }
        }
        if (limited)
            ++st.bwLimitedCycles;
        bw_budget = std::min(bw_budget,
                             static_cast<double>(abuf_raw_depth));
    }
    out.cycles = st.cycles;
    return out;
}

DualSchedule
scheduleOnTheFly(const TileViewA &a, const TileViewB &b,
                 const RoutingConfig &cfg, const Shuffler &shuffler,
                 double advance_cap, bool record)
{
    GRIFFIN_ASSERT(a.steps() == b.steps(),
                   "A tile has ", a.steps(), " steps, B tile ",
                   b.steps());
    const SlotGrid grid{a.steps(), a.lanes(), a.units(), b.units()};

    // Pairwise occupancy: a slot gets an element at step k1 exactly
    // when both the A mask (bit m) and the B mask (bit j) are set at
    // that flat k.
    Arena &arena = workArena();
    ArenaScope scope(arena);
    const auto flat = static_cast<std::size_t>(grid.steps * grid.lanes);
    auto *occA = arena.alloc<std::uint64_t>(flat);
    auto *occB = arena.alloc<std::uint64_t>(flat);
    simd::aTileOccupancy(a.matrix(), a.unitBase(), grid.rows,
                         grid.steps, grid.lanes, occA);
    simd::bTileOccupancy(b.matrix(), b.unitBase(), grid.cols,
                         grid.steps, grid.lanes, occB);
    const SlotQueues queues = tileQueues(grid, occA, occB, shuffler, arena);

    DualSchedule out;
    out.effectualPairs = queues.totalElements();

    BorrowWindow window;
    window.steps = 1 + std::min(cfg.a.d1, cfg.b.d1);
    window.laneDist = cfg.a.d2 + cfg.b.d2;
    window.rowDist = cfg.a.d3;
    window.colDist = cfg.b.d3;
    window.advanceCap =
        std::min(advance_cap, static_cast<double>(window.steps));
    window.budgetCeiling = window.steps;

    auto result = runWindowSchedule(queues, window, record);
    out.cycles = result.stats.cycles;
    out.stage2 = result.stats;
    if (record) {
        out.ops.reserve(result.ops.size());
        for (const auto &op : result.ops) {
            const int orig_k2 = shuffler.invert(op.step, op.lane);
            out.ops.push_back({op.step * grid.lanes + orig_k2, op.row,
                               op.col, op.cycle});
        }
    }
    return out;
}

} // namespace

DualSchedule
scheduleDual(const TileViewA &a, const TileViewB &b,
             const RoutingConfig &cfg, const Shuffler &shuffler,
             const BSchedule *b_stream, double advance_cap, bool record)
{
    GRIFFIN_ASSERT(cfg.mode == SparsityMode::AB,
                   "scheduleDual needs a Sparse.AB config, got ",
                   cfg.str());
    GRIFFIN_ASSERT(advance_cap > 0.0, "non-positive advance cap");
    if (cfg.preprocessB) {
        GRIFFIN_ASSERT(b_stream != nullptr,
                       "preprocessed dual scheduling needs the B "
                       "stream");
        return schedulePreprocessed(a, cfg, *b_stream, advance_cap,
                                    record);
    }
    return scheduleOnTheFly(a, b, cfg, shuffler, advance_cap, record);
}

} // namespace griffin
