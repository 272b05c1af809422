#include "sched/dual_scheduler.hh"

#include <algorithm>

#include "common/arena.hh"
#include "sched/window_scheduler.hh"
#include "simd/occupancy.hh"

namespace griffin {

namespace {

/**
 * A lanes-wide field t repeated across the rows of a row-major bit
 * vector (bit m * lanes + l), one 64-bit word at a time: word i is
 * t * times_[i] — a shifted copy per row field starting in word i,
 * which never overlap, so the product carries nothing — OR'd with
 * the top of a row field that starts in word i - 1 and straddles into
 * word i, (t >> carry_[i]) & carryMask_[i].
 */
class RowRepeat
{
  public:
    RowRepeat(int rows, int lanes, std::int64_t words, Arena &arena)
        : times_(arena.allocZeroed<std::uint64_t>(
              static_cast<std::size_t>(words))),
          carry_(arena.allocZeroed<int>(static_cast<std::size_t>(words))),
          carryMask_(arena.allocZeroed<std::uint64_t>(
              static_cast<std::size_t>(words)))
    {
        for (std::int64_t at = 0; at < std::int64_t{rows} * lanes;
             at += lanes) {
            const int r = static_cast<int>(at & 63);
            times_[at >> 6] |= std::uint64_t{1} << r;
            if (r + lanes > 64) {
                carry_[(at >> 6) + 1] = 64 - r;
                carryMask_[(at >> 6) + 1] = ~std::uint64_t{0};
            }
        }
    }

    std::uint64_t
    operator()(std::int64_t i, std::uint64_t t) const
    {
        return t * times_[i] | (t >> carry_[i] & carryMask_[i]);
    }

  private:
    std::uint64_t *times_;
    int *carry_;
    std::uint64_t *carryMask_;
};

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
    const int lanes = stream.lanes();
    const int rows = a.units();
    const int cols = stream.cols();
    const std::int64_t entries = stream.cycles();
    const int bbuf_depth = 1 + cfg.a.d1;
    const std::int64_t abuf_raw_depth =
        static_cast<std::int64_t>(1 + cfg.a.d1) * (1 + cfg.b.d1);
    GRIFFIN_ASSERT(a.steps() == stream.steps() && a.lanes() == lanes,
                   "A tile of ", a.steps(), " x ", a.lanes(),
                   " steps x lanes, B stream of ", stream.steps(), " x ",
                   lanes);

    DualSchedule out;
    out.stage1 = stream.stats();
    if (entries == 0)
        return out;

    Arena &arena = workArena();
    ArenaScope scope(arena);

    // Fig. 3 steps 2-3: zero masks of A filtered by B's metadata — a
    // pair survives only where the stream has an element *and* the
    // matching A operand is nonzero.  A's queue under the stream's
    // shuffle holds, at step k1, bit m * lanes + l for A's element in
    // row m at post-shuffle lane l — the lane the stream's take words
    // use.  So one (entry, column) live mask, row-major over the
    // column's rows x lanes slots, is the OR over the entry's window
    // steps of A's queue word AND the column's take field repeated
    // across rows, plus one bit per row for each stolen cell (A's bit
    // at the source lane, set at the consumer lane).
    const SlotQueues a_queue =
        tileQueues(&a, nullptr, stream.shuffler(), arena);
    const std::int64_t cw = a_queue.wordsPerStep();
    const std::int64_t tw = stream.takeWords();
    const std::int64_t nslots = static_cast<std::int64_t>(rows) * lanes * cols;
    auto *live = arena.allocZeroed<std::uint64_t>(
        static_cast<std::size_t>(entries * cols * cw));
    auto live_of = [&](std::int64_t e, int j) {
        return live + (e * cols + j) * cw;
    };
    const RowRepeat repeat(rows, lanes, cw, arena);
    for (std::int64_t e = 0; e < entries; ++e) {
        const std::uint64_t *take_rows = stream.takes(e);
        const std::uint64_t *a_words = a_queue.stepWords(stream.base(e));
        const std::int64_t depth = stream.depth(e);
        for (int j = 0; j < cols; ++j) {
            std::uint64_t *mask = live_of(e, j);
            for (std::int64_t d = 0; d < depth; ++d) {
                const std::uint64_t take = simd::readField(
                    take_rows + d * tw, std::int64_t{j} * lanes, lanes);
                for (std::int64_t i = 0; i < cw; ++i)
                    mask[i] |= a_words[d * cw + i] & repeat(i, take);
            }
        }
        for (const StolenOp *k = stream.stealsBegin(e);
             k != stream.stealsEnd(e); ++k) {
            const std::uint64_t *a_word = a_queue.stepWords(k->step);
            std::uint64_t *mask =
                live_of(e, static_cast<int>(k->consumer / lanes));
            const std::int64_t from = k->src % lanes;
            const std::int64_t to = k->consumer % lanes;
            for (std::int64_t at = 0; at < std::int64_t{rows} * lanes;
                 at += lanes)
                mask[(at + to) >> 6] |=
                    (a_word[(at + from) >> 6] >> ((at + from) & 63) & 1u)
                    << ((at + to) & 63);
        }
        for (std::int64_t i = 0; i < cols * cw; ++i)
            out.effectualPairs += simd::popcount64(live_of(e, 0)[i]);
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

    // Live masks are row-major, slot m * lanes + l, which is the
    // steal pass's slot order.
    const StealPass steals(SlotGrid{0, lanes, rows, 1}, cfg.a.d2,
                           cfg.a.d3, 0, arena);
    auto *ran = arena.alloc<std::uint64_t>(static_cast<std::size_t>(2 * cw));
    std::uint64_t *elig = ran + cw;
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
            for (std::int64_t i = 0; record && i < cw; ++i)
                for (std::uint64_t bits = ran[i]; bits != 0;
                     bits &= bits - 1) {
                    const int bit = simd::ctz64(bits);
                    std::int64_t d = 0;
                    while ((takes[d * cw + i] >> bit & 1u) == 0)
                        ++d;
                    record_op(first + d, j, i * 64 + bit, cycle);
                }
            // Lane/row stealing within the column.
            std::int64_t stolen = 0;
            if (!steals.empty()) {
                steals.run(window_live, stride, depth, resident, ran, elig,
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

    // Pairwise queues: slot (j * rows + m) * lanes + lane gets an
    // element at step k1 exactly when A's row m and B's column j are
    // both nonzero at that flat k.
    Arena &arena = workArena();
    ArenaScope scope(arena);
    const SlotQueues queues = tileQueues(&a, &b, shuffler, arena);

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
