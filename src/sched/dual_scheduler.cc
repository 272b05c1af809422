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
 * Fig. 3 steps 2-3: zero masks of A filtered by B's metadata — a pair
 * survives only where the stream has an element *and* the matching A
 * operand is nonzero.  A's queue under the stream's shuffle holds, at
 * step k1, bit m * lanes + l for A's element in row m at post-shuffle
 * lane l — the lane the stream's take words use.  So one (entry, PE
 * column) live mask, row-major over the column's rows x lanes slots,
 * is the OR over the entry's window steps of A's queue word AND the
 * column's take field repeated across rows, plus one bit per row for
 * each stolen cell (A's bit at the source lane, set at the consumer
 * lane).  Writes word i of entry e's mask for column j to
 * live[(e * cols + j) * words + i], words = a_queue.wordsPerStep().
 * With one word per column (rows x lanes <= 64, the paper's 4 x 16
 * PEs), the KernelTable's liveMasks reads each take row once for
 * every column; wider columns go a column and a word at a time.
 */
void
buildLiveMasks(const BSchedule &stream, const SlotQueues &a_queue, int rows,
               Arena &arena, std::uint64_t *live)
{
    const int lanes = stream.lanes();
    const int cols = stream.cols();
    const std::int64_t col_slots = std::int64_t{cols} * lanes;
    const std::int64_t cw = a_queue.wordsPerStep();
    const std::int64_t tw = stream.takeWords();
    const RowRepeat repeat(rows, lanes, cw, arena);
    const simd::KernelTable &kern = simd::kernels();
    // Stream slot s = col * lanes + lane.  col = s / lanes is s times
    // m = ceil(2^32 / lanes), shifted down 32 bits: with m * lanes =
    // 2^32 + r, r < lanes, the product overshoots s / lanes by s * r /
    // (lanes * 2^32) < 1 / lanes for every s < 2^26, which leaves the
    // floor alone.  Slots stay below 64 * 64.
    const std::uint64_t recip =
        ((std::uint64_t{1} << 32) + static_cast<unsigned>(lanes) - 1) /
        static_cast<unsigned>(lanes);
    auto column_of = [recip](std::int64_t s) {
        return static_cast<std::int64_t>(static_cast<std::uint64_t>(s) *
                                             recip >>
                                         32);
    };
    for (std::int64_t e = 0; e < stream.cycles(); ++e) {
        const std::uint64_t *take_rows = stream.takes(e);
        const std::uint64_t *a_words = a_queue.stepWords(stream.base(e));
        const std::int64_t depth = stream.depth(e);
        std::uint64_t *const entry_masks = live + e * cols * cw;
        if (cw == 1) {
            kern.liveMasks(take_rows, tw, depth, a_words, lanes, rows, cols,
                           entry_masks);
        } else {
            // The column whose take field starts at stream slot `at`:
            // its accumulator stays in a register across the entry's
            // window steps.
            std::uint64_t *mask = entry_masks;
            for (std::int64_t at = 0; at < col_slots;
                 at += lanes, mask += cw)
                for (std::int64_t i = 0; i < cw; ++i) {
                    std::uint64_t acc = 0;
                    for (std::int64_t d = 0; d < depth; ++d)
                        acc |= a_words[d * cw + i] &
                               repeat(i, simd::readField(take_rows + d * tw,
                                                         at, lanes));
                    mask[i] = acc;
                }
        }
        // Stolen cells: A's bit at the source lane of every row, moved
        // to the consumer lane of the same row — the row-major mask
        // shifted by to - from, carried across words.
        for (const StolenOp *k = stream.stealsBegin(e);
             k != stream.stealsEnd(e); ++k) {
            const std::int64_t col = column_of(k->consumer);
            std::uint64_t *const col_mask = entry_masks + col * cw;
            const std::int64_t from = k->src - column_of(k->src) * lanes;
            const int shift =
                static_cast<int>(k->consumer - col * lanes - from);
            const std::uint64_t src_lane = std::uint64_t{1} << from;
            const std::uint64_t *a_word = a_queue.stepWords(k->step);
            std::uint64_t carry = 0;
            if (shift >= 0) {
                for (std::int64_t i = 0; i < cw; ++i) {
                    const std::uint64_t cell =
                        a_word[i] & repeat(i, src_lane);
                    col_mask[i] |= cell << shift | carry;
                    carry = shift == 0 ? 0 : cell >> (64 - shift);
                }
            } else {
                for (std::int64_t i = cw - 1; i >= 0; --i) {
                    const std::uint64_t cell =
                        a_word[i] & repeat(i, src_lane);
                    col_mask[i] |= cell >> -shift | carry;
                    carry = cell << (64 + shift);
                }
            }
        }
    }
}

/**
 * schedulePreprocessed's engine, given a non-empty stream, A's queue
 * and the steal pass.  kPlain: one-word column masks, no steals and
 * no record mode, known at compile time, so pass 1 drops its steal
 * sources and take words and the word loops unroll.
 */
template <bool kPlain>
DualSchedule
runPreprocessed(const RoutingConfig &cfg, const BSchedule &stream,
                const SlotQueues &a_queue, const StealPass &steals,
                double advance_cap, bool record, Arena &arena)
{
    const int lanes = stream.lanes();
    const int rows = a_queue.grid().rows;
    const int cols = stream.cols();
    const std::int64_t entries = stream.cycles();
    const std::int64_t depth = 1 + cfg.a.d1;
    const std::int64_t abuf_raw_depth = depth * (1 + cfg.b.d1);
    const std::int64_t cw = kPlain ? 1 : a_queue.wordsPerStep();
    auto words = [&](std::int64_t n) {
        return arena.alloc<std::uint64_t>(static_cast<std::size_t>(n));
    };

    DualSchedule out;
    out.stage1 = stream.stats();
    // Live masks of entry e: every column's side by side, `width`
    // words from live + e * width.
    const std::int64_t width = cols * cw;
    std::uint64_t *const live = words(entries * width);
    buildLiveMasks(stream, a_queue, rows, arena, live);
    auto any = [cw](const std::uint64_t *w) {
        std::uint64_t x = 0;
        for (std::int64_t i = 0; i < cw; ++i)
            x |= w[i];
        return x != 0;
    };
    auto skip_empty = [&](std::int64_t e, int j) {
        while (e < entries && !any(live + e * width + j * cw))
            ++e;
        return e;
    };

    // Column j's BBUF window is entries head[j] .. head[j] + depth - 1,
    // clipped at the stream's end, where head[j] is its oldest entry
    // with a pair left (entries once the column is done).  Its pairs
    // drain in place in the live masks: window step d is the word run
    // at live + (head[j] + d) * width + j * cw.
    auto *const head =
        arena.alloc<std::int64_t>(static_cast<std::size_t>(cols));
    std::int64_t active = 0;
    for (int j = 0; j < cols; ++j) {
        head[j] = skip_empty(0, j);
        active += head[j] < entries;
    }
    if (active == 0)
        return out;

    const std::int64_t *const raw_lo = stream.rawLoData();
    const std::int64_t *const raw_hi = stream.rawHiData();
    const std::int64_t max_raw = stream.rawEnd(entries - 1);
    std::int64_t frontier =
        std::min<std::int64_t>(abuf_raw_depth - 1, max_raw);
    double bw_budget = 0.0;

    std::uint64_t *const ran = words(cw);
    std::uint64_t *const elig =
        kPlain || steals.empty() ? nullptr : words(cw);
    // Record mode emits pass-1 ops in slot order from the take words.
    std::uint64_t *const takes =
        !kPlain && record ? words(depth * cw) : nullptr;
    auto record_op = [&](std::int64_t e, int j, std::int64_t s,
                         std::int64_t cycle) {
        const int l = static_cast<int>(s % lanes);
        out.ops.push_back({stream.flatK(e, l, j),
                           static_cast<int>(s / lanes),
                           stream.homeCol(e, l, j), cycle});
    };

    auto &st = out.stage2;
    for (;;) {
        const std::int64_t cycle = st.cycles++;
        const std::int64_t now = frontier;
        // The tail of the shared raw window: the lowest raw step any
        // column's oldest live entry still needs.  That entry holds a
        // pair, so its column slice is not empty.
        std::int64_t tail = max_raw;
        for (int j = 0; j < cols; ++j) {
            const std::int64_t first = head[j];
            if (first == entries)
                continue;
            std::uint64_t *const window = live + first * width + j * cw;
            const std::int64_t *const window_hi = raw_hi + first * cols + j;
            const std::int64_t depth_j =
                std::min<std::int64_t>(depth, entries - first);
            // An entry is executable when it is inside its column's
            // BBUF window and its raw span has streamed into the ABUF.
            auto resident = [window_hi, cols, now](std::int64_t d) {
                return window_hi[d * cols] <= now;
            };
            const std::int64_t own = ownPass(window, width, depth_j, cw,
                                             resident, ran, elig, takes);
            st.ownOps += own;
            st.ops += own;
            for (std::int64_t i = 0; !kPlain && record && i < cw; ++i)
                for (std::uint64_t bits = ran[i]; bits != 0;
                     bits &= bits - 1) {
                    const int bit = simd::ctz64(bits);
                    std::int64_t d = 0;
                    while ((takes[d * cw + i] >> bit & 1u) == 0)
                        ++d;
                    record_op(first + d, j, i * 64 + bit, cycle);
                }
            // Lane/row stealing within the column.
            if (!kPlain && !steals.empty())
                steals.run(window, width, depth_j, resident, ran, elig,
                           [&](std::int64_t d, std::int64_t src,
                               std::int64_t) {
                               if (record)
                                   record_op(first + d, j, src, cycle);
                               ++st.stolenOps;
                               ++st.ops;
                           });

            // Retire the drained entries at the window's head; past a
            // fully drained window, skip the empty entries after it.
            std::int64_t drained = 0;
            while (drained < depth_j && !any(window + drained * width))
                ++drained;
            const std::int64_t next =
                drained < depth_j ? first + drained
                                  : skip_empty(first + depth_j, j);
            head[j] = next;
            if (next == entries)
                --active;
            else
                tail = std::min(tail, raw_lo[next * cols + j]);
        }
        if (active == 0)
            break;

        // Slide the shared raw window: the frontier streams forward at
        // the ASRAM rate into the ABUF capacity past the tail.
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
    // Every pair runs exactly once, so the pairs are the ops executed.
    out.cycles = st.cycles;
    out.effectualPairs = st.ops;
    st.idleSlotCycles = std::int64_t{rows} * lanes * cols * st.cycles - st.ops;
    return out;
}

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
schedulePreprocessed(const SlotQueues &a_queue, const RoutingConfig &cfg,
                     const BSchedule &stream, double advance_cap,
                     bool record)
{
    const SlotGrid &grid = a_queue.grid();
    GRIFFIN_ASSERT(grid.cols == 1 && grid.steps == stream.steps() &&
                   grid.lanes == stream.lanes(),
                   "A queues of ", grid.steps, " x ", grid.lanes, " x ",
                   grid.cols, " steps x lanes x columns, B stream of ",
                   stream.steps(), " x ", stream.lanes(), " x 1");
    if (stream.cycles() == 0) {
        DualSchedule out;
        out.stage1 = stream.stats();
        return out;
    }
    Arena &arena = workArena();
    ArenaScope scope(arena);
    // Live masks are row-major, slot m * lanes + l, which is the steal
    // pass's slot order.
    const StealPass steals(SlotGrid{0, grid.lanes, grid.rows, 1}, cfg.a.d2,
                           cfg.a.d3, 0, arena);
    // Every preprocessed point of fig7 and fig8 is plain: 4 x 16
    // columns, da2 = da3 = 0, no record.
    return a_queue.wordsPerStep() == 1 && steals.empty() && !record
               ? runPreprocessed<true>(cfg, stream, a_queue, steals,
                                       advance_cap, record, arena)
               : runPreprocessed<false>(cfg, stream, a_queue, steals,
                                        advance_cap, record, arena);
}

DualSchedule
scheduleOnTheFly(const SlotQueues &a_queue, const SlotQueues &b_queue,
                 const RoutingConfig &cfg, const Shuffler &shuffler,
                 double advance_cap, bool record)
{
    // Pairwise queues: slot (j * rows + m) * lanes + lane gets an
    // element at step k1 exactly when A's row m and B's column j are
    // both nonzero at that flat k.
    Arena &arena = workArena();
    ArenaScope scope(arena);
    const SlotQueues queues = pairQueues(a_queue, b_queue, arena);
    const int lanes = queues.grid().lanes;

    BorrowWindow window;
    window.steps = 1 + std::min(cfg.a.d1, cfg.b.d1);
    window.laneDist = cfg.a.d2 + cfg.b.d2;
    window.rowDist = cfg.a.d3;
    window.colDist = cfg.b.d3;
    window.advanceCap =
        std::min(advance_cap, static_cast<double>(window.steps));
    window.budgetCeiling = window.steps;

    auto result = runWindowSchedule(queues, window, record);
    DualSchedule out;
    out.cycles = result.stats.cycles;
    out.stage2 = result.stats;
    out.effectualPairs = result.stats.ops;
    if (record) {
        out.ops.reserve(result.ops.size());
        for (const auto &op : result.ops) {
            const int orig_k2 = shuffler.invert(op.step, op.lane);
            out.ops.push_back({op.step * lanes + orig_k2, op.row, op.col,
                               op.cycle});
        }
    }
    return out;
}

} // namespace

DualSchedule
scheduleDual(const SlotQueues &a_queue, const SlotQueues *b_queue,
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
        GRIFFIN_ASSERT(shuffler.enabled() == b_stream->shuffler().enabled() &&
                       shuffler.groupSize() ==
                           b_stream->shuffler().groupSize(),
                       "A's queues and the B stream disagree on the "
                       "shuffle");
        return schedulePreprocessed(a_queue, cfg, *b_stream, advance_cap,
                                    record);
    }
    GRIFFIN_ASSERT(b_queue != nullptr,
                   "on-the-fly dual scheduling needs B's queues");
    return scheduleOnTheFly(a_queue, *b_queue, cfg, shuffler, advance_cap,
                            record);
}

DualSchedule
scheduleDual(const TileViewA &a, const TileViewB &b,
             const RoutingConfig &cfg, const Shuffler &shuffler,
             const BSchedule *b_stream, double advance_cap, bool record)
{
    // A preprocessed stream fixes the shuffle A's queues are built
    // under.
    const Shuffler &sh = cfg.preprocessB && b_stream != nullptr
                             ? b_stream->shuffler()
                             : shuffler;
    Arena &arena = workArena();
    ArenaScope scope(arena);
    const SlotQueues a_queue = tileQueues(a, sh, arena);
    if (cfg.preprocessB)
        return scheduleDual(a_queue, nullptr, cfg, sh, b_stream,
                            advance_cap, record);
    const SlotQueues b_queue = tileQueues(b, sh, arena);
    return scheduleDual(a_queue, &b_queue, cfg, sh, nullptr, advance_cap,
                        record);
}

} // namespace griffin
