#include "csr_schedulers.hh"

#include <algorithm>
#include <limits>

#include "common/arena.hh"
#include "simd/occupancy.hh"

namespace griffin {
namespace csr {

namespace {

constexpr std::int64_t kEmptyHead =
    std::numeric_limits<std::int64_t>::max();

/**
 * A-tile occupancy, one element at a time: out[k1*k0 + k2] bit m is
 * set iff the tile element (k1, k2, m) — matrix cell (row_base + m,
 * k1*k0 + k2) — is nonzero; zero-padded like the TileViewA.
 */
void
aTileOccupancy(const MatrixI8 &a, std::int64_t row_base, int units,
               std::int64_t steps, int k0, std::uint64_t *out)
{
    for (std::int64_t f = 0; f < steps * k0; ++f) {
        out[f] = 0;
        for (int m = 0; m < units; ++m)
            if (a.atOrZero(static_cast<std::size_t>(row_base + m),
                           static_cast<std::size_t>(f)) != 0)
                out[f] |= std::uint64_t{1} << m;
    }
}

struct StealOffset
{
    int dl;
    int dr;
    int dc;
    std::int64_t delta;
};

/**
 * Count / prefix-sum / fill CSR build over per-flat-k unit masks:
 * unit u of occ[f] lands in slot u * unit_stride + lane, where lane is
 * the post-shuffle lane of f.
 */
SlotQueueSpans
buildSingle(const SlotGrid &grid, const std::uint64_t *occ,
            const Shuffler &shuffler, std::int64_t unit_stride,
            Arena &arena)
{
    const std::int64_t flat = grid.steps * grid.lanes;
    const std::int64_t nslots = grid.slots();
    auto *offsets = arena.allocZeroed<std::int64_t>(
        static_cast<std::size_t>(nslots + 1));
    for (std::int64_t f = 0; f < flat; ++f) {
        const std::int64_t k1 = f / grid.lanes;
        const int lane =
            shuffler.apply(k1, static_cast<int>(f % grid.lanes));
        std::uint64_t word = occ[f];
        while (word != 0) {
            const int u = simd::ctz64(word);
            word &= word - 1;
            ++offsets[u * unit_stride + lane + 1];
        }
    }
    for (std::int64_t s = 0; s < nslots; ++s)
        offsets[s + 1] += offsets[s];
    auto *values = arena.alloc<std::int64_t>(
        static_cast<std::size_t>(offsets[nslots]));
    auto *fill = arena.alloc<std::int64_t>(
        static_cast<std::size_t>(nslots));
    for (std::int64_t s = 0; s < nslots; ++s)
        fill[s] = offsets[s];
    for (std::int64_t f = 0; f < flat; ++f) {
        const std::int64_t k1 = f / grid.lanes;
        const int lane =
            shuffler.apply(k1, static_cast<int>(f % grid.lanes));
        std::uint64_t word = occ[f];
        while (word != 0) {
            const int u = simd::ctz64(word);
            word &= word - 1;
            values[fill[u * unit_stride + lane]++] = k1;
        }
    }
    SlotQueueSpans queues;
    queues.grid = grid;
    queues.offsets = offsets;
    queues.values = values;
    return queues;
}

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

    const std::int64_t flat_steps = a.steps() * k0;
    auto *occA = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(flat_steps));
    aTileOccupancy(a.matrix(), a.unitBase(), rows, a.steps(), k0,
                         occA);

    const std::int64_t col_slots =
        static_cast<std::int64_t>(rows) * lanes;
    const std::int64_t nslots = col_slots * cols;
    const auto slot_of = [&](int l, int m, int j) {
        return (static_cast<std::int64_t>(j) * rows + m) * lanes + l;
    };
    auto *offsets = arena.allocZeroed<std::int64_t>(
        static_cast<std::size_t>(nslots + 1));
    auto *remaining = arena.allocZeroed<std::int64_t>(
        static_cast<std::size_t>(entries * cols));
    for (std::int64_t c = 0; c < entries; ++c) {
        for (int j = 0; j < cols; ++j) {
            std::int64_t pairs = 0;
            for (int l = 0; l < lanes; ++l) {
                const auto flat_k = stream.flatK(c, l, j);
                if (flat_k < 0)
                    continue;
                std::uint64_t mask = occA[flat_k];
                pairs += simd::popcount64(mask);
                while (mask != 0) {
                    const int m = simd::ctz64(mask);
                    mask &= mask - 1;
                    ++offsets[slot_of(l, m, j) + 1];
                }
            }
            remaining[static_cast<std::size_t>(c * cols + j)] = pairs;
        }
    }
    for (std::int64_t s = 0; s < nslots; ++s)
        offsets[s + 1] += offsets[s];
    out.effectualPairs = offsets[nslots];
    if (out.effectualPairs == 0)
        return out;
    auto *values = arena.alloc<std::int64_t>(
        static_cast<std::size_t>(out.effectualPairs));
    auto *fill = arena.alloc<std::int64_t>(
        static_cast<std::size_t>(nslots));
    for (std::int64_t s = 0; s < nslots; ++s)
        fill[s] = offsets[s];
    for (std::int64_t c = 0; c < entries; ++c) {
        for (int j = 0; j < cols; ++j) {
            for (int l = 0; l < lanes; ++l) {
                const auto flat_k = stream.flatK(c, l, j);
                if (flat_k < 0)
                    continue;
                std::uint64_t mask = occA[flat_k];
                while (mask != 0) {
                    const int m = simd::ctz64(mask);
                    mask &= mask - 1;
                    values[fill[slot_of(l, m, j)]++] = c;
                }
            }
        }
    }

    auto *cursor = arena.alloc<std::int64_t>(
        static_cast<std::size_t>(nslots));
    auto *heads = arena.alloc<std::int64_t>(
        static_cast<std::size_t>(nslots));
    for (std::int64_t s = 0; s < nslots; ++s) {
        cursor[s] = offsets[s];
        heads[s] = offsets[s] < offsets[s + 1] ? values[offsets[s]]
                                               : kEmptyHead;
    }
    auto *head =
        arena.allocZeroed<std::int64_t>(static_cast<std::size_t>(cols));
    auto skip_drained = [&](int j) {
        auto &p = head[j];
        while (p < entries &&
               remaining[static_cast<std::size_t>(p * cols + j)] == 0) {
            ++p;
        }
    };
    for (int j = 0; j < cols; ++j)
        skip_drained(j);

    const std::int64_t max_raw = stream.rawEnd(entries - 1);
    std::int64_t frontier =
        std::min<std::int64_t>(abuf_raw_depth - 1, max_raw);
    double bw_budget = 0.0;

    struct Offset { int dl, dr; std::int64_t delta; };
    std::vector<Offset> steals;
    for (int dl = 0; dl <= cfg.a.d2; ++dl)
        for (int dr = 0; dr <= cfg.a.d3; ++dr)
            if (dl || dr)
                steals.push_back(
                    {dl, dr,
                     dl + static_cast<std::int64_t>(dr) * lanes});

    const simd::KernelTable &kern = simd::kernels();
    const std::int64_t col_words = (col_slots + 63) / 64;
    auto *elig = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(col_words));
    auto *pass1 = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(col_words));
    const std::int64_t *raw_hi = stream.rawHiData();

    std::int64_t left = out.effectualPairs;
    auto &st = out.stage2;
    while (left > 0) {
        ++st.cycles;
        std::int64_t consumed_now = 0;

        for (int j = 0; j < cols; ++j) {
            const std::int64_t base = static_cast<std::int64_t>(j) *
                                      col_slots;
            const std::int64_t limit = head[j] + bbuf_depth - 1;
            kern.leMask(heads + base, col_slots, limit, elig);
            std::int64_t elig_count = 0;
            for (std::int64_t i = 0; i < col_words; ++i) {
                std::uint64_t word = elig[i];
                std::uint64_t keep = word;
                while (word != 0) {
                    const int bit = simd::ctz64(word);
                    word &= word - 1;
                    const std::int64_t e = heads[base + i * 64 + bit];
                    if (raw_hi[static_cast<std::size_t>(e * cols + j)] >
                        frontier)
                        keep &= ~(std::uint64_t{1} << bit);
                }
                elig[i] = keep;
                elig_count += simd::popcount64(keep);
            }
            if (elig_count == 0)
                continue;

            auto consume = [&](std::int64_t src, int j_col, bool own) {
                const std::int64_t e = heads[src];
                const std::int64_t next = ++cursor[src];
                heads[src] =
                    next < offsets[src + 1] ? values[next] : kEmptyHead;
                const std::int64_t local = src - base;
                const std::uint64_t bit = std::uint64_t{1}
                                          << (local & 63);
                if (heads[src] > limit ||
                    raw_hi[static_cast<std::size_t>(heads[src] * cols +
                                                    j_col)] > frontier) {
                    elig[local >> 6] &= ~bit;
                    --elig_count;
                }
                --remaining[static_cast<std::size_t>(e * cols + j_col)];
                --left;
                ++consumed_now;
                ++st.ops;
                if (own)
                    ++st.ownOps;
                else
                    ++st.stolenOps;
                if (record) {
                    const int src_lane =
                        static_cast<int>(local % lanes);
                    const int src_row =
                        static_cast<int>(local / lanes % rows);
                    const auto flat_k =
                        stream.flatK(e, src_lane, j_col);
                    out.ops.push_back({flat_k, src_row,
                                       stream.homeCol(e, src_lane,
                                                      j_col),
                                       st.cycles - 1});
                }
            };

            for (std::int64_t i = 0; i < col_words; ++i) {
                std::uint64_t word = elig[i];
                pass1[i] = word;
                while (word != 0) {
                    const int bit = simd::ctz64(word);
                    word &= word - 1;
                    consume(base + i * 64 + bit, j, true);
                }
            }

            if (!steals.empty() && elig_count > 0) {
                for (std::int64_t i = 0;
                     i < col_words && elig_count > 0; ++i) {
                    std::uint64_t idle = ~pass1[i];
                    if (i == col_words - 1 && (col_slots & 63) != 0)
                        idle &= (std::uint64_t{1}
                                 << (col_slots & 63)) -
                                1;
                    while (idle != 0 && elig_count > 0) {
                        const int bit = simd::ctz64(idle);
                        idle &= idle - 1;
                        const std::int64_t local = i * 64 + bit;
                        const int l = static_cast<int>(local % lanes);
                        const int m = static_cast<int>(local / lanes);
                        for (const auto &off : steals) {
                            if (l + off.dl >= lanes ||
                                m + off.dr >= rows)
                                continue;
                            const std::int64_t src_local =
                                local + off.delta;
                            if ((elig[src_local >> 6] >>
                                 (src_local & 63) & 1u) == 0)
                                continue;
                            consume(base + src_local, j, false);
                            break;
                        }
                    }
                }
            }
        }
        st.idleSlotCycles += nslots - consumed_now;
        if (left == 0)
            break;

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
    SlotGrid grid;
    grid.steps = a.steps();
    grid.lanes = a.lanes();
    grid.rows = a.units();
    grid.cols = b.units();

    Arena &arena = workArena();
    ArenaScope scope(arena);
    const std::int64_t flat = grid.steps * grid.lanes;
    const std::int64_t nslots = grid.slots();
    auto *occA =
        arena.alloc<std::uint64_t>(static_cast<std::size_t>(flat));
    auto *occB =
        arena.alloc<std::uint64_t>(static_cast<std::size_t>(flat));
    aTileOccupancy(a.matrix(), a.unitBase(), grid.rows,
                         grid.steps, grid.lanes, occA);
    simd::bTileOccupancy(b.matrix(), b.unitBase(), grid.cols,
                         grid.steps, grid.lanes, occB);

    auto slot_of = [&](int j, int m, int lane) {
        return (static_cast<std::int64_t>(j) * grid.rows + m) *
                   grid.lanes +
               lane;
    };
    auto *offsets = arena.allocZeroed<std::int64_t>(
        static_cast<std::size_t>(nslots + 1));
    for (std::int64_t f = 0; f < flat; ++f) {
        std::uint64_t mask_a = occA[f];
        if (mask_a == 0 || occB[f] == 0)
            continue;
        const std::int64_t k1 = f / grid.lanes;
        const int lane =
            shuffler.apply(k1, static_cast<int>(f % grid.lanes));
        while (mask_a != 0) {
            const int m = simd::ctz64(mask_a);
            mask_a &= mask_a - 1;
            std::uint64_t mask_b = occB[f];
            while (mask_b != 0) {
                const int j = simd::ctz64(mask_b);
                mask_b &= mask_b - 1;
                ++offsets[slot_of(j, m, lane) + 1];
            }
        }
    }
    for (std::int64_t s = 0; s < nslots; ++s)
        offsets[s + 1] += offsets[s];
    auto *values = arena.alloc<std::int64_t>(
        static_cast<std::size_t>(offsets[nslots]));
    auto *fill = arena.alloc<std::int64_t>(
        static_cast<std::size_t>(nslots));
    for (std::int64_t s = 0; s < nslots; ++s)
        fill[s] = offsets[s];
    for (std::int64_t f = 0; f < flat; ++f) {
        std::uint64_t mask_a = occA[f];
        if (mask_a == 0 || occB[f] == 0)
            continue;
        const std::int64_t k1 = f / grid.lanes;
        const int lane =
            shuffler.apply(k1, static_cast<int>(f % grid.lanes));
        while (mask_a != 0) {
            const int m = simd::ctz64(mask_a);
            mask_a &= mask_a - 1;
            std::uint64_t mask_b = occB[f];
            while (mask_b != 0) {
                const int j = simd::ctz64(mask_b);
                mask_b &= mask_b - 1;
                values[fill[slot_of(j, m, lane)]++] = k1;
            }
        }
    }

    SlotQueueSpans queues;
    queues.grid = grid;
    queues.offsets = offsets;
    queues.values = values;

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

ScheduleResult
runWindowSchedule(const SlotQueueSpans &queues,
                  const BorrowWindow &window, bool record)
{
    const SlotGrid &grid = queues.grid;
    ScheduleResult result;
    std::int64_t remaining = queues.totalElements();
    if (remaining == 0)
        return result;
    if (record)
        result.ops.reserve(static_cast<std::size_t>(remaining));

    const std::int64_t nslots = grid.slots();
    const std::int64_t words = (nslots + 63) / 64;

    Arena &arena = workArena();
    ArenaScope scope(arena);

    auto *cursor = arena.alloc<std::int64_t>(
        static_cast<std::size_t>(nslots));
    auto *heads = arena.alloc<std::int64_t>(
        static_cast<std::size_t>(nslots));
    auto *elig = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(words));
    auto *pass1 = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(words));
    for (std::int64_t s = 0; s < nslots; ++s) {
        cursor[s] = queues.offsets[s];
        heads[s] = queues.offsets[s] < queues.offsets[s + 1]
                       ? queues.values[queues.offsets[s]]
                       : kEmptyHead;
    }

    std::vector<StealOffset> steals;
    for (int dl = 0; dl <= window.laneDist; ++dl)
        for (int dr = 0; dr <= window.rowDist; ++dr)
            for (int dc = 0; dc <= window.colDist; ++dc)
                if (dl || dr || dc)
                    steals.push_back(
                        {dl, dr, dc,
                         dl + static_cast<std::int64_t>(dr) *
                                  grid.lanes +
                             static_cast<std::int64_t>(dc) *
                                 grid.lanes * grid.rows});

    const simd::KernelTable &kern = simd::kernels();
    const std::int64_t w_limit = window.steps;
    std::int64_t w = 0;
    double budget = 0.0;

    auto entering_cost = [&](std::int64_t base) -> double {
        return base + window.steps >= grid.steps ? 0.0 : 1.0;
    };

    while (remaining > 0) {
        ++result.stats.cycles;
        const std::int64_t horizon = w + window.steps - 1;
        std::int64_t consumed_this_cycle = 0;

        kern.leMask(heads, nslots, horizon, elig);
        std::int64_t elig_count = 0;
        for (std::int64_t i = 0; i < words; ++i)
            elig_count += simd::popcount64(elig[i]);

        auto consume = [&](std::int64_t src, int src_lane, int src_row,
                           int src_col, int con_lane, int con_row,
                           int con_col, bool own) {
            const std::int64_t step = heads[src];
            const std::int64_t next = ++cursor[src];
            heads[src] = next < queues.offsets[src + 1]
                             ? queues.values[next]
                             : kEmptyHead;
            const std::uint64_t bit = std::uint64_t{1} << (src & 63);
            if (heads[src] > horizon) {
                elig[src >> 6] &= ~bit;
                --elig_count;
            }
            --remaining;
            ++consumed_this_cycle;
            ++result.stats.ops;
            if (own)
                ++result.stats.ownOps;
            else
                ++result.stats.stolenOps;
            if (record) {
                result.ops.push_back({step, src_lane, src_row, src_col,
                                      con_lane, con_row, con_col,
                                      result.stats.cycles - 1});
            }
        };

        for (std::int64_t i = 0; i < words; ++i) {
            std::uint64_t word = elig[i];
            pass1[i] = word;
            while (word != 0) {
                const std::int64_t s =
                    i * 64 + simd::ctz64(word);
                word &= word - 1;
                const int lane = static_cast<int>(s % grid.lanes);
                const std::int64_t rest = s / grid.lanes;
                const int row = static_cast<int>(rest % grid.rows);
                const int col = static_cast<int>(rest / grid.rows);
                consume(s, lane, row, col, lane, row, col, true);
            }
        }

        if (!steals.empty() && elig_count > 0) {
            for (std::int64_t i = 0; i < words && elig_count > 0;
                 ++i) {
                std::uint64_t idle = ~pass1[i];
                if (i == words - 1 && (nslots & 63) != 0)
                    idle &= (std::uint64_t{1} << (nslots & 63)) - 1;
                while (idle != 0 && elig_count > 0) {
                    const std::int64_t s =
                        i * 64 + simd::ctz64(idle);
                    idle &= idle - 1;
                    const int lane = static_cast<int>(s % grid.lanes);
                    const std::int64_t rest = s / grid.lanes;
                    const int row = static_cast<int>(rest % grid.rows);
                    const int col =
                        static_cast<int>(rest / grid.rows);
                    for (const auto &off : steals) {
                        const int sl = lane + off.dl;
                        const int sr = row + off.dr;
                        const int sc = col + off.dc;
                        if (sl >= grid.lanes || sr >= grid.rows ||
                            sc >= grid.cols) {
                            continue;
                        }
                        const std::int64_t src = s + off.delta;
                        if ((elig[src >> 6] >>
                             (src & 63) & 1u) == 0)
                            continue;
                        consume(src, sl, sr, sc, lane, row, col,
                                false);
                        break;
                    }
                }
            }
        }

        result.stats.idleSlotCycles += nslots - consumed_this_cycle;
        if (remaining == 0)
            break;

        const std::int64_t min_head = kern.minI64(heads, nslots);

        budget = std::min(budget + window.advanceCap,
                          window.budgetCeiling);
        std::int64_t advanced = 0;
        bool bw_limited = false;
        while (w < min_head && advanced < w_limit) {
            const double c = entering_cost(w);
            if (budget >= c) {
                budget -= c;
                ++w;
                ++advanced;
            } else {
                bw_limited = true;
                break;
            }
        }
        if (bw_limited)
            ++result.stats.bwLimitedCycles;
    }

    return result;
}

BStream
preprocessB(const TileViewB &b, const Borrow &db, const Shuffler &shuffler,
            bool record)
{
    SlotGrid grid;
    grid.steps = b.steps();
    grid.lanes = b.lanes();
    grid.rows = 1;
    grid.cols = b.units();

    Arena &arena = workArena();
    ArenaScope scope(arena);
    auto *occ = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(grid.steps * grid.lanes));
    simd::bTileOccupancy(b.matrix(), b.unitBase(), grid.cols,
                         grid.steps, grid.lanes, occ);
    const auto queues = buildSingle(grid, occ, shuffler, grid.lanes,
                                    arena);

    BorrowWindow window;
    window.steps = 1 + db.d1;
    window.laneDist = db.d2;
    window.rowDist = 0;
    window.colDist = db.d3;
    window.advanceCap = window.steps;
    window.budgetCeiling = window.steps;
    auto result = runWindowSchedule(queues, window, true);

    BStream s;
    s.cycles = std::max<std::int64_t>(result.stats.cycles, 0);
    s.lanes = grid.lanes;
    s.cols = grid.cols;
    s.elems = result.stats.ops;
    s.stats = result.stats;
    const auto cells =
        static_cast<std::size_t>(s.cycles * grid.lanes * grid.cols);
    s.flatk.assign(cells, -1);
    s.homecol.assign(cells, -1);
    s.rawEnd.assign(static_cast<std::size_t>(s.cycles), -1);
    const auto col_cells = static_cast<std::size_t>(s.cycles * grid.cols);
    s.rawLo.assign(col_cells, -1);
    s.rawHi.assign(col_cells, -1);
    for (const auto &op : result.ops) {
        const int orig_k2 = shuffler.invert(op.step, op.lane);
        const auto idx = static_cast<std::size_t>(
            (op.cycle * grid.cols + op.consumerCol) * grid.lanes +
            op.consumerLane);
        s.flatk[idx] = op.step * grid.lanes + orig_k2;
        s.homecol[idx] = static_cast<std::int16_t>(op.col);
        auto &frontier = s.rawEnd[static_cast<std::size_t>(op.cycle)];
        frontier = std::max(frontier, op.step);
        const auto cidx =
            static_cast<std::size_t>(op.cycle * grid.cols + op.consumerCol);
        auto &lo = s.rawLo[cidx];
        auto &hi = s.rawHi[cidx];
        lo = (lo < 0) ? op.step : std::min(lo, op.step);
        hi = std::max(hi, op.step);
    }
    std::int64_t running = -1;
    for (auto &v : s.rawEnd) {
        running = std::max(running, v);
        v = running;
    }
    if (record)
        s.ops = std::move(result.ops);
    return s;
}

ScheduleResult
scheduleA(const TileViewA &a, const Borrow &da, const Shuffler &shuffler,
          double advance_cap, bool record)
{
    SlotGrid grid;
    grid.steps = a.steps();
    grid.lanes = a.lanes();
    grid.rows = a.units();
    grid.cols = 1;

    Arena &arena = workArena();
    ArenaScope scope(arena);
    auto *occ = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(grid.steps * grid.lanes));
    aTileOccupancy(a.matrix(), a.unitBase(), grid.rows,
                         grid.steps, grid.lanes, occ);
    const auto queues = buildSingle(grid, occ, shuffler, grid.lanes,
                                    arena);

    BorrowWindow window;
    window.steps = 1 + da.d1;
    window.laneDist = da.d2;
    window.rowDist = da.d3;
    window.colDist = 0;
    window.advanceCap = std::min<double>(advance_cap, window.steps);
    window.budgetCeiling = window.steps;
    return runWindowSchedule(queues, window, record);
}

DualSchedule
scheduleDual(const TileViewA &a, const TileViewB &b,
             const RoutingConfig &cfg, const Shuffler &shuffler,
             const BSchedule *b_stream, double advance_cap, bool record)
{
    if (cfg.preprocessB)
        return schedulePreprocessed(a, cfg, *b_stream, advance_cap,
                                    record);
    return scheduleOnTheFly(a, b, cfg, shuffler, advance_cap, record);
}

} // namespace csr
} // namespace griffin
