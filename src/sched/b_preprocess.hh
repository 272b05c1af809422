/**
 * @file
 * Offline preprocessing of the weight matrix B (paper Fig. 2(a,b) and
 * step 1 of Fig. 3).
 *
 * B is known before execution, so its zeros are removed offline: the
 * window scheduler packs nonzero elements into a *compressed stream*
 * of (cycle, lane, column) entries, each carrying metadata that tells
 * the AMUX which A operand to pair with and — when the element was
 * borrowed across columns — which accumulator the partial product
 * belongs to.
 *
 * The stream is kept the way the packer produced it, as bits: per
 * packing cycle, the window base (the depth follows from it), one
 * take word row per window step (bit col * lanes + lane set when that
 * stream slot ran its own element at step base + d) and the list of
 * cross-slot steals.  A slot's flat k and home column are computed from these on
 * demand (record mode, verification, the visualizer); the dual engine
 * filters A's zero masks against the take words directly.  Both passes
 * that read a take row per PE column — the packer's raw extents here
 * and the dual engine's live masks — are simd::KernelTable kernels
 * (takeExtents, liveMasks) that read each row once for every column.
 *
 * The compressed stream is what lands in BSRAM: `dataBytes()` nonzero
 * values plus `metadataBytes()` of routing bits, typically far smaller
 * than the dense tile.
 */

#ifndef GRIFFIN_SCHED_B_PREPROCESS_HH
#define GRIFFIN_SCHED_B_PREPROCESS_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "arch/routing.hh"
#include "sched/schedule.hh"
#include "tensor/shuffle.hh"
#include "tensor/tile.hh"

namespace griffin {

/**
 * The compressed form of one B tile: per packing cycle, the take words
 * and steals that place elements on (lane, column) stream slots.
 */
class BSchedule
{
  public:
    BSchedule() = default;

    std::int64_t cycles() const { return cycles_; }
    int lanes() const { return lanes_; }
    int cols() const { return cols_; }

    /** Temporal steps (k1 extent) of the packed tile. */
    std::int64_t steps() const { return steps_; }

    /** The lane shuffle the stream was packed under. */
    const Shuffler &shuffler() const { return shuffler_; }

    /** Flat original k index of the element at a stream slot; -1 if
     *  the slot is empty.  Computed from the take words and steals. */
    std::int64_t flatK(std::int64_t cycle, int lane, int col) const;

    /** Original output column of the element (ADT routing target);
     *  -1 if the slot is empty. */
    int homeCol(std::int64_t cycle, int lane, int col) const;

    /** Window base of packing cycle `cycle`: its own-slot takes sit
     *  at steps base .. base + depth - 1. */
    std::int64_t
    base(std::int64_t cycle) const
    {
        return base_[cycleIndex(cycle)];
    }

    /** Window depth of packing cycle `cycle`: the window's steps,
     *  clipped at the tile's end. */
    std::int64_t
    depth(std::int64_t cycle) const
    {
        return std::min(window_, steps_ - base(cycle));
    }

    /** Words of one take row: (lanes * cols + 63) / 64. */
    std::int64_t takeWords() const { return words_; }

    /**
     * Take rows of one packing cycle, depth(cycle) x takeWords(): bit
     * s of row d is set iff stream slot s = col * lanes + lane ran
     * its own element, the one at step base + d.
     */
    const std::uint64_t *
    takes(std::int64_t cycle) const
    {
        return takes_.data() + cycleIndex(cycle) * window_ * words_;
    }

    /** Steals of one packing cycle, [stealsBegin, stealsEnd): the
     *  element of slot src at `step` ran on slot `consumer`. */
    const StolenOp *
    stealsBegin(std::int64_t cycle) const
    {
        return steals_.data() + steal_at_[cycleIndex(cycle)];
    }

    const StolenOp *
    stealsEnd(std::int64_t cycle) const
    {
        return steals_.data() + steal_at_[cycleIndex(cycle) + 1];
    }

    /** Scheduling statistics of the packing pass. */
    const ScheduleStats &stats() const { return stats_; }

    /** Recorded packing ops (only when built with record = true). */
    const std::vector<ScheduledOp> &ops() const { return ops_; }

    /** Number of nonzero elements in the stream. */
    std::int64_t scheduledElems() const { return elems_; }

    /**
     * Raw-step frontier: highest original k1 any entry up to and
     * including `cycle` needs, cumulative.  Drives the A-stream cost
     * model of dual-sparse stage 2.
     */
    std::int64_t rawEnd(std::int64_t cycle) const
    {
        return raw_end_[cycleIndex(cycle)];
    }

    /**
     * Per-column raw extent of one stream entry: the lowest / highest
     * original k1 among the elements column `col` holds at `cycle`,
     * or -1 when that column's slice of the entry is empty (own takes
     * through simd::KernelTable::takeExtents, then the steals).  The
     * asynchronous dual-sparse engine uses these to enforce the shared
     * ABUF residency window across independently advancing columns.
     */
    std::int64_t
    rawLo(std::int64_t cycle, int col) const
    {
        return raw_lo_[colIndex(cycle, col)];
    }

    std::int64_t
    rawHi(std::int64_t cycle, int col) const
    {
        return raw_hi_[colIndex(cycle, col)];
    }

    /**
     * Flat raw-extent tables indexed `cycle * cols() + col` — the bulk
     * counterparts of rawLo() and rawHi(), which the dual engine reads
     * as entries enter its BBUF windows.
     */
    const std::int64_t *rawLoData() const { return raw_lo_.data(); }
    const std::int64_t *rawHiData() const { return raw_hi_.data(); }

    /** Compressed payload size: one INT8 per scheduled element. */
    std::int64_t dataBytes() const { return elems_; }

    /** Metadata size at the given bits-per-element rate. */
    std::int64_t
    metadataBytes(int bits_per_elem) const
    {
        return (elems_ * bits_per_elem + 7) / 8;
    }

  private:
    friend BSchedule preprocessB(const SlotQueues &, const Borrow &,
                                 const Shuffler &, bool);

    std::size_t
    cycleIndex(std::int64_t cycle) const
    {
        GRIFFIN_ASSERT(cycle >= 0 && cycle < cycles_, "stream cycle ",
                       cycle, " out of range");
        return static_cast<std::size_t>(cycle);
    }

    std::size_t
    colIndex(std::int64_t cycle, int col) const
    {
        GRIFFIN_ASSERT(cycle >= 0 && cycle < cycles_ && col >= 0 &&
                       col < cols_,
                       "stream entry (", cycle, ",", col,
                       ") out of range");
        return static_cast<std::size_t>(cycle * cols_ + col);
    }

    /** The element on slot (lane, col) at `cycle` as a steal record
     *  (an own take has src == consumer); step -1 when empty. */
    StolenOp cell(std::int64_t cycle, int lane, int col) const;

    std::int64_t cycles_ = 0;
    std::int64_t steps_ = 0;
    int lanes_ = 0;
    int cols_ = 0;
    std::int64_t words_ = 0;  ///< take words per row
    std::int64_t window_ = 0; ///< take rows per cycle: the window
                              ///< depth, at most steps_
    std::int64_t elems_ = 0;
    Shuffler shuffler_{false, 1};
    ScheduleStats stats_;
    std::vector<std::int64_t> base_;
    std::vector<std::uint64_t> takes_;      ///< cycles x window_ rows
    std::vector<std::int64_t> steal_at_;    ///< cycles + 1 offsets
    std::vector<StolenOp> steals_;
    std::vector<std::int64_t> raw_end_;
    std::vector<std::int64_t> raw_lo_;
    std::vector<std::int64_t> raw_hi_;
    std::vector<ScheduledOp> ops_;
};

/**
 * Pack one B tile into its compressed stream under the (db1,db2,db3)
 * borrow window, given the tile's queues (tileQueues of the B tile
 * under `shuffler`, the shuffle the stream records).  Preprocessing is
 * offline, so no bandwidth cap applies — the window depth itself is
 * the only packing limit.
 *
 * @param record keep the raw packing ops for verification
 */
BSchedule preprocessB(const SlotQueues &queues, const Borrow &db,
                      const Shuffler &shuffler, bool record);

/** preprocessB over the tile's queues, built here under `shuffler`. */
BSchedule preprocessB(const TileViewB &b, const Borrow &db,
                      const Shuffler &shuffler, bool record);

/** preprocessB()'s packing statistics without the stream (`cycles`
 *  is its length): all single-sparse B simulation needs. */
ScheduleStats scheduleB(const SlotQueues &queues, const Borrow &db);

} // namespace griffin

#endif // GRIFFIN_SCHED_B_PREPROCESS_HH
