/**
 * @file
 * Bump-pointer arena for per-layer scheduling worksets.
 *
 * The hot scheduling path builds the same transient structures for
 * every tile — occupancy masks, the engines' live slot bitsets, steal
 * masks, stream-cell scratch — and would otherwise hit the global
 * allocator for each of them.  The arena turns that into pointer
 * bumps: allocations are uninitialized, contiguous, and freed
 * wholesale by rewinding to a marker when the tile is done.
 *
 * Thread safety: an Arena is single-threaded by design.  The intended
 * use is the per-thread `workArena()`, so concurrent tiles on the
 * runner's workers never share one.  Memory is retained across
 * rewinds (per-thread high-water mark), which is exactly what a tile
 * loop wants: after the first tile, no allocation at all.
 */

#ifndef GRIFFIN_COMMON_ARENA_HH
#define GRIFFIN_COMMON_ARENA_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace griffin {

class Arena
{
  public:
    explicit Arena(std::size_t block_bytes = 1u << 16)
        : blockBytes_(block_bytes)
    {
        GRIFFIN_ASSERT(block_bytes > 0, "arena block size must be "
                       "positive");
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Rewind target: (block index, bytes used inside it). */
    struct Marker
    {
        std::size_t block = 0;
        std::size_t used = 0;
    };

    Marker mark() const { return {block_, used_}; }

    /**
     * Drop every allocation made after `m`.  The memory stays owned by
     * the arena and is reused by later allocations.
     */
    void
    rewind(const Marker &m)
    {
        GRIFFIN_ASSERT(m.block < blocks_.size() ||
                       (m.block == 0 && blocks_.empty()),
                       "arena marker outlives its blocks");
        block_ = m.block;
        used_ = m.used;
    }

    /**
     * `count` default-constructible trivially-destructible objects,
     * uninitialized, aligned for T.  The pointer is valid until the
     * covering marker is rewound past.
     */
    template <typename T>
    T *
    alloc(std::size_t count)
    {
        static_assert(std::is_trivially_destructible<T>::value,
                      "arena memory is reclaimed without destructors");
        const std::size_t bytes = count * sizeof(T);
        return static_cast<T *>(allocBytes(bytes, alignof(T)));
    }

    /** `count` value-initialized (zeroed) objects. */
    template <typename T>
    T *
    allocZeroed(std::size_t count)
    {
        T *p = alloc<T>(count);
        for (std::size_t i = 0; i < count; ++i)
            p[i] = T{};
        return p;
    }

  private:
    struct Block
    {
        std::unique_ptr<unsigned char[]> data;
        std::size_t size = 0;
    };

    void *
    allocBytes(std::size_t bytes, std::size_t align)
    {
        if (blocks_.empty())
            pushBlock(bytes + align);
        for (;;) {
            Block &b = blocks_[block_];
            const auto base =
                reinterpret_cast<std::uintptr_t>(b.data.get());
            const std::size_t aligned =
                (static_cast<std::size_t>(base) + used_ + align - 1) /
                    align * align -
                static_cast<std::size_t>(base);
            if (aligned + bytes <= b.size) {
                used_ = aligned + bytes;
                return b.data.get() + aligned;
            }
            // Current block is full: move to the next, growing the
            // chain if needed.  A block always fits the request.
            if (block_ + 1 == blocks_.size())
                pushBlock(bytes + align);
            ++block_;
            used_ = 0;
        }
    }

    void
    pushBlock(std::size_t at_least)
    {
        Block b;
        b.size = std::max(blockBytes_, at_least);
        // Default-initialized: make_unique would zero the block and so
        // touch every page of it, though alloc() hands out
        // uninitialized memory and allocZeroed() zeroes what it needs.
        b.data.reset(new unsigned char[b.size]);
        blocks_.push_back(std::move(b));
    }

    std::size_t blockBytes_;
    std::vector<Block> blocks_;
    std::size_t block_ = 0;
    std::size_t used_ = 0;
};

/** RAII rewind: allocations made inside the scope die with it. */
class ArenaScope
{
  public:
    explicit ArenaScope(Arena &arena)
        : arena_(arena), marker_(arena.mark())
    {
    }

    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

    ~ArenaScope() { arena_.rewind(marker_); }

  private:
    Arena &arena_;
    Arena::Marker marker_;
};

/**
 * The calling thread's scheduling arena.  Every worker thread gets its
 * own, so the runner's tasks never contend; memory persists for the
 * thread's lifetime at its high-water mark.
 */
inline Arena &
workArena()
{
    thread_local Arena arena(1u << 18);
    return arena;
}

} // namespace griffin

#endif // GRIFFIN_COMMON_ARENA_HH
