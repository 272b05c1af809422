/**
 * @file
 * Content-addressed cache of layer worksets — the stage-1 artifact of
 * the staged simulation pipeline (tensor/workset.hh).
 *
 * Along the architecture axis of a sweep grid, every design point
 * with the same tile height consumes the *same* generated operands:
 * the workset is a pure function of (layer shape, sparsity rates,
 * generation knobs, layer stream seed), none of which the arch axis
 * touches.  The monolithic simulator regenerated them per job; this
 * cache keys the workset by a 128-bit content hash of exactly those
 * parameters (WorksetCache::contentKey) and shares one immutable
 * LayerWorkset across every job that asks.
 *
 * Policy: hash-sharded maps behind per-shard mutexes, generation
 * outside the lock (first finisher wins), an optional byte budget with
 * FIFO-per-shard eviction, and load/hit stats that distinguish
 * disk-restored entries.  Worksets can be large (B is a full k x n
 * weight matrix), so the drivers and the runner bound the cache by
 * default; eviction never changes a result, only regeneration cost.
 *
 * Persistence: cache_store.hh serializes worksets to a versioned GRFW
 * file between runs; entries restored from disk are tracked separately
 * (Stats::loadedEntries / loadHits) so a warm run can report how much
 * generation the file actually skipped.
 */

#ifndef GRIFFIN_RUNTIME_WORKSET_CACHE_HH
#define GRIFFIN_RUNTIME_WORKSET_CACHE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.hh"
#include "runtime/content_cache.hh"
#include "tensor/workset.hh"

namespace griffin {

/**
 * Default resident-byte bound for driver-owned and runner-owned
 * workset caches.  Worksets hold whole weight matrices, so unbounded
 * retention across a large sweep costs hundreds of megabytes; 256 MiB
 * keeps the arch-axis reuse window while bounding the footprint.
 */
constexpr std::uint64_t defaultWorksetByteBudget = 256ull << 20;

/**
 * Shard count sized to the budget: worksets are large, so the
 * per-shard slice of a byte budget must stay bigger than one entry or
 * big-layer worksets evict on insert.
 */
constexpr std::size_t defaultWorksetShards = 4;

/**
 * Thread-safe: the map is sharded by key hash, each shard behind its
 * own mutex.  On a miss the workset is generated *outside* the shard
 * lock (generation takes milliseconds; holding the lock would
 * serialise the pool) and the first finisher wins — generation is
 * deterministic, so concurrent double-generations insert equal values.
 */
class WorksetCache
{
  public:
    using Key = CacheKey128;
    using Stats = CacheStats;

    explicit WorksetCache(std::size_t shards = defaultWorksetShards);

    /**
     * The workset of one parameter record, generated on first request
     * and shared afterwards.  The returned workset is immutable and
     * outlives the cache entry (shared ownership), so callers may hold
     * it across clear() or eviction.
     */
    std::shared_ptr<const LayerWorkset>
    obtain(const WorksetParams &params);

    /**
     * Insert one disk-restored workset under its stored key, marking it
     * disk-loaded for Stats purposes.  An already-present key is left
     * alone (the resident entry is identical by construction).  Returns
     * whether the entry was inserted.
     */
    bool insertLoaded(const Key &key, LayerWorkset workset);

    Stats stats() const;

    /** Drop every entry (stat counters survive). */
    void clear();

    /**
     * Cap resident workset bytes (LayerWorkset::approxBytes units;
     * 0 = unbounded, the default).  Each of the N shards evicts FIFO —
     * oldest insertion first — once it holds more than budget/N bytes.
     * Applies immediately to current residents and to every later
     * insert.
     */
    void setByteBudget(std::uint64_t bytes);

    /**
     * Visit every resident entry (shard by shard, under that shard's
     * lock — the callback must not reenter the cache).  Iteration
     * order is unspecified; the cache store sorts by key for a
     * deterministic file layout.
     */
    void forEachEntry(
        const std::function<void(
            const Key &, const std::shared_ptr<const LayerWorkset> &)> &fn)
        const;

    /**
     * The key of one workset: every WorksetParams field, doubles by
     * bit pattern.  Part of the persistent cache-file contract
     * (cache_store.hh): changing it requires a GRFW version bump.
     */
    static Key contentKey(const WorksetParams &params);

  private:
    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            return static_cast<std::size_t>(k.lo);
        }
    };

    struct Entry
    {
        std::shared_ptr<const LayerWorkset> value;
        std::uint64_t bytes = 0;
        bool fromDisk = false;
    };

    struct Shard
    {
        mutable Mutex mu;
        std::unordered_map<Key, Entry, KeyHash> entries
            GRIFFIN_GUARDED_BY(mu);
        /** Insertion order, for eviction. */
        std::deque<Key> fifo GRIFFIN_GUARDED_BY(mu);
        std::uint64_t bytes GRIFFIN_GUARDED_BY(mu) = 0;
        std::uint64_t hits GRIFFIN_GUARDED_BY(mu) = 0;
        std::uint64_t misses GRIFFIN_GUARDED_BY(mu) = 0;
        std::uint64_t evictions GRIFFIN_GUARDED_BY(mu) = 0;
        std::uint64_t loaded GRIFFIN_GUARDED_BY(mu) = 0;
        std::uint64_t loadHits GRIFFIN_GUARDED_BY(mu) = 0;
    };

    Shard &shardFor(const Key &key);

    /** Insert under the shard lock, then evict down to the budget;
     *  returns the resident value (null if it was evicted at once). */
    std::shared_ptr<const LayerWorkset>
    insert(Shard &shard, const Key &key,
           std::shared_ptr<const LayerWorkset> value, bool from_disk,
           bool &inserted);

    void evictOver(Shard &shard) GRIFFIN_REQUIRES(shard.mu);

    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<std::uint64_t> byteBudget_{0};
};

/**
 * Obtain through `cache` when the caller provided one, generate
 * locally otherwise.  The workset is identical either way — the cache
 * only skips regeneration.
 */
std::shared_ptr<const LayerWorkset>
obtainWorkset(WorksetCache *cache, const WorksetParams &params);

} // namespace griffin

#endif // GRIFFIN_RUNTIME_WORKSET_CACHE_HH
