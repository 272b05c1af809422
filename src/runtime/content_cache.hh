/**
 * @file
 * Key and counter types of the runtime's content-addressed workset
 * cache (workset_cache.hh).
 *
 * A cached value is addressed by 128 bits of splitmix-mixed content
 * hash (ContentHasher) over every input its computation depends on;
 * collisions are treated as impossible (a sweep holds ~1e4 entries,
 * collision odds ~1e-30).  CacheStats is the counter record the cache
 * reports and the metrics registry, the perf document, and the stats
 * JSON line publish.
 */

#ifndef GRIFFIN_RUNTIME_CONTENT_CACHE_HH
#define GRIFFIN_RUNTIME_CONTENT_CACHE_HH

#include <cstdint>
#include <cstring>

#include "common/rng.hh"

namespace griffin {

/** 128-bit content key of one cached entry. */
struct CacheKey128
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool
    operator==(const CacheKey128 &o) const
    {
        return lo == o.lo && hi == o.hi;
    }
    bool operator!=(const CacheKey128 &o) const { return !(*this == o); }
};

/** Aggregate counters (monotone except entries/residentBytes). */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;  ///< includes concurrent recomputes
    std::uint64_t entries = 0; ///< resident values
    std::uint64_t residentBytes = 0; ///< approx footprint of entries
    std::uint64_t evictions = 0; ///< entries dropped by byte budget
    /** Entries restored from a cache file (cache_store.hh). */
    std::uint64_t loadedEntries = 0;
    /** Hits served by a disk-loaded entry: the computation was skipped
     *  entirely thanks to a previous run. */
    std::uint64_t loadHits = 0;

    double
    hitRate() const
    {
        const auto total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/**
 * Two independently-salted splitmix streams folded over a sequence of
 * words: the 128-bit key derivation.  The salt pair fixes the key
 * distribution; fold every input the computation depends on.
 */
class ContentHasher
{
  public:
    ContentHasher(std::uint64_t salt_lo, std::uint64_t salt_hi,
                  std::uint64_t init)
        : lo_(Rng::mixSeed(salt_lo, init)),
          hi_(Rng::mixSeed(salt_hi, init))
    {
    }

    void
    fold(std::uint64_t v)
    {
        lo_ = Rng::mixSeed(lo_, v);
        hi_ = Rng::mixSeed(hi_, v + 0x9e37ULL);
    }

    /** Fold a double by bit pattern (distinguishes -0.0 from 0.0, which
     *  is fine: generators treat them identically but keys need not). */
    void
    foldDouble(double v)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
        std::memcpy(&bits, &v, sizeof(bits));
        fold(bits);
    }

    CacheKey128 key() const { return CacheKey128{lo_, hi_}; }

  private:
    std::uint64_t lo_;
    std::uint64_t hi_;
};

} // namespace griffin

#endif // GRIFFIN_RUNTIME_CONTENT_CACHE_HH
