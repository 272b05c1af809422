/**
 * @file
 * Disk persistence for the workset cache (workset_cache.hh).
 *
 * Layer workset generation is a pure function of its content key, so
 * generated worksets are valid across process lifetimes.  This store
 * serializes the cache's resident entries, keyed by their 128-bit
 * content hash, to a versioned binary file; loading it before the next
 * sweep makes every previously-seen key a cache hit and skips its
 * generation entirely (Stats::loadHits counts exactly those).
 *
 * File format (all scalars fixed-width little-endian):
 *
 *   magic   "GRFW"                      4 bytes
 *   version 0x01                        1 byte
 *   count   u64                         number of entries
 *   entry*  key.lo u64, key.hi u64, LayerWorkset::serialize() payload
 *
 * Entries are written sorted by key, so saving the same cache contents
 * always produces a byte-identical file.
 *
 * Invalidation rules: content keys already encode every generation
 * input, so a stale *entry* is impossible — a changed shape, sparsity,
 * knob, or seed simply hashes to a new key and misses.  The format
 * version is the only whole-file invalidator: it must be bumped
 * whenever the serialized layout or the key derivation
 * (WorksetCache::contentKey / Rng::mixSeed) changes, and a version or
 * magic mismatch discards the file with a warn() rather than failing
 * the run.  Corrupt or truncated files are likewise discarded, never
 * trusted beyond the entries that fully parsed.
 */

#ifndef GRIFFIN_RUNTIME_CACHE_STORE_HH
#define GRIFFIN_RUNTIME_CACHE_STORE_HH

#include <cstddef>
#include <string>

#include "runtime/workset_cache.hh"

namespace griffin {

/** Current GRFW format version (invalidation rules above). */
constexpr unsigned char worksetFileVersion = 0x01;

/**
 * Restore entries from `path` into `cache` (marked disk-loaded for
 * Stats).  A missing file is a normal first run and returns 0; a
 * mismatched or corrupt file warn()s and returns however many entries
 * parsed cleanly before the damage.  Returns the number of entries
 * inserted.
 */
std::size_t loadWorksetCacheFile(const std::string &path,
                                 WorksetCache &cache);

/**
 * Write every resident entry of `cache` to `path`, replacing the file.
 * fatal() on an unwritable path.  Returns the number of entries
 * written.
 */
std::size_t saveWorksetCacheFile(const std::string &path,
                                 const WorksetCache &cache);

} // namespace griffin

#endif // GRIFFIN_RUNTIME_CACHE_STORE_HH
