#include "runtime/workset_cache.hh"

#include <algorithm>

#include "common/logging.hh"
#include "runtime/telemetry.hh"

namespace griffin {

WorksetCache::WorksetCache(std::size_t shards)
{
    if (shards == 0)
        fatal("workset cache needs at least 1 shard");
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

WorksetCache::Key
WorksetCache::contentKey(const WorksetParams &params)
{
    // Salts and fold order are frozen: cache files persist these keys
    // (cache_store.hh), so any change here is a GRFW version bump.
    ContentHasher h(0x0b5e55edULL, 0x7e4a50e5ULL, params.seed);
    h.fold(static_cast<std::uint64_t>(params.m));
    h.fold(static_cast<std::uint64_t>(params.k));
    h.fold(static_cast<std::uint64_t>(params.n));
    h.foldDouble(params.weightSparsity);
    h.foldDouble(params.actSparsity);
    h.foldDouble(params.weightLaneBias);
    h.foldDouble(params.actRunLength);
    h.fold(static_cast<std::uint64_t>(params.lanePeriod));
    return h.key();
}

std::shared_ptr<const LayerWorkset>
WorksetCache::obtain(const WorksetParams &params)
{
    const Key key = contentKey(params);
    Shard &shard = shardFor(key);
    {
        MutexLock lock(shard.mu);
        auto it = shard.entries.find(key);
        if (it != shard.entries.end()) {
            ++shard.hits;
            if (it->second.fromDisk)
                ++shard.loadHits;
            return it->second.value;
        }
        ++shard.misses;
    }

    // Generate outside the lock; a concurrent requester of the same
    // key regenerates the identical workset and the first insert wins.
    // Only this miss path is the operand_gen stage: a hit costs a hash
    // lookup and should not inflate the stage total.
    std::shared_ptr<const LayerWorkset> fresh;
    {
        ScopedSpan span("operand_gen");
        fresh = std::make_shared<const LayerWorkset>(
            generateLayerWorkset(params));
    }
    bool inserted = false;
    auto resident = insert(shard, key, fresh, false, inserted);
    return resident != nullptr ? resident : fresh;
}

bool
WorksetCache::insertLoaded(const Key &key, LayerWorkset workset)
{
    bool inserted = false;
    insert(shardFor(key), key,
           std::make_shared<const LayerWorkset>(std::move(workset)), true,
           inserted);
    return inserted;
}

WorksetCache::Stats
WorksetCache::stats() const
{
    Stats s;
    for (const auto &shard : shards_) {
        MutexLock lock(shard->mu);
        s.hits += shard->hits;
        s.misses += shard->misses;
        s.entries += shard->entries.size();
        s.residentBytes += shard->bytes;
        s.evictions += shard->evictions;
        s.loadedEntries += shard->loaded;
        s.loadHits += shard->loadHits;
    }
    return s;
}

void
WorksetCache::clear()
{
    for (auto &shard : shards_) {
        MutexLock lock(shard->mu);
        shard->entries.clear();
        shard->fifo.clear();
        shard->bytes = 0;
    }
}

void
WorksetCache::setByteBudget(std::uint64_t bytes)
{
    byteBudget_.store(bytes);
    for (auto &shard : shards_) {
        MutexLock lock(shard->mu);
        evictOver(*shard);
    }
}

void
WorksetCache::forEachEntry(
    const std::function<void(
        const Key &, const std::shared_ptr<const LayerWorkset> &)> &fn)
    const
{
    for (const auto &shard : shards_) {
        MutexLock lock(shard->mu);
        for (const auto &[key, entry] : shard->entries)
            fn(key, entry.value);
    }
}

WorksetCache::Shard &
WorksetCache::shardFor(const Key &key)
{
    return *shards_[key.hi % shards_.size()];
}

std::shared_ptr<const LayerWorkset>
WorksetCache::insert(Shard &shard, const Key &key,
                     std::shared_ptr<const LayerWorkset> value,
                     bool from_disk, bool &inserted)
{
    const auto bytes = static_cast<std::uint64_t>(value->approxBytes());
    MutexLock lock(shard.mu);
    auto [it, fresh] =
        shard.entries.emplace(key, Entry{std::move(value), bytes, from_disk});
    inserted = fresh;
    if (fresh) {
        shard.fifo.push_back(key);
        shard.bytes += bytes;
        if (from_disk)
            ++shard.loaded;
        // The fresh entry itself may be the FIFO victim of an
        // over-tight budget; the caller still gets its value (ownership
        // is shared), only residency changes.
        evictOver(shard);
    }
    auto found = shard.entries.find(key);
    return found != shard.entries.end() ? found->second.value : nullptr;
}

void
WorksetCache::evictOver(Shard &shard)
{
    const auto budget = byteBudget_.load();
    if (budget == 0)
        return;
    const auto shard_budget =
        std::max<std::uint64_t>(1, budget / shards_.size());
    while (shard.bytes > shard_budget && !shard.fifo.empty()) {
        const Key victim = shard.fifo.front();
        shard.fifo.pop_front();
        auto it = shard.entries.find(victim);
        if (it == shard.entries.end())
            continue; // already dropped by clear()
        shard.bytes -= it->second.bytes;
        shard.entries.erase(it);
        ++shard.evictions;
    }
}

std::shared_ptr<const LayerWorkset>
obtainWorkset(WorksetCache *cache, const WorksetParams &params)
{
    if (cache != nullptr)
        return cache->obtain(params);
    ScopedSpan span("operand_gen");
    return std::make_shared<const LayerWorkset>(
        generateLayerWorkset(params));
}

} // namespace griffin
