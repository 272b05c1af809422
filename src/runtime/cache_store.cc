#include "runtime/cache_store.hh"

#include <algorithm>
#include <fstream>
#include <utility>
#include <vector>

#include "common/binio.hh"
#include "common/logging.hh"

namespace griffin {

namespace {

constexpr char worksetMagic[4] = {'G', 'R', 'F', 'W'};

} // namespace

std::size_t
loadWorksetCacheFile(const std::string &path, WorksetCache &cache)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return 0; // no file yet: a normal first run

    char file_magic[4] = {};
    if (!is.read(file_magic, 4) ||
        !std::equal(file_magic, file_magic + 4, worksetMagic)) {
        warn("cache file '", path, "' has no GRFW magic; ignoring it");
        return 0;
    }
    char version = 0;
    if (!is.get(version).good() ||
        static_cast<unsigned char>(version) != worksetFileVersion) {
        warn("cache file '", path, "' is format version ",
             static_cast<int>(static_cast<unsigned char>(version)),
             ", expected ", static_cast<int>(worksetFileVersion),
             "; ignoring it");
        return 0;
    }
    std::uint64_t count = 0;
    if (!getU64(is, count)) {
        warn("cache file '", path, "' is truncated; ignoring it");
        return 0;
    }

    std::size_t inserted = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        WorksetCache::Key key;
        LayerWorkset workset;
        if (!getU64(is, key.lo) || !getU64(is, key.hi) ||
            !LayerWorkset::deserialize(is, workset)) {
            warn("cache file '", path, "' is corrupt after ", inserted,
                 " of ", count, " entries; keeping the clean prefix");
            return inserted;
        }
        if (cache.insertLoaded(key, std::move(workset)))
            ++inserted;
    }
    return inserted;
}

std::size_t
saveWorksetCacheFile(const std::string &path, const WorksetCache &cache)
{
    // Snapshot and sort by key so equal cache contents always produce
    // a byte-identical file, whatever order the shards iterate.
    using Entry = std::pair<WorksetCache::Key,
                            std::shared_ptr<const LayerWorkset>>;
    std::vector<Entry> entries;
    cache.forEachEntry(
        [&entries](const WorksetCache::Key &key,
                   const std::shared_ptr<const LayerWorkset> &w) {
            entries.emplace_back(key, w);
        });
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.first.hi != b.first.hi
                             ? a.first.hi < b.first.hi
                             : a.first.lo < b.first.lo;
              });

    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        fatal("cannot open cache file '", path, "' for writing");
    os.write(worksetMagic, 4);
    os.put(static_cast<char>(worksetFileVersion));
    putU64(os, static_cast<std::uint64_t>(entries.size()));
    for (const auto &[key, workset] : entries) {
        putU64(os, key.lo);
        putU64(os, key.hi);
        workset->serialize(os);
    }
    if (!os)
        fatal("write to cache file '", path, "' failed");
    return entries.size();
}

} // namespace griffin
