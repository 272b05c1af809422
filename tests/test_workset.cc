/**
 * @file
 * Tests for the stage-1 pipeline artifact (tensor/workset.hh) and its
 * content-addressed cache (runtime/workset_cache.hh): generation
 * determinism, cold-vs-warm bit-identity through Accelerator::runLayer,
 * shared ownership across clear(), budget semantics and eviction
 * correctness, concurrent obtain(), serialization round-trips, the
 * GRFW cache file's tolerance of missing, mismatched, and truncated
 * files, and the stats surfaced through writeCacheStatsJsonLine.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "arch/presets.hh"
#include "griffin/accelerator.hh"
#include "runtime/cache_store.hh"
#include "runtime/result_sink.hh"
#include "runtime/thread_pool.hh"
#include "runtime/workset_cache.hh"
#include "workloads/network.hh"

namespace griffin {
namespace {

WorksetParams
tinyParams(std::uint64_t seed = 7)
{
    WorksetParams p;
    p.m = 16;
    p.k = 64;
    p.n = 32;
    p.weightSparsity = 0.8;
    p.actSparsity = 0.5;
    p.weightLaneBias = 0.5;
    p.actRunLength = 2.0;
    p.seed = seed;
    return p;
}

void
expectWorksetEq(const LayerWorkset &x, const LayerWorkset &y)
{
    EXPECT_EQ(x.a, y.a);
    EXPECT_EQ(x.b, y.b);
    EXPECT_EQ(x.simSeed, y.simSeed);
    EXPECT_EQ(x.effectualOps, y.effectualOps);
    EXPECT_EQ(x.nnzB, y.nnzB);
}

TEST(Workset, GenerationIsDeterministic)
{
    const auto p = tinyParams();
    const auto w1 = generateLayerWorkset(p);
    const auto w2 = generateLayerWorkset(p);
    expectWorksetEq(w1, w2);
    EXPECT_EQ(w1.a.rows(), 16u);
    EXPECT_EQ(w1.a.cols(), 64u);
    EXPECT_EQ(w1.b.rows(), 64u);
    EXPECT_EQ(w1.b.cols(), 32u);
    EXPECT_EQ(w1.effectualOps, countEffectualOps(w1.a, w1.b));
    EXPECT_EQ(w1.nnzB, static_cast<std::int64_t>(w1.b.nnz()));
}

TEST(Workset, SeedAndShapeChangeTheKeyAndTheData)
{
    const auto p = tinyParams(7);
    auto p2 = tinyParams(8);
    EXPECT_NE(WorksetCache::contentKey(p), WorksetCache::contentKey(p2));
    auto p3 = tinyParams(7);
    p3.n = 48;
    EXPECT_NE(WorksetCache::contentKey(p), WorksetCache::contentKey(p3));
    auto p4 = tinyParams(7);
    p4.weightLaneBias = 0.25;
    EXPECT_NE(WorksetCache::contentKey(p), WorksetCache::contentKey(p4));
    EXPECT_EQ(WorksetCache::contentKey(p),
              WorksetCache::contentKey(tinyParams(7)));

    const auto w1 = generateLayerWorkset(p);
    const auto w2 = generateLayerWorkset(tinyParams(8));
    EXPECT_NE(w1.a, w2.a);
}

TEST(Workset, CacheReturnsGeneratedContent)
{
    WorksetCache cache;
    const auto p = tinyParams();
    const auto direct = generateLayerWorkset(p);
    const auto cold = cache.obtain(p);
    expectWorksetEq(*cold, direct);
    const auto warm = cache.obtain(p);
    EXPECT_EQ(cold.get(), warm.get()); // shared, not regenerated
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(Workset, ColdAndWarmRunLayerBitIdentical)
{
    const auto net = alexNet();
    const Accelerator acc(griffinArch());
    RunOptions opt;
    opt.rowCap = 8;
    opt.sim.sampleFraction = 0.25;
    opt.sim.minSampledTiles = 2;

    // Reference: no cache at all (the historical inline generation).
    const auto plain = acc.runLayer(net, 0, DnnCategory::AB, opt);

    WorksetCache cache;
    opt.worksetCache = &cache;
    const auto cold = acc.runLayer(net, 0, DnnCategory::AB, opt);
    const auto warm = acc.runLayer(net, 0, DnnCategory::AB, opt);
    EXPECT_GE(cache.stats().hits, 1u);

    for (const auto *lr : {&cold, &warm}) {
        EXPECT_EQ(lr->name, plain.name);
        EXPECT_EQ(lr->denseCycles, plain.denseCycles);
        EXPECT_EQ(lr->computeCycles, plain.computeCycles);
        EXPECT_EQ(lr->dramCycles, plain.dramCycles);
        EXPECT_EQ(lr->totalCycles, plain.totalCycles);
        EXPECT_EQ(lr->macs, plain.macs);
        EXPECT_DOUBLE_EQ(lr->speedup, plain.speedup);
    }
}

TEST(Workset, EvictionUnderTinyBudgetStaysCorrect)
{
    WorksetCache cache(1); // one shard: the budget applies exactly
    const auto p1 = tinyParams(1);
    const auto p2 = tinyParams(2);
    const auto w1 = cache.obtain(p1);
    // Budget below two resident worksets: inserting the second must
    // evict the first (FIFO), never corrupt either.
    cache.setByteBudget(w1->approxBytes() + 16);
    const auto w2 = cache.obtain(p2);
    const auto stats = cache.stats();
    EXPECT_GE(stats.evictions, 1u);
    EXPECT_LE(stats.entries, 1u);
    // The evicted workset's shared_ptr stays valid...
    expectWorksetEq(*w1, generateLayerWorkset(p1));
    // ...and re-obtaining regenerates bit-identical content.
    const auto w1_again = cache.obtain(p1);
    expectWorksetEq(*w1_again, *w1);
    expectWorksetEq(*w2, generateLayerWorkset(p2));
}

TEST(Workset, HeldEntriesSurviveClear)
{
    WorksetCache cache;
    const auto held = cache.obtain(tinyParams());
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().residentBytes, 0u);
    // Still alive through shared ownership.
    expectWorksetEq(*held, generateLayerWorkset(tinyParams()));
}

TEST(Workset, ZeroBudgetIsUnbounded)
{
    WorksetCache cache(1);
    // 0 also lifts an earlier cap.
    cache.setByteBudget(1);
    cache.setByteBudget(0);
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        cache.obtain(tinyParams(seed));
    EXPECT_EQ(cache.stats().entries, 4u);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(Workset, ConcurrentObtainEqualsSerialGeneration)
{
    WorksetCache cache;
    std::vector<std::shared_ptr<const LayerWorkset>> seen(32);
    {
        ThreadPool pool(4);
        for (std::size_t i = 0; i < seen.size(); ++i)
            pool.submit([&cache, &seen, i] {
                seen[i] = cache.obtain(tinyParams(1 + i % 4));
            });
        pool.wait();
    }
    // Racing double-generations are allowed, but every requester of a
    // key must get the serially generated content.
    for (std::size_t i = 0; i < seen.size(); ++i)
        expectWorksetEq(*seen[i], generateLayerWorkset(tinyParams(1 + i % 4)));
    const auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 4u);
    EXPECT_EQ(stats.hits + stats.misses, seen.size());
}

TEST(Workset, SerializeRoundTrips)
{
    const auto w = generateLayerWorkset(tinyParams());
    std::stringstream ss;
    w.serialize(ss);
    LayerWorkset back;
    ASSERT_TRUE(LayerWorkset::deserialize(ss, back));
    expectWorksetEq(back, w);

    // Truncated payloads are rejected, not trusted.
    const auto bytes = ss.str();
    std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
    LayerWorkset bad;
    EXPECT_FALSE(LayerWorkset::deserialize(truncated, bad));
}

TEST(Workset, CacheFileRoundTripCountsLoadHits)
{
    const std::string path =
        ::testing::TempDir() + "workset_roundtrip.grfw";
    const auto p = tinyParams();
    {
        WorksetCache cache;
        cache.obtain(p);
        EXPECT_EQ(saveWorksetCacheFile(path, cache), 1u);
    }
    WorksetCache warm;
    EXPECT_EQ(loadWorksetCacheFile(path, warm), 1u);
    const auto w = warm.obtain(p);
    expectWorksetEq(*w, generateLayerWorkset(p));
    const auto stats = warm.stats();
    EXPECT_EQ(stats.loadedEntries, 1u);
    EXPECT_EQ(stats.loadHits, 1u);
    EXPECT_EQ(stats.misses, 0u);
}

TEST(Workset, CacheFileMissingLoadsNothing)
{
    WorksetCache cache;
    EXPECT_EQ(loadWorksetCacheFile(
                  ::testing::TempDir() + "workset_nonexistent.grfw", cache),
              0u);
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(Workset, CacheFileBadMagicOrVersionIsIgnored)
{
    const std::string path = ::testing::TempDir() + "workset_bad.grfw";
    {
        std::ofstream os(path, std::ios::binary);
        os << "JUNKJUNKJUNK";
    }
    WorksetCache cache;
    EXPECT_EQ(loadWorksetCacheFile(path, cache), 0u);
    {
        // Right magic, wrong version byte: whole-file invalidation.
        std::ofstream os(path, std::ios::binary);
        os << "GRFW" << '\x7f' << "rest";
    }
    EXPECT_EQ(loadWorksetCacheFile(path, cache), 0u);
    EXPECT_EQ(cache.stats().entries, 0u);
    std::remove(path.c_str());
}

TEST(Workset, CacheFileTruncatedKeepsCleanPrefix)
{
    const std::string path = ::testing::TempDir() + "workset_trunc.grfw";
    {
        WorksetCache warm;
        for (std::uint64_t seed = 1; seed <= 3; ++seed)
            warm.obtain(tinyParams(seed));
        ASSERT_EQ(saveWorksetCacheFile(path, warm), 3u);
    }
    // Chop the last bytes off the final entry.
    std::stringstream whole;
    {
        std::ifstream in(path, std::ios::binary);
        whole << in.rdbuf();
    }
    const auto bytes = whole.str();
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size() - 16));
    }
    WorksetCache cold;
    EXPECT_EQ(loadWorksetCacheFile(path, cold), 2u);
    EXPECT_EQ(cold.stats().entries, 2u);
    EXPECT_EQ(cold.stats().loadedEntries, 2u);
    std::remove(path.c_str());
}

TEST(Workset, StatsSurfaceThroughJsonLine)
{
    WorksetCache cache(1);
    const auto w1 = cache.obtain(tinyParams(1));
    cache.setByteBudget(w1->approxBytes() + 16);
    cache.obtain(tinyParams(2)); // evicts 1
    cache.obtain(tinyParams(2)); // hit

    std::ostringstream os;
    writeCacheStatsJsonLine(os, cache.stats(), "workset_cache_stats");
    const auto line = os.str();
    EXPECT_NE(line.find("{\"workset_cache_stats\": {"),
              std::string::npos);
    EXPECT_NE(line.find("\"evictions\": 1"), std::string::npos);
    EXPECT_NE(line.find("\"load_hits\": 0"), std::string::npos);
    EXPECT_NE(line.find("\"hits\": 1"), std::string::npos);
}

} // namespace
} // namespace griffin
