/**
 * @file
 * The AVX-512 table: the AVX2 table with the three shared loops of
 * kernels.hh compiled for AVX-512, each under a target attribute, with
 * no intrinsics.  One is the weight generator's keep bits (keepBlock,
 * the column masks every engine reads B as), which the compiler
 * vectorizes eight 64-bit lanes at a time (vpmullq is AVX-512DQ), 64
 * rows to a column.  Two read a B stream's take rows for every PE
 * column at once: the packing cycle's raw extents (takeExtents, a take
 * word's fields tested together, then one widening pass over the
 * columns) and the dual engine's one-word live masks (liveMasks, where
 * lanes is 8, 16, 32 or 64 one widening load and one vector of masks
 * per row for 8 columns).  Dispatch (occupancy.cc) prefers this table
 * when the CPU reports exactly the features the attribute names,
 * AVX-512 F/BW/VL/DQ.
 *
 * Byte-exactness against kernels_scalar.cc is pinned by
 * tests/test_simd.cc.
 */

#include "simd/kernels.hh"

#if defined(__x86_64__) || defined(__i386__)

namespace griffin {
namespace simd {
namespace detail {

namespace {

__attribute__((target("avx512f,avx512bw,avx512vl,avx512dq"))) void
keepBlockAvx512(const std::uint64_t *keys, const std::uint64_t *belows,
                int width, std::int8_t *block)
{
    keepBlockLoop(keys, belows, width, block);
}

__attribute__((target("avx512f,avx512bw,avx512vl,avx512dq"))) void
takeExtentsAvx512(const std::uint64_t *takes, std::int64_t words,
                  std::int64_t depth, int lanes, int cols, std::int64_t base,
                  std::int64_t *lo, std::int64_t *hi)
{
    takeExtentsLoop(takes, words, depth, lanes, cols, base, lo, hi);
}

__attribute__((target("avx512f,avx512bw,avx512vl,avx512dq"))) void
liveMasksAvx512(const std::uint64_t *takes, std::int64_t words,
                std::int64_t depth, const std::uint64_t *a, int lanes,
                int rows, int cols, std::uint64_t *out)
{
    liveMasksLoop(takes, words, depth, a, lanes, rows, cols, out);
}

bool
hasAvx512()
{
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vl") &&
           __builtin_cpu_supports("avx512dq");
}

} // namespace

const KernelTable *
avx512Table()
{
    const KernelTable *avx2 = avx2Table();
    if (avx2 == nullptr || !hasAvx512())
        return nullptr;
    static const KernelTable table = [avx2] {
        KernelTable t = *avx2;
        t.keepBlock = keepBlockAvx512;
        t.takeExtents = takeExtentsAvx512;
        t.liveMasks = liveMasksAvx512;
        return t;
    }();
    return &table;
}

} // namespace detail
} // namespace simd
} // namespace griffin

#else // non-x86 builds have no AVX-512 backend

namespace griffin {
namespace simd {
namespace detail {

const KernelTable *
avx512Table()
{
    return nullptr;
}

} // namespace detail
} // namespace simd
} // namespace griffin

#endif
