/**
 * @file
 * The AVX-512 table: the AVX2 table with the weight generator's row
 * fill (fillRow) compiled for AVX-512.  The fill is the shared loop of
 * kernels.hh under a target attribute, with no intrinsics; the
 * compiler vectorizes it eight 64-bit lanes at a time (vpmullq is
 * AVX-512DQ).  Dispatch (occupancy.cc) prefers this table when the CPU
 * reports exactly the features the attribute names, AVX-512
 * F/BW/VL/DQ.
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
fillRowAvx512(std::uint64_t key, std::uint64_t below, std::int64_t n,
              std::int8_t *out)
{
    fillRowLoop(key, below, n, out);
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
        t.fillRow = fillRowAvx512;
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
