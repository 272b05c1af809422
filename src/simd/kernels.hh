/**
 * @file
 * Internal seam between the dispatcher (occupancy.cc) and the backend
 * translation units.  Each backend TU exports exactly one accessor;
 * unsupported backends return nullptr so the dispatcher needs no
 * per-architecture preprocessor logic.  It also holds one helper
 * shared by the occupancy extractors and the SparTen baseline.
 */

#ifndef GRIFFIN_SIMD_KERNELS_HH
#define GRIFFIN_SIMD_KERNELS_HH

#include "simd/occupancy.hh"

namespace griffin {
namespace simd {
namespace detail {

/** The portable reference kernels; always available. */
const KernelTable &scalarTable();

/** AVX2 kernels when the build targets x86 and the CPU has AVX2. */
const KernelTable *avx2Table();

/** NEON kernels when the build targets ARM with NEON. */
const KernelTable *neonTable();

/**
 * Nonzero masks of `len` contiguous bytes through the active backend:
 * bit j of out[w] is set iff row[w*64 + j] != 0, and bits past `len`
 * are 0.  `out` holds (len + 63) / 64 words.
 */
void rowNonzeroMasks(const std::int8_t *row, std::int64_t len,
                     std::uint64_t *out);

} // namespace detail
} // namespace simd
} // namespace griffin

#endif // GRIFFIN_SIMD_KERNELS_HH
