#include "simd/occupancy.hh"

#include <cstdlib>

#include "common/arena.hh"
#include "simd/kernels.hh"

namespace griffin {
namespace simd {

namespace {

bool
forceScalar()
{
#if defined(GRIFFIN_FORCE_SCALAR)
    return true;
#else
    // A set, non-empty, non-"0" GRIFFIN_FORCE_SCALAR pins the scalar
    // backend — the e2e dispatch test and the forced-scalar CI leg
    // both drive this knob.
    const char *env = std::getenv("GRIFFIN_FORCE_SCALAR");
    return env != nullptr && env[0] != '\0' &&
           !(env[0] == '0' && env[1] == '\0');
#endif
}

Backend
chooseBackend()
{
    if (forceScalar())
        return Backend::Scalar;
    if (detail::avx2Table() != nullptr)
        return Backend::Avx2;
    if (detail::neonTable() != nullptr)
        return Backend::Neon;
    return Backend::Scalar;
}

} // namespace

const char *
backendName(Backend backend)
{
    switch (backend) {
      case Backend::Avx2:
        return "avx2";
      case Backend::Neon:
        return "neon";
      case Backend::Scalar:
        break;
    }
    return "scalar";
}

Backend
activeBackend()
{
    static const Backend backend = chooseBackend();
    return backend;
}

const KernelTable &
kernels()
{
    static const KernelTable &table = []() -> const KernelTable & {
        switch (activeBackend()) {
          case Backend::Avx2:
            return *detail::avx2Table();
          case Backend::Neon:
            return *detail::neonTable();
          case Backend::Scalar:
            break;
        }
        return detail::scalarTable();
    }();
    return table;
}

const KernelTable &
scalarKernels()
{
    return detail::scalarTable();
}

const KernelTable *
avx2Kernels()
{
    return detail::avx2Table();
}

const KernelTable *
neonKernels()
{
    return detail::neonTable();
}

void
detail::rowNonzeroMasks(const std::int8_t *row, std::int64_t len,
                        std::uint64_t *out)
{
    const auto &k = kernels();
    const std::int64_t full = len / 64;
    if (full > 0)
        k.nonzeroMasks(row, 64, 64, full, out);
    if (len % 64 != 0)
        k.nonzeroMasks(row + full * 64, 0, static_cast<int>(len % 64), 1,
                       out + full);
}

void
bTileOccupancy(const MatrixI8 &b, std::int64_t col_base, int units,
               std::int64_t steps, int k0, std::uint64_t *out)
{
    GRIFFIN_ASSERT(units >= 1 && units <= 64,
                   "B occupancy needs 1..64 units, got ", units);
    GRIFFIN_ASSERT(col_base >= 0, "negative column base ", col_base);
    const std::int64_t flat = steps * k0;
    const auto rows = static_cast<std::int64_t>(b.rows());
    const auto cols = static_cast<std::int64_t>(b.cols());
    // Rows of B are contiguous along n: one masked compare per flat-k
    // row covers the whole unit axis.  The matrix edge clips the
    // width; everything past it is tile zero padding.
    const std::int64_t valid = std::min(flat, rows);
    const std::int64_t width =
        col_base < cols
            ? std::min<std::int64_t>(units, cols - col_base)
            : 0;
    if (width > 0 && valid > 0)
        kernels().nonzeroMasks(b.data() + col_base,
                               static_cast<std::size_t>(cols),
                               static_cast<int>(width), valid, out);
    for (std::int64_t r = (width > 0 ? valid : 0); r < flat; ++r)
        out[r] = 0;
}

void
aTileOccupancy(const MatrixI8 &a, std::int64_t row_base, int units,
               std::int64_t steps, int k0, std::uint64_t *out)
{
    GRIFFIN_ASSERT(units >= 1 && units <= 64,
                   "A occupancy needs 1..64 units, got ", units);
    GRIFFIN_ASSERT(row_base >= 0, "negative row base ", row_base);
    const std::int64_t flat = steps * k0;
    for (std::int64_t f = 0; f < flat; ++f)
        out[f] = 0;
    const auto rows = static_cast<std::int64_t>(a.rows());
    const auto cols = static_cast<std::int64_t>(a.cols());
    if (cols == 0)
        return;
    GRIFFIN_ASSERT(flat >= cols, "A occupancy buffer of ", flat,
                   " flat steps cannot cover k = ", cols);

    // A rows are contiguous along k: extract each unit's row as 64-bit
    // chunk masks, then scatter set bits into the per-flat-k masks —
    // proportional to nnz, not to the tile volume.
    Arena &arena = workArena();
    ArenaScope scope(arena);
    const std::int64_t chunks = (cols + 63) / 64;
    std::uint64_t *row_masks = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(chunks));
    for (int m = 0; m < units; ++m) {
        const std::int64_t r = row_base + m;
        if (r >= rows)
            break;
        const std::int8_t *row =
            a.data() + static_cast<std::size_t>(r) *
                           static_cast<std::size_t>(cols);
        detail::rowNonzeroMasks(row, cols, row_masks);
        const std::uint64_t unit_bit = std::uint64_t{1} << m;
        for (std::int64_t c = 0; c < chunks; ++c) {
            std::uint64_t word = row_masks[c];
            while (word != 0) {
                const int j = ctz64(word);
                word &= word - 1;
                out[c * 64 + j] |= unit_bit;
            }
        }
    }
}

} // namespace simd
} // namespace griffin
