/**
 * @file
 * Tile-occupancy bitmask kernels with runtime SIMD dispatch.
 *
 * The sparse schedulers only ever ask one question of an operand
 * element: is it nonzero?  This layer answers it in bulk — a tile's
 * occupancy becomes one bitmask word per temporal position (bit n set
 * iff the byte is nonzero), extracted with compare-to-zero + movemask
 * on AVX2, `vceqq`/narrowing on NEON, and a portable scalar loop
 * everywhere else.  The schedulers read each tile unit (an A row, a B
 * column) as one mask over k (`aRowMasks`, `bColumnMasks`, the latter
 * a 64 x 64 bit transpose of `bTileOccupancy`), cut it into one
 * lanes-wide field per step (`readField`) and keep those fields as
 * their queues — per-step slot bitsets after the shuffler's lane
 * rotation — so their cycle loops run a word at a time instead of
 * calling bounds-checked `nonzero()` per element.  The SparTen
 * baseline reads the same masks and asks one more question: how many
 * k positions a row mask shares with each column mask
 * (`andPopcount`).  Operand generation asks for one more: rows of
 * the weight generator (`fillRows`), one counter-based hash per
 * element.  The fill is one loop without intrinsics (simd/kernels.hh)
 * that the scalar table compiles for the build baseline and the
 * AVX-512 table compiles again under a target attribute.
 *
 * Dispatch: the backend is chosen once per process.  Order:
 *
 *   1. `GRIFFIN_FORCE_SCALAR` (a non-empty, non-"0" environment
 *      variable) pins the scalar fallback;
 *   2. AVX2 when the CPU reports it (cpuid via
 *      __builtin_cpu_supports).  When the CPU also reports AVX-512
 *      F/BW/VL/DQ, the backend (still Backend::Avx2, "avx2") runs the
 *      AVX-512 table: the AVX2 kernels with fillRows compiled for
 *      AVX-512 (avx512Kernels());
 *   3. NEON when compiled for an ARM target that has it;
 *   4. scalar.
 *
 * Every backend is byte-exact against the scalar reference
 * (tests/test_simd.cc), and the e2e baselines are byte-identical under
 * forced-scalar and auto dispatch (tests/simd_dispatch.cmake) — the
 * kernels are pure data-parallel rewrites, never behaviour changes.
 *
 * Raw intrinsics live only in src/simd/kernels_*.cc; griffin-lint's
 * intrinsics-outside-simd rule keeps it that way.  Everything here is
 * plain C++ over function pointers.
 */

#ifndef GRIFFIN_SIMD_OCCUPANCY_HH
#define GRIFFIN_SIMD_OCCUPANCY_HH

#include <cstdint>

#include "tensor/matrix.hh"

namespace griffin {
namespace simd {

enum class Backend { Scalar, Avx2, Neon };

/** Stable lower-case name ("scalar", "avx2", "neon") for reports. */
const char *backendName(Backend backend);

/**
 * One backend's kernel set.  Width contracts: `width` is 1..64 and no
 * kernel reads any byte outside the ranges named below, so callers may
 * pass views right up to an allocation edge (ASan-clean).
 */
struct KernelTable
{
    /**
     * Nonzero masks of `groups` rows, each `width` (1..64) bytes,
     * starting `stride` bytes apart: bit j of out[g] is set iff
     * src[g*stride + j] != 0; bits at and above `width` are 0.
     * Reads only [src + g*stride, src + g*stride + width) per group.
     */
    void (*nonzeroMasks)(const std::int8_t *src, std::size_t stride,
                         int width, std::int64_t groups,
                         std::uint64_t *out);

    /*
     * The next five run in no sweep, so every table holds the scalar
     * reference's copy.  countNonzero and accumulateNonzero serve
     * countEffectualOps (tests, examples/quickstart.cpp), and leMask
     * and minI64 the tests' CSR reference schedulers.  The benchmark
     * replay (perfbench/replay.cc) times all five through the table,
     * so they stay until it drops those timings.
     */

    /** Number of nonzero bytes in [src, src + len). */
    std::int64_t (*countNonzero)(const std::int8_t *src,
                                 std::size_t len);

    /** counts[i] += (src[i] != 0) for i in [0, len). */
    void (*accumulateNonzero)(const std::int8_t *src, std::size_t len,
                              std::int32_t *counts);

    /**
     * Pack bit s of out[s/64] = (heads[s] <= horizon) for s in [0, n).
     * Bits at and above n in the last word are zero.
     */
    void (*leMask)(const std::int64_t *heads, std::int64_t n,
                   std::int64_t horizon, std::uint64_t *out);

    /** Minimum of heads[0..n); INT64_MAX when n == 0. */
    std::int64_t (*minI64)(const std::int64_t *heads, std::int64_t n);

    /**
     * MT19937-64 output tempering of `n` raw state words (the shift /
     * xor / mask cascade from [rand.eng.mers]).  out[i] may alias
     * nothing in [src, src + n).
     */
    void (*mtTemper)(const std::uint64_t *src, std::int64_t n,
                     std::uint64_t *out);

    /**
     * `rows` rows of counter-based weights, `n` wide, row r at out +
     * r * n: for c in [0, n), with h = Rng::counterDraw(keys[r], c),
     * out[r * n + c] is Rng::nonzeroInt8FromDraw(h << 32) when h >> 32
     * < belows[r], else 0.  Every belows[r] is in [0, 2^32] (0 keeps
     * nothing, 2^32 everything), a key may be any value (the counter
     * wraps mod 2^64), and rows and n may be 0.  Writes only [out,
     * out + rows * n).
     */
    void (*fillRows)(const std::uint64_t *keys, const std::uint64_t *belows,
                     std::int64_t rows, std::int64_t n, std::int8_t *out);
};

/** The backend picked by the dispatch order above (cached). */
Backend activeBackend();

/** Kernels of the active backend. */
const KernelTable &kernels();

/** The portable reference implementation (always available). */
const KernelTable &scalarKernels();

/** AVX2 kernels, or nullptr when the CPU/build lacks AVX2. */
const KernelTable *avx2Kernels();

/**
 * The AVX2 kernels with fillRows compiled for AVX-512, or nullptr when
 * the CPU/build lacks AVX2 or any of AVX-512 F/BW/VL/DQ.
 */
const KernelTable *avx512Kernels();

/** NEON kernels, or nullptr when not built for an ARM NEON target. */
const KernelTable *neonKernels();

/**
 * Portable popcount (not confined: contains no intrinsics).  On x86-64
 * the build baseline includes POPCNT (-mpopcnt, CMakeLists.txt), so
 * this compiles to one instruction wherever it is inlined rather than
 * to a call into libgcc's __popcountdi2; the popcount_native ctest
 * holds that line.
 */
inline int
popcount64(std::uint64_t word)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_popcountll(word);
#else
    int n = 0;
    while (word != 0) {
        word &= word - 1;
        ++n;
    }
    return n;
#endif
}

/** Index of the lowest set bit; undefined for word == 0. */
inline int
ctz64(std::uint64_t word)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctzll(word);
#else
    int n = 0;
    while ((word & 1u) == 0) {
        word >>= 1;
        ++n;
    }
    return n;
#endif
}

/**
 * Bits [at, at + width) of a bit vector (bit i of word i / 64 is bit
 * i % 64), width 1..64, as the low bits of one word.  Reads only the
 * words holding those bits.
 */
inline std::uint64_t
readField(const std::uint64_t *bits, std::int64_t at, int width)
{
    const int r = static_cast<int>(at & 63);
    std::uint64_t x = bits[at >> 6] >> r;
    if (r + width > 64)
        x |= bits[(at >> 6) + 1] << (64 - r);
    return width == 64 ? x : x & ((std::uint64_t{1} << width) - 1);
}

/** OR the low `width` (1..64) bits of `field` into bits [at, at +
 *  width) of a bit vector; bits of `field` above width must be 0. */
inline void
orField(std::uint64_t *bits, std::int64_t at, int width,
        std::uint64_t field)
{
    const int r = static_cast<int>(at & 63);
    bits[at >> 6] |= field << r;
    if (r + width > 64)
        bits[(at >> 6) + 1] |= field >> (64 - r);
}

/**
 * B-tile occupancy: out[k1*k0 + k2] bit n set iff the tile element
 * (k1, k2, n) — matrix cell (k1*k0 + k2, col_base + n) — is nonzero.
 * `out` holds steps*k0 words.  Positions past the matrix edge (rows
 * beyond b.rows(), columns beyond b.cols()) read as zero, matching the
 * zero-padded TileViewB.  Requires units <= 64.
 */
void bTileOccupancy(const MatrixI8 &b, std::int64_t col_base, int units,
                    std::int64_t steps, int k0, std::uint64_t *out);

/**
 * A-tile row masks over k: bit i of out[m * words + w] is set iff the
 * matrix cell (row_base + m, w * 64 + i) is nonzero.  `out` holds
 * units * words words.  Rows past the matrix edge and k at or past
 * a.cols() read as zero, matching the zero-padded TileViewA.
 * Requires words * 64 >= a.cols().
 */
void aRowMasks(const MatrixI8 &a, std::int64_t row_base,
               std::int64_t units, std::int64_t words, std::uint64_t *out);

/**
 * Overlap counts of one bit vector against `count` others, each
 * `words` 64-bit words long: out[i] = sum over w < words of
 * popcount(x[w] & ys[i*words + w]) for i in [0, count).  Reads only
 * [x, x + words) and [ys, ys + count*words); `words` may be 0 (every
 * count is 0) and is below 2^25, so a count fits int32.  No pointer
 * needs any alignment beyond its element type's.  One portable loop
 * on every backend (popcount64 is one POPCNT on x86-64).
 */
void andPopcount(const std::uint64_t *x, const std::uint64_t *ys,
                 std::int64_t words, std::int64_t count, std::int32_t *out);

/**
 * B-tile column masks over k, bTileOccupancy transposed: bit i of
 * out[n * words + w] is set iff the matrix cell (w * 64 + i,
 * col_base + n) is nonzero.  `out` holds units * words words;
 * zero-padded like bTileOccupancy.  Requires units <= 64.
 */
void bColumnMasks(const MatrixI8 &b, std::int64_t col_base, int units,
                  std::int64_t words, std::uint64_t *out);

} // namespace simd
} // namespace griffin

#endif // GRIFFIN_SIMD_OCCUPANCY_HH
