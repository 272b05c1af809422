/**
 * @file
 * SIMD kernel layer: every available backend must be byte-exact
 * against the scalar reference on awkward shapes (lengths off the
 * vector width, width-1 rows, all-zero and dense operands), and the
 * occupancy extractors must agree with a brute-force reading of the
 * matrix — including when K is not a multiple of k0, so the tile's
 * flat-k axis overhangs the matrix and pads with zeros.
 *
 * These tests are what lets the schedulers trust the masks blindly:
 * the e2e byte-diff (tests/simd_dispatch.cmake) pins whole-run
 * equality, this file pins it kernel by kernel at the edges.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "simd/occupancy.hh"
#include "tensor/matrix.hh"

namespace griffin {
namespace {

using simd::KernelTable;

/** Backends present in this build/CPU, scalar reference first. */
std::vector<std::pair<std::string, const KernelTable *>>
availableBackends()
{
    std::vector<std::pair<std::string, const KernelTable *>> tables;
    tables.push_back({"scalar", &simd::scalarKernels()});
    if (simd::avx2Kernels() != nullptr)
        tables.push_back({"avx2", simd::avx2Kernels()});
    if (simd::avx512Kernels() != nullptr)
        tables.push_back({"avx512", simd::avx512Kernels()});
    return tables;
}

std::vector<std::int8_t>
randomBytes(Rng &rng, std::size_t len, double density)
{
    std::vector<std::int8_t> out(len, 0);
    for (auto &v : out)
        if (rng.bernoulli(density))
            v = rng.nonzeroInt8();
    return out;
}

TEST(SimdKernels, NonzeroMasksMatchScalarOnAllWidths)
{
    Rng rng(101);
    const std::size_t stride = 67; // off any vector width
    const std::int64_t groups = 9;
    const auto bytes = randomBytes(rng, stride * groups + 64, 0.4);
    const auto &scalar = simd::scalarKernels();
    for (const auto &[name, table] : availableBackends()) {
        for (int width = 1; width <= 64; ++width) {
            std::vector<std::uint64_t> want(groups, ~0ull);
            std::vector<std::uint64_t> got(groups, ~0ull);
            scalar.nonzeroMasks(bytes.data(), stride, width, groups,
                                want.data());
            table->nonzeroMasks(bytes.data(), stride, width, groups,
                                got.data());
            EXPECT_EQ(want, got)
                << name << " diverges at width " << width;
        }
    }
}

TEST(SimdKernels, KernelsNoSweepCallsAreTheScalarOnesOnEveryBackend)
{
    // countNonzero, accumulateNonzero, leMask, minI64 and mtTemper run
    // in no sweep, so every backend's table holds the scalar copies.
    const auto &scalar = simd::scalarKernels();
    for (const auto &[name, table] : availableBackends()) {
        EXPECT_EQ(table->countNonzero, scalar.countNonzero) << name;
        EXPECT_EQ(table->accumulateNonzero, scalar.accumulateNonzero)
            << name;
        EXPECT_EQ(table->leMask, scalar.leMask) << name;
        EXPECT_EQ(table->minI64, scalar.minI64) << name;
        EXPECT_EQ(table->mtTemper, scalar.mtTemper) << name;
    }
}

TEST(SimdKernels, LeMaskClearsHighBitsAndMinOfNothingIsMax)
{
    Rng rng(303);
    const auto &scalar = simd::scalarKernels();
    for (const std::int64_t n : {1, 3, 4, 5, 63, 64, 65, 130}) {
        std::vector<std::int64_t> heads(n);
        for (auto &h : heads)
            h = rng.uniformInt(0, 100);
        const std::int64_t words = (n + 63) / 64;
        std::vector<std::uint64_t> got(words, ~0ull);
        scalar.leMask(heads.data(), n, 50, got.data());
        for (std::int64_t s = 0; s < n; ++s)
            EXPECT_EQ(got[s / 64] >> (s % 64) & 1u,
                      static_cast<std::uint64_t>(heads[s] <= 50))
                << "n " << n << " slot " << s;
        // Bits at and above n must be zero, not stale garbage: the
        // reference schedulers popcount whole words.
        if (n % 64 != 0) {
            EXPECT_EQ(got[words - 1] >> (n % 64), 0u)
                << "stale high bits at n " << n;
        }
    }
    EXPECT_EQ(scalar.minI64(nullptr, 0),
              std::numeric_limits<std::int64_t>::max());
}

/** Bit-by-bit overlap count, independent of every popcount. */
std::int32_t
bruteOverlap(const std::uint64_t *x, const std::uint64_t *y,
             std::int64_t words)
{
    std::int32_t n = 0;
    for (std::int64_t w = 0; w < words; ++w)
        for (int bit = 0; bit < 64; ++bit)
            n += static_cast<std::int32_t>((x[w] & y[w]) >> bit & 1u);
    return n;
}

TEST(SimdKernels, AndPopcountCountsEveryOverlap)
{
    std::mt19937_64 bits(1010);
    const auto draw = [&bits](int kind) -> std::uint64_t {
        switch (kind) {
          case 0:
            return 0;
          case 1:
            return ~0ull;
          default:
            return bits();
        }
    };
    // kind 0: all-zero words, 1: all-ones, 2: random; counts are odd
    // and the pointers sit one or more elements past an allocation's
    // start, off any vector alignment.
    for (const std::int64_t words : {0, 1, 3, 144}) {
        for (const std::int64_t count : {1, 3, 7, 65}) {
            for (int kind = 0; kind < 3; ++kind) {
                std::vector<std::uint64_t> xbuf(words + 1);
                std::vector<std::uint64_t> ybuf(count * words + 3);
                for (auto &w : xbuf)
                    w = draw(kind);
                for (auto &w : ybuf)
                    w = draw(kind == 0 ? 1 : kind);
                const std::uint64_t *x = xbuf.data() + 1;
                const std::uint64_t *ys = ybuf.data() + 3;
                std::vector<std::int32_t> got(count + 2, -7);
                simd::andPopcount(x, ys, words, count, got.data() + 1);
                EXPECT_EQ(got.front(), -7);
                EXPECT_EQ(got.back(), -7) << "wrote past count " << count;
                for (std::int64_t i = 0; i < count; ++i)
                    ASSERT_EQ(got[i + 1],
                              bruteOverlap(x, ys + i * words, words))
                        << "words " << words << " i " << i << " kind "
                        << kind;
            }
        }
    }
}

/** fillRows's contract (occupancy.hh), one element at a time. */
std::int8_t
contractFill(std::uint64_t key, std::uint64_t below, std::int64_t c)
{
    const std::uint64_t h =
        Rng::counterDraw(key, static_cast<std::uint64_t>(c));
    return (h >> 32) < below ? Rng::nonzeroInt8FromDraw(h << 32)
                             : std::int8_t{0};
}

TEST(SimdKernels, FillRowMatchesTheContractOnEveryBackend)
{
    constexpr std::int64_t kPad = 16;
    constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
    // Keep bounds at both ends and between; keys near the 2^64 wrap,
    // one of them putting splitmix64's state on 0 at element 70.
    const std::uint64_t belows[] = {0, 1, std::uint64_t{1} << 31,
                                    (std::uint64_t{1} << 32) - 1,
                                    std::uint64_t{1} << 32};
    const std::uint64_t keys[] = {0, 1, std::uint64_t{1} << 63,
                                  ~std::uint64_t{0} - 1, ~std::uint64_t{0},
                                  0 - 71 * kGamma};
    // Row r takes combination r % 30 of (key, bound): each of the 30
    // lands in the whole block of 64 rows and in the 30 rows after it,
    // which the AVX-512 fill takes its own way.
    constexpr std::int64_t kRows = 64 + 30;
    std::vector<std::uint64_t> row_keys(kRows), row_belows(kRows);
    for (std::int64_t r = 0; r < kRows; ++r) {
        row_keys[r] = keys[r % 30 % 6];
        row_belows[r] = belows[r % 30 / 6];
    }
    for (std::int64_t n = 0; n <= 300; ++n) {
        std::vector<std::int8_t> want(kRows * n + 2 * kPad, 0x55);
        for (std::int64_t r = 0; r < kRows; ++r)
            for (std::int64_t c = 0; c < n; ++c)
                want[kPad + r * n + c] =
                    contractFill(row_keys[r], row_belows[r], c);
        for (const auto &[name, table] : availableBackends()) {
            std::vector<std::int8_t> got(kRows * n + 2 * kPad, 0x55);
            table->fillRows(row_keys.data(), row_belows.data(), kRows, n,
                            got.data() + kPad);
            for (std::int64_t i = 0; i < kRows * n + 2 * kPad; ++i)
                ASSERT_EQ(want[i], got[i])
                    << name << " n " << n << " byte " << i - kPad
                    << " (row " << (i - kPad) / std::max<std::int64_t>(n, 1)
                    << ")";
        }
    }
    // The zero state's draw is 0: kept below any positive bound, with
    // nonzeroInt8FromDraw(0)'s value.
    const std::uint64_t key70 = 0 - 71 * kGamma, below70 = 1;
    std::int8_t at70[71];
    simd::scalarKernels().fillRows(&key70, &below70, 1, 71, at70);
    EXPECT_EQ(at70[70], -128);
}

/** keepBlock's contract (occupancy.hh): fillRows's keep test. */
std::int8_t
contractKeep(std::uint64_t key, std::uint64_t below, int c)
{
    return static_cast<std::int8_t>(
        (Rng::counterDraw(key, static_cast<std::uint64_t>(c)) >> 32) <
        below);
}

TEST(SimdKernels, KeepBlockMatchesTheContractOnEveryBackend)
{
    constexpr int kPad = 16;
    constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
    // fillRows's bounds and keys near the 2^64 wrap.  The last key is
    // the one whose element 70 is splitmix64's zero state, advanced 64
    // draws as a block from column 64 would be: the state is 0 at its
    // column 6.  Row i takes combination i % 30 of (key, bound), so
    // the 64 rows hold all 30.
    const std::uint64_t belows[] = {0, 1, std::uint64_t{1} << 31,
                                    (std::uint64_t{1} << 32) - 1,
                                    std::uint64_t{1} << 32};
    const std::uint64_t keys[] = {0,
                                  1,
                                  std::uint64_t{1} << 63,
                                  ~std::uint64_t{0} - 1,
                                  ~std::uint64_t{0},
                                  Rng::counterSkip(0 - 71 * kGamma, 64)};
    std::uint64_t row_keys[64], row_belows[64];
    for (int i = 0; i < 64; ++i) {
        row_keys[i] = keys[i % 30 % 6];
        row_belows[i] = belows[i % 30 / 6];
    }
    for (int width = 1; width <= 64; ++width) {
        std::vector<std::int8_t> want(width * 64 + 2 * kPad, 0x55);
        for (int c = 0; c < width; ++c)
            for (int i = 0; i < 64; ++i)
                want[kPad + c * 64 + i] =
                    contractKeep(row_keys[i], row_belows[i], c);
        for (const auto &[name, table] : availableBackends()) {
            std::vector<std::int8_t> got(width * 64 + 2 * kPad, 0x55);
            table->keepBlock(row_keys, row_belows, width, got.data() + kPad);
            for (int b = 0; b < width * 64 + 2 * kPad; ++b)
                ASSERT_EQ(want[b], got[b])
                    << name << " width " << width << " byte " << b - kPad
                    << " (column " << (b - kPad) / 64 << ")";
        }
    }
    // The zero state's draw is 0: row 11 (that key, bound 1) keeps it.
    ASSERT_EQ(Rng::counterDraw(keys[5], 6), 0u);
    std::int8_t block[7 * 64];
    simd::scalarKernels().keepBlock(row_keys, row_belows, 7, block);
    EXPECT_EQ(block[6 * 64 + 11], 1);
}

// ---- take-row kernels vs the per-column reading ---------------------

/**
 * Lanes widths for the take-row kernels: every divisor of 64 (whole
 * 8- to 64-bit fields and sub-byte ones) and three that straddle
 * words.
 */
const int kTakeLanes[] = {1, 2, 4, 8, 16, 32, 64, 3, 24, 40};

/**
 * `depth` take rows, `words` apart, of `cols` lanes-wide fields:
 * pattern 0 empty, 1 full, 2 random sparse words, 3 the same with
 * whole rows left empty at random.  Bits past the fields are drawn
 * too; no kernel may read them as a field.
 */
std::vector<std::uint64_t>
takeRows(std::mt19937_64 &bits, int pattern, std::int64_t depth,
         std::int64_t words)
{
    std::vector<std::uint64_t> rows(static_cast<std::size_t>(depth * words));
    for (std::int64_t d = 0; d < depth; ++d) {
        const bool empty = pattern == 3 && (bits() & 1u) != 0;
        for (std::int64_t i = 0; i < words; ++i)
            rows[static_cast<std::size_t>(d * words + i)] =
                pattern == 0 || empty ? 0
                : pattern == 1        ? ~std::uint64_t{0}
                                      : bits() & bits() & bits();
    }
    return rows;
}

/** Take-row geometries: (lanes, cols, depth, words) for every width,
 *  1..64 columns and depths 0..8, rows one word wider than their
 *  fields for odd column counts; deeper windows for a few widths. */
template <class Check>
void
forEachTakeGeometry(Check &&check)
{
    for (const int lanes : kTakeLanes)
        for (int cols = 1; cols <= 64; ++cols) {
            const std::int64_t used = (std::int64_t{cols} * lanes + 63) / 64;
            const std::int64_t words = used + cols % 2;
            for (std::int64_t depth = 0; depth <= 8; ++depth)
                check(lanes, cols, depth, words);
            if (cols == 1 || cols == 9 || cols == 64)
                for (const std::int64_t depth : {65, 255, 256, 300})
                    check(lanes, cols, depth, words);
        }
}

TEST(SimdKernels, TakeExtentsMatchThePerColumnReadingOnEveryBackend)
{
    constexpr int kPad = 4;
    constexpr std::int64_t kGuard = 0x5a5a5a5a5a5a5a5a;
    std::mt19937_64 bits(1212);
    forEachTakeGeometry([&](int lanes, int cols, std::int64_t depth,
                            std::int64_t words) {
        for (int pattern = 0; pattern < 4; ++pattern) {
            const auto rows = takeRows(bits, pattern, depth, words);
            const std::int64_t base = pattern % 2 == 0 ? 0 : 1000000007;
            std::vector<std::int64_t> lo(cols + 2 * kPad, kGuard);
            std::vector<std::int64_t> hi(cols + 2 * kPad, kGuard);
            for (int j = 0; j < cols; ++j) {
                lo[kPad + j] = hi[kPad + j] = -1;
                for (std::int64_t d = 0; d < depth; ++d) {
                    if (simd::readField(rows.data() + d * words,
                                        std::int64_t{j} * lanes,
                                        lanes) == 0)
                        continue;
                    if (lo[kPad + j] < 0)
                        lo[kPad + j] = base + d;
                    hi[kPad + j] = base + d;
                }
            }
            for (const auto &[name, table] : availableBackends()) {
                std::vector<std::int64_t> got_lo(cols + 2 * kPad, kGuard);
                std::vector<std::int64_t> got_hi(cols + 2 * kPad, kGuard);
                table->takeExtents(rows.data(), words, depth, lanes, cols,
                                   base, got_lo.data() + kPad,
                                   got_hi.data() + kPad);
                ASSERT_EQ(got_lo, lo)
                    << name << " lanes " << lanes << " cols " << cols
                    << " depth " << depth << " pattern " << pattern;
                ASSERT_EQ(got_hi, hi)
                    << name << " lanes " << lanes << " cols " << cols
                    << " depth " << depth << " pattern " << pattern;
            }
        }
    });
}

TEST(SimdKernels, LiveMasksMatchThePerColumnReadingOnEveryBackend)
{
    constexpr int kPad = 4;
    constexpr std::uint64_t kGuard = 0xa5a5a5a5a5a5a5a5;
    std::mt19937_64 bits(1313);
    forEachTakeGeometry([&](int lanes, int cols, std::int64_t depth,
                            std::int64_t words) {
        // Every row count that fits one word (the fewest and the most
        // past depth 8); random A words.
        for (int rows = 1; rows * lanes <= 64; ++rows) {
            if (depth > 8 && rows != 1 && (rows + 1) * lanes <= 64)
                continue;
            const int pattern = (cols + rows + static_cast<int>(depth)) % 4;
            const auto takes = takeRows(bits, pattern, depth, words);
            std::vector<std::uint64_t> a(static_cast<std::size_t>(depth));
            for (auto &w : a)
                w = bits();
            std::vector<std::uint64_t> want(cols + 2 * kPad, kGuard);
            for (int j = 0; j < cols; ++j) {
                std::uint64_t mask = 0;
                for (std::int64_t d = 0; d < depth; ++d) {
                    const std::uint64_t field =
                        simd::readField(takes.data() + d * words,
                                        std::int64_t{j} * lanes, lanes);
                    for (int m = 0; m < rows; ++m)
                        mask |= a[static_cast<std::size_t>(d)] &
                                field << (m * lanes);
                }
                want[kPad + j] = mask;
            }
            for (const auto &[name, table] : availableBackends()) {
                std::vector<std::uint64_t> got(cols + 2 * kPad, kGuard);
                table->liveMasks(takes.data(), words, depth, a.data(), lanes,
                                 rows, cols, got.data() + kPad);
                ASSERT_EQ(got, want)
                    << name << " lanes " << lanes << " rows " << rows
                    << " cols " << cols << " depth " << depth
                    << " pattern " << pattern;
            }
        }
    });
}

// ---- occupancy extraction vs brute force ----------------------------

MatrixI8
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols,
             double density)
{
    MatrixI8 m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            if (rng.bernoulli(density))
                m.at(r, c) = rng.nonzeroInt8();
    return m;
}

std::vector<std::uint64_t>
bruteB(const MatrixI8 &b, std::int64_t col_base, int units,
       std::int64_t steps, int k0)
{
    std::vector<std::uint64_t> out(steps * k0, 0);
    for (std::int64_t f = 0; f < steps * k0; ++f)
        for (int n = 0; n < units; ++n) {
            const std::size_t r = static_cast<std::size_t>(f);
            const std::size_t c =
                static_cast<std::size_t>(col_base + n);
            if (r < b.rows() && c < b.cols() && b.at(r, c) != 0)
                out[f] |= std::uint64_t{1} << n;
        }
    return out;
}

/** Row masks over k, one element at a time (aRowMasks' contract). */
std::vector<std::uint64_t>
bruteRows(const MatrixI8 &a, std::int64_t row_base, int units,
          std::int64_t words)
{
    std::vector<std::uint64_t> out(units * words, 0);
    for (int m = 0; m < units; ++m)
        for (std::int64_t k = 0; k < words * 64; ++k)
            if (a.atOrZero(static_cast<std::size_t>(row_base + m),
                           static_cast<std::size_t>(k)) != 0)
                out[m * words + k / 64] |= std::uint64_t{1} << (k % 64);
    return out;
}

/** Column masks over k, one element at a time (bColumnMasks'). */
std::vector<std::uint64_t>
bruteCols(const MatrixI8 &b, std::int64_t col_base, int units,
          std::int64_t words)
{
    std::vector<std::uint64_t> out(units * words, 0);
    for (int n = 0; n < units; ++n)
        for (std::int64_t k = 0; k < words * 64; ++k)
            if (b.atOrZero(static_cast<std::size_t>(k),
                           static_cast<std::size_t>(col_base + n)) != 0)
                out[n * words + k / 64] |= std::uint64_t{1} << (k % 64);
    return out;
}

TEST(SimdOccupancy, BTileMatchesBruteForceWhenKOverhangsK0)
{
    Rng rng(606);
    // K = 13 rows with k0 = 4, steps = 4: flat-k 16 overhangs the
    // matrix by 3 positions, which must read as zero padding.
    const MatrixI8 b = randomMatrix(rng, 13, 21, 0.5);
    for (const std::int64_t col_base : {0, 8, 16, 24}) {
        std::vector<std::uint64_t> got(16, ~0ull);
        simd::bTileOccupancy(b, col_base, 8, 4, 4, got.data());
        EXPECT_EQ(got, bruteB(b, col_base, 8, 4, 4))
            << "col_base " << col_base;
    }
}

TEST(SimdOccupancy, FieldsRoundTripAcrossWordEdges)
{
    // Every (offset, width) pair over three words: orField writes
    // exactly the field's bits, readField reads them back.
    std::mt19937_64 bits64(909);
    for (int width = 1; width <= 64; ++width)
        for (std::int64_t at = 0; at + width <= 192; ++at) {
            const std::uint64_t draw = bits64();
            const std::uint64_t field =
                width == 64 ? draw
                            : draw & ((std::uint64_t{1} << width) - 1);
            std::uint64_t bits[3] = {0, 0, 0};
            simd::orField(bits, at, width, field);
            ASSERT_EQ(simd::readField(bits, at, width), field)
                << "at " << at << " width " << width;
            for (std::int64_t i = 0; i < 192; ++i) {
                const bool inside = i >= at && i < at + width;
                const bool set = bits[i / 64] >> (i % 64) & 1u;
                ASSERT_TRUE(inside || !set)
                    << "bit " << i << " set outside [" << at << ", "
                    << at + width << ")";
            }
        }
}

TEST(SimdOccupancy, UnitMasksMatchBruteForceAcrossWordEdges)
{
    // k on both sides of the 64-bit word, units up to 64, bases past
    // the matrix edge (all-zero units) and spare mask words.
    Rng rng(707);
    for (const std::size_t k : {1u, 13u, 63u, 64u, 65u, 130u, 200u}) {
        const MatrixI8 a = randomMatrix(rng, 21, k, 0.5);
        const MatrixI8 b = randomMatrix(rng, k, 70, 0.5);
        const auto words = static_cast<std::int64_t>((k + 63) / 64) + 1;
        for (const std::int64_t base : {0, 8, 16, 64}) {
            std::vector<std::uint64_t> got(8 * words, ~0ull);
            simd::aRowMasks(a, base, 8, words, got.data());
            EXPECT_EQ(got, bruteRows(a, base, 8, words))
                << "k " << k << " row_base " << base;
            got.assign(64 * words, ~0ull);
            simd::bColumnMasks(b, base, 64, words, got.data());
            EXPECT_EQ(got, bruteCols(b, base, 64, words))
                << "k " << k << " col_base " << base;
        }
    }
}

TEST(SimdOccupancy, AllZeroAndDenseExtremes)
{
    Rng rng(808);
    const MatrixI8 zero(17, 9);
    const MatrixI8 dense = randomMatrix(rng, 17, 9, 1.0);
    std::vector<std::uint64_t> got(20, ~0ull);

    simd::bTileOccupancy(zero, 0, 9, 5, 4, got.data());
    EXPECT_EQ(got, std::vector<std::uint64_t>(20, 0));
    simd::bTileOccupancy(dense, 0, 9, 5, 4, got.data());
    EXPECT_EQ(got, bruteB(dense, 0, 9, 5, 4));

    got.assign(17, ~0ull);
    simd::aRowMasks(zero, 0, 17, 1, got.data());
    EXPECT_EQ(got, std::vector<std::uint64_t>(17, 0));
    simd::aRowMasks(dense, 0, 17, 1, got.data());
    EXPECT_EQ(got, std::vector<std::uint64_t>(17, 0x1ff));
    got.assign(9, ~0ull);
    simd::bColumnMasks(dense, 0, 9, 1, got.data());
    EXPECT_EQ(got, std::vector<std::uint64_t>(9, 0x1ffff));
}

TEST(SimdOccupancy, SingleElementMatrix)
{
    MatrixI8 one(1, 1);
    one.at(0, 0) = -3;
    std::vector<std::uint64_t> got(4, ~0ull);
    simd::bTileOccupancy(one, 0, 1, 2, 2, got.data());
    EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 0, 0, 0}));
    got.assign(2, ~0ull);
    simd::aRowMasks(one, 0, 1, 2, got.data());
    EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 0}));
    got.assign(2, ~0ull);
    simd::bColumnMasks(one, 0, 1, 2, got.data());
    EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 0}));

    MatrixI8 zero(1, 1);
    got.assign(4, ~0ull);
    simd::bTileOccupancy(zero, 0, 1, 2, 2, got.data());
    EXPECT_EQ(got, std::vector<std::uint64_t>(4, 0));
}

/**
 * Expect `check` to hold in a fresh process whose GRIFFIN_FORCE_SCALAR
 * is `force_scalar` (nullptr: unset).  The dispatch is chosen once per
 * process, so only a fresh one sees the knob: the threadsafe
 * death-test style re-executes this binary, and the child inherits
 * the variable.
 */
void
expectInFreshProcess(const char *force_scalar, bool (*check)())
{
    const char *saved = std::getenv("GRIFFIN_FORCE_SCALAR");
    const std::string previous = saved != nullptr ? saved : "";
    const std::string style = ::testing::FLAGS_gtest_death_test_style;
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    if (force_scalar != nullptr)
        setenv("GRIFFIN_FORCE_SCALAR", force_scalar, 1);
    else
        unsetenv("GRIFFIN_FORCE_SCALAR");
    EXPECT_EXIT(std::exit(check() ? 0 : 1), testing::ExitedWithCode(0),
                "");
    if (saved != nullptr)
        setenv("GRIFFIN_FORCE_SCALAR", previous.c_str(), 1);
    else
        unsetenv("GRIFFIN_FORCE_SCALAR");
    ::testing::FLAGS_gtest_death_test_style = style;
}

TEST(SimdDispatchDeathTest, ForceScalarPinsTheScalarBackend)
{
    // The forced-scalar CI leg and the simd_dispatch ctest rely on the
    // knob really rerouting dispatch.
    expectInFreshProcess("1", [] {
        return simd::activeBackend() == simd::Backend::Scalar &&
               &simd::kernels() == &simd::scalarKernels();
    });
}

TEST(SimdDispatchDeathTest, Avx512CpusGetTheAvx512Table)
{
    if (simd::avx512Kernels() == nullptr)
        GTEST_SKIP() << "no AVX-512 F/BW/VL/DQ on this CPU";
    // Without the knob, the x86 backend (still named "avx2") dispatches
    // the AVX-512 table; a silent fall back to plain AVX2 fails here.
    expectInFreshProcess(nullptr, [] {
        return simd::activeBackend() == simd::Backend::Avx2 &&
               &simd::kernels() == simd::avx512Kernels();
    });
}

TEST(SimdDispatch, ActiveBackendHasAStableName)
{
    const std::string name =
        simd::backendName(simd::activeBackend());
    EXPECT_TRUE(name == "scalar" || name == "avx2") << name;
    // The dispatched table is one of the concrete tables (scalar,
    // avx2, or avx512 — the AVX2 table with the AVX-512 generator and
    // take-row loops), never a mixture assembled per call.
    const KernelTable &active = simd::kernels();
    EXPECT_NE(active.nonzeroMasks, nullptr);
    EXPECT_NE(active.mtTemper, nullptr);
    EXPECT_NE(active.fillRows, nullptr);
    EXPECT_NE(active.keepBlock, nullptr);
    EXPECT_NE(active.takeExtents, nullptr);
    EXPECT_NE(active.liveMasks, nullptr);
}

} // namespace
} // namespace griffin
