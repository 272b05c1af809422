/**
 * @file
 * Tests for the dense matrix container and reference GEMM.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "tensor/matrix.hh"
#include "tensor/sparsity.hh"

namespace griffin {
namespace {

TEST(Matrix, ZeroInitialised)
{
    MatrixI8 m(3, 4);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_EQ(m.nnz(), 0u);
    EXPECT_DOUBLE_EQ(m.sparsity(), 1.0);
}

TEST(Matrix, EmptyMatrixSparsityIsZero)
{
    MatrixI8 m;
    EXPECT_TRUE(m.empty());
    EXPECT_DOUBLE_EQ(m.sparsity(), 0.0);
}

TEST(Matrix, AtOrZeroPadsOutside)
{
    MatrixI8 m(2, 2);
    m.at(1, 1) = 7;
    EXPECT_EQ(m.atOrZero(1, 1), 7);
    EXPECT_EQ(m.atOrZero(2, 0), 0);
    EXPECT_EQ(m.atOrZero(0, 5), 0);
}

TEST(MatrixDeathTest, AtOutOfRangePanics)
{
    MatrixI8 m(2, 2);
    EXPECT_DEATH(m.at(2, 0), "out of");
    const MatrixI8 &cm = m;
    EXPECT_DEATH(cm.at(0, 2), "out of");
}

TEST(Matrix, NnzAndSparsityCount)
{
    MatrixI8 m(2, 5);
    m.at(0, 0) = 1;
    m.at(1, 4) = -3;
    EXPECT_EQ(m.nnz(), 2u);
    EXPECT_DOUBLE_EQ(m.sparsity(), 0.8);
}

TEST(Matrix, FillAndEquality)
{
    MatrixI8 a(2, 2), b(2, 2);
    a.fill(5);
    EXPECT_NE(a, b);
    b.fill(5);
    EXPECT_EQ(a, b);
}

TEST(MatmulRef, KnownSmallProduct)
{
    // [1 2] [5 6]   [19 22]
    // [3 4] [7 8] = [43 50]
    MatrixI8 a(2, 2), b(2, 2);
    a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(1, 0) = 3; a.at(1, 1) = 4;
    b.at(0, 0) = 5; b.at(0, 1) = 6; b.at(1, 0) = 7; b.at(1, 1) = 8;
    auto c = matmulRef(a, b);
    EXPECT_EQ(c.at(0, 0), 19);
    EXPECT_EQ(c.at(0, 1), 22);
    EXPECT_EQ(c.at(1, 0), 43);
    EXPECT_EQ(c.at(1, 1), 50);
}

TEST(MatmulRef, IdentityIsNeutral)
{
    Rng rng(21);
    auto a = randomSparse(5, 5, 0.0, rng);
    MatrixI8 eye(5, 5);
    for (std::size_t i = 0; i < 5; ++i)
        eye.at(i, i) = 1;
    auto c = matmulRef(a, eye);
    for (std::size_t r = 0; r < 5; ++r)
        for (std::size_t k = 0; k < 5; ++k)
            EXPECT_EQ(c.at(r, k), a.at(r, k));
}

TEST(MatmulRef, Int8ExtremesAccumulateWithoutOverflow)
{
    // 64 x (-128 * -128) = 1,048,576 fits INT32 comfortably; verify no
    // premature narrowing anywhere on the accumulate path.
    MatrixI8 a(1, 64), b(64, 1);
    for (std::size_t k = 0; k < 64; ++k) {
        a.at(0, k) = -128;
        b.at(k, 0) = -128;
    }
    auto c = matmulRef(a, b);
    EXPECT_EQ(c.at(0, 0), 64 * 128 * 128);
}

TEST(MatmulRefDeathTest, ShapeMismatchPanics)
{
    MatrixI8 a(2, 3), b(4, 2);
    EXPECT_DEATH(matmulRef(a, b), "shape mismatch");
}

TEST(MatmulRef, ZeroOperandsContributeNothing)
{
    Rng rng(22);
    auto a = randomSparse(8, 16, 0.7, rng);
    auto b = randomSparse(16, 8, 0.7, rng);
    auto c = matmulRef(a, b);
    // Cross-check against a fully explicit triple loop.
    for (std::size_t m = 0; m < 8; ++m) {
        for (std::size_t n = 0; n < 8; ++n) {
            std::int32_t acc = 0;
            for (std::size_t k = 0; k < 16; ++k)
                acc += std::int32_t{a.at(m, k)} * std::int32_t{b.at(k, n)};
            EXPECT_EQ(c.at(m, n), acc);
        }
    }
}

} // namespace
} // namespace griffin
