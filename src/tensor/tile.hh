/**
 * @file
 * Blocked 3-D tile views over GEMM operands (paper Fig. 1).
 *
 * The accelerator unrolls GEMM in (K0, N0, M0) and requires A and B to
 * be seen as 3-D tensors:
 *
 *   A(M x K):  (k1, k2, m)  with k = k1*K0 + k2, m inside an M0 block
 *   B(K x N):  (k1, k2, n)  with the same k split, n inside an N0 block
 *
 * k1 is the *temporal step* (one dense cycle each), k2 the *lane*
 * inside the K0-wide dot-product unit, and the third axis selects the
 * PE row (A) or PE column (B).  Borrowing distances d1/d2/d3 are
 * measured along exactly these axes.
 *
 * Views are zero-padded: coordinates past the matrix edge read as
 * zero, which the sparse schedulers naturally skip.
 */

#ifndef GRIFFIN_TENSOR_TILE_HH
#define GRIFFIN_TENSOR_TILE_HH

#include <cstdint>

#include "tensor/matrix.hh"

namespace griffin {

/** Core unroll geometry (paper Table IV: (K0,N0,M0) = (16,16,4)). */
struct TileShape
{
    int m0 = 4;  ///< rows per PE-grid block (A third axis)
    int n0 = 16; ///< columns per PE-grid block (B third axis)
    int k0 = 16; ///< dot-product width (lanes)

    int macsPerCycle() const { return m0 * n0 * k0; }
};

/**
 * Number of temporal steps a K-extent of `k` occupies: the dense core
 * spends exactly one cycle per step.
 */
inline std::int64_t
stepsForK(std::int64_t k, int k0)
{
    GRIFFIN_ASSERT(k0 > 0, "k0 must be positive");
    return (k + k0 - 1) / k0;
}

/**
 * 3-D view of one A tile: M0 rows starting at rowBase, the full K
 * extent split into (k1, k2).
 */
class TileViewA
{
  public:
    TileViewA(const MatrixI8 &a, const TileShape &shape,
              std::int64_t row_base)
        : a_(a), shape_(shape), rowBase_(row_base),
          steps_(stepsForK(static_cast<std::int64_t>(a.cols()), shape.k0))
    {
        GRIFFIN_ASSERT(row_base >= 0, "negative row base ", row_base);
    }

    std::int64_t steps() const { return steps_; }
    int lanes() const { return shape_.k0; }
    int units() const { return shape_.m0; }

    /** Element at (k1, k2, m); zero outside the matrix. */
    std::int8_t
    at(std::int64_t k1, int k2, int m) const
    {
        const auto k = k1 * shape_.k0 + k2;
        return a_.atOrZero(static_cast<std::size_t>(rowBase_ + m),
                           static_cast<std::size_t>(k));
    }

    bool
    nonzero(std::int64_t k1, int k2, int m) const
    {
        return at(k1, k2, m) != 0;
    }

    /** Backing matrix and first row — for bulk occupancy extraction. */
    const MatrixI8 &matrix() const { return a_; }
    std::int64_t unitBase() const { return rowBase_; }

  private:
    const MatrixI8 &a_;
    TileShape shape_;
    std::int64_t rowBase_;
    std::int64_t steps_;
};

/**
 * 3-D view of one B tile: N0 columns of B starting at colBase, the full
 * K extent split into (k1, k2).  The backing matrix `b` holds B's
 * columns from `first` on: all of B when first is 0, or a column tile
 * drawn on its own (LayerWorkset), whose column 0 is B's column
 * `first`.  Columns past b's edge read as zero, like columns past B's.
 */
class TileViewB
{
  public:
    TileViewB(const MatrixI8 &b, const TileShape &shape,
              std::int64_t col_base, std::int64_t first = 0)
        : b_(b), shape_(shape), colBase_(col_base), first_(first),
          steps_(stepsForK(static_cast<std::int64_t>(b.rows()), shape.k0))
    {
        GRIFFIN_ASSERT(col_base >= first && first >= 0,
                       "column base ", col_base, " before the backing "
                       "matrix's first column ", first);
    }

    std::int64_t steps() const { return steps_; }
    int lanes() const { return shape_.k0; }
    int units() const { return shape_.n0; }

    /** Element at (k1, k2, n); zero outside the matrix. */
    std::int8_t
    at(std::int64_t k1, int k2, int n) const
    {
        const auto k = k1 * shape_.k0 + k2;
        return b_.atOrZero(static_cast<std::size_t>(k),
                           static_cast<std::size_t>(matrixCol() + n));
    }

    bool
    nonzero(std::int64_t k1, int k2, int n) const
    {
        return at(k1, k2, n) != 0;
    }

    /** The tile's first column in B: what names the tile (QueueMemo). */
    std::int64_t unitBase() const { return colBase_; }
    /** Backing matrix and the tile's first column in it — for bulk
     *  occupancy extraction. */
    const MatrixI8 &matrix() const { return b_; }
    std::int64_t matrixCol() const { return colBase_ - first_; }

  private:
    const MatrixI8 &b_;
    TileShape shape_;
    std::int64_t colBase_;
    std::int64_t first_;
    std::int64_t steps_;
};

/**
 * Dense-core cycle count for a full GEMM of the given dimensions: the
 * baseline every sparse speedup is normalised to.
 */
std::int64_t denseCycles(std::int64_t m, std::int64_t k, std::int64_t n,
                         const TileShape &shape);

} // namespace griffin

#endif // GRIFFIN_TENSOR_TILE_HH
