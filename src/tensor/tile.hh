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
 * zero, which the sparse schedulers naturally skip.  A B tile also
 * comes as its columns' nonzero masks over k (TileMasksB), the only
 * question the schedulers ask of B and the form a sweep draws it in.
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
 * K extent split into (k1, k2).
 */
class TileViewB
{
  public:
    TileViewB(const MatrixI8 &b, const TileShape &shape,
              std::int64_t col_base)
        : b_(b), shape_(shape), colBase_(col_base),
          steps_(stepsForK(static_cast<std::int64_t>(b.rows()), shape.k0))
    {
        GRIFFIN_ASSERT(col_base >= 0, "negative column base ", col_base);
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
                           static_cast<std::size_t>(colBase_ + n));
    }

    bool
    nonzero(std::int64_t k1, int k2, int n) const
    {
        return at(k1, k2, n) != 0;
    }

    /** Backing matrix, first column and geometry — for bulk occupancy
     *  extraction. */
    const MatrixI8 &matrix() const { return b_; }
    std::int64_t unitBase() const { return colBase_; }
    const TileShape &shape() const { return shape_; }

  private:
    const MatrixI8 &b_;
    TileShape shape_;
    std::int64_t colBase_;
    std::int64_t steps_;
};

/**
 * One B tile as its columns' nonzero masks over flat k, the form the
 * schedulers read B in: N0 columns of B starting at colBase, the k
 * extent split into (k1, k2) as a TileViewB's.  `masks` holds the
 * tile's first `width` columns, ceil(k / 64) words each: bit i of
 * masks[n * words() + w] is set iff B's element (w * 64 + i, colBase +
 * n) is nonzero, and bits at and past k are 0.  Columns past width
 * read as zero, like a TileViewB's columns past B's edge.  The masks
 * come from the weight generator's keep bits (LayerWorkset::bTiles) or
 * from a whole B (simd::bColumnMasks); the view does not own them.
 */
class TileMasksB
{
  public:
    TileMasksB(const std::uint64_t *masks, std::int64_t k, int width,
               const TileShape &shape, std::int64_t col_base)
        : masks_(masks), words_((k + 63) / 64), width_(width),
          shape_(shape), colBase_(col_base), steps_(stepsForK(k, shape.k0))
    {
        GRIFFIN_ASSERT(width >= 0 && width <= shape.n0, "a tile of ",
                       shape.n0, " columns cannot hold ", width);
    }

    std::int64_t steps() const { return steps_; }
    int lanes() const { return shape_.k0; }
    int units() const { return shape_.n0; }

    /** The tile's first column in B: what names the tile (QueueMemo). */
    std::int64_t unitBase() const { return colBase_; }
    /** Masks of columns [0, width()), words() words each. */
    const std::uint64_t *masks() const { return masks_; }
    std::int64_t words() const { return words_; }
    int width() const { return width_; }

  private:
    const std::uint64_t *masks_;
    std::int64_t words_;
    int width_;
    TileShape shape_;
    std::int64_t colBase_;
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
