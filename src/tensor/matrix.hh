/**
 * @file
 * Dense row-major matrix container and the reference GEMM.
 *
 * The whole library works on INT8 operands with INT32 accumulation,
 * matching the paper's datapath (Table IV: INT8 MACs).  matmulRef() is
 * the functional golden model every sparse schedule is checked
 * against.
 */

#ifndef GRIFFIN_TENSOR_MATRIX_HH
#define GRIFFIN_TENSOR_MATRIX_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace griffin {

/**
 * Row-major dense matrix.  Deliberately minimal: storage, checked
 * element access, and sparsity accounting.
 */
template <typename T>
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols matrix, zero-initialised. */
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, T{0})
    {
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    T &
    at(std::size_t r, std::size_t c)
    {
        GRIFFIN_ASSERT(r < rows_ && c < cols_,
                       "matrix index (", r, ",", c, ") out of ",
                       rows_, "x", cols_);
        return data_[r * cols_ + c];
    }

    const T &
    at(std::size_t r, std::size_t c) const
    {
        GRIFFIN_ASSERT(r < rows_ && c < cols_,
                       "matrix index (", r, ",", c, ") out of ",
                       rows_, "x", cols_);
        return data_[r * cols_ + c];
    }

    /**
     * Element access with zero padding outside the matrix.  Tile views
     * at the right/bottom edges read through this.
     */
    T
    atOrZero(std::size_t r, std::size_t c) const
    {
        return (r < rows_ && c < cols_) ? data_[r * cols_ + c] : T{0};
    }

    const T *data() const { return data_.data(); }
    T *data() { return data_.data(); }

    void
    fill(T value)
    {
        std::fill(data_.begin(), data_.end(), value);
    }

    /** Number of nonzero elements. */
    std::size_t
    nnz() const
    {
        std::size_t n = 0;
        for (const T &v : data_)
            n += (v != T{0});
        return n;
    }

    /** Fraction of zero elements in [0,1]; 0 for an empty matrix. */
    double
    sparsity() const
    {
        if (data_.empty())
            return 0.0;
        return 1.0 -
               static_cast<double>(nnz()) /
                   static_cast<double>(data_.size());
    }

    bool
    operator==(const Matrix &other) const
    {
        return rows_ == other.rows_ && cols_ == other.cols_ &&
               data_ == other.data_;
    }

    bool
    operator!=(const Matrix &other) const
    {
        return !(*this == other);
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<T> data_;
};

using MatrixI8 = Matrix<std::int8_t>;
using MatrixI32 = Matrix<std::int32_t>;

/**
 * Reference dense GEMM, C = A x B, INT8 operands with INT32
 * accumulation.  The golden model for schedule verification.
 */
MatrixI32 matmulRef(const MatrixI8 &a, const MatrixI8 &b);

} // namespace griffin

#endif // GRIFFIN_TENSOR_MATRIX_HH
