#include "tensor/matrix.hh"

namespace griffin {

MatrixI32
matmulRef(const MatrixI8 &a, const MatrixI8 &b)
{
    GRIFFIN_ASSERT(a.cols() == b.rows(),
                   "GEMM shape mismatch: A is ", a.rows(), "x", a.cols(),
                   ", B is ", b.rows(), "x", b.cols());
    MatrixI32 c(a.rows(), b.cols());
    for (std::size_t m = 0; m < a.rows(); ++m) {
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const std::int32_t av = a.at(m, k);
            if (av == 0)
                continue;
            for (std::size_t n = 0; n < b.cols(); ++n)
                c.at(m, n) += av * static_cast<std::int32_t>(b.at(k, n));
        }
    }
    return c;
}

} // namespace griffin
