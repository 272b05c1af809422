#include "support/unbalanced_sparse.hh"

#include <algorithm>

namespace griffin {

MatrixI8
unbalancedSparse(std::size_t rows, std::size_t cols, double sparsity,
                 double spread, Rng &rng)
{
    GRIFFIN_ASSERT(spread >= 0.0, "negative spread ", spread);
    MatrixI8 m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        const double lo = std::max(0.0, sparsity - spread);
        const double hi = std::min(1.0, sparsity + spread);
        const double row_sparsity = lo + (hi - lo) * rng.uniform01();
        std::int8_t *row = m.data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c)
            if (!rng.bernoulli(row_sparsity))
                row[c] = rng.nonzeroInt8();
    }
    return m;
}

} // namespace griffin
