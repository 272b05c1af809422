/**
 * @file
 * Row-unbalanced sparse matrices for the scheduler oracle
 * (tests/test_schedule_oracle.cc): ragged lane loads that the
 * library's own generators never produce.  Test-only: nothing in
 * libgriffin links it.
 */

#ifndef GRIFFIN_TESTS_SUPPORT_UNBALANCED_SPARSE_HH
#define GRIFFIN_TESTS_SUPPORT_UNBALANCED_SPARSE_HH

#include "common/rng.hh"
#include "tensor/matrix.hh"

namespace griffin {

/**
 * Unbalanced sparsity: each row r gets its own zero rate drawn
 * uniformly from [sparsity - spread, sparsity + spread] (clamped).
 * Stresses cross-lane imbalance.
 */
MatrixI8 unbalancedSparse(std::size_t rows, std::size_t cols,
                          double sparsity, double spread, Rng &rng);

} // namespace griffin

#endif // GRIFFIN_TESTS_SUPPORT_UNBALANCED_SPARSE_HH
