/**
 * @file
 * Reference SparTen simulator for the exact-equivalence oracle
 * (tests/test_sparten.cc).
 *
 * This is the implementation the library ran before its passes became
 * word-parallel: per-element K masks built with bounds-checked `at()`
 * reads, a per-output popcount loop, and a std::priority_queue of
 * (load, MAC) pairs with one pop and one push per output.  It is slow
 * and simple, and it is test-only: nothing in libgriffin links it.
 * The oracle holds simulateSparTen to its every GemmSimResult field.
 */

#ifndef GRIFFIN_TESTS_SUPPORT_SPARTEN_REFERENCE_HH
#define GRIFFIN_TESTS_SUPPORT_SPARTEN_REFERENCE_HH

#include "arch/arch_config.hh"
#include "sim/gemm_sim.hh"
#include "tensor/matrix.hh"

namespace griffin {
namespace reference {

/** simulateSparTen, element by element with a heap balancer. */
GemmSimResult simulateSparTen(const MatrixI8 &a, const MatrixI8 &b,
                              const ArchConfig &arch, DnnCategory cat);

} // namespace reference
} // namespace griffin

#endif // GRIFFIN_TESTS_SUPPORT_SPARTEN_REFERENCE_HH
