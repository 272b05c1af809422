/**
 * @file
 * Hardware overhead formulas (paper Table II and Section IV-A).
 *
 * Canonical reconstruction validated against every concrete value the
 * paper states (tests/test_overhead.cc checks each one):
 *
 *   Sparse.A(d1,d2,d3):
 *     ABUF depth 1+d1, AMUX fan-in 1 + d1*(1+d2)*(1+d3),
 *     BBUF depth 1+d1, BMUX fan-in 1 + d1*(1+d2), ADT/PE 1+d3,
 *     one arbiter per PE row.
 *   Sparse.B(d1,d2,d3):
 *     ABUF depth 1+d1, AMUX fan-in 1 + d1*(1+d2), no BBUF/BMUX
 *     (metadata-driven), ADT/PE 1+d3.
 *   Sparse.AB(x,y,z,x',y',z') with preprocessing:
 *     ABUF depth L=(1+x)(1+x'), BBUF depth 1+x',
 *     AMUX 1+(L-1)(1+y+y')(1+z), BMUX 1+x(1+y), ADT/PE (1+z)(1+z'),
 *     one controller per PE.
 *
 * The paper's prose says dual sparsity needs "z*z' extra adders"; the
 * (1+z)(1+z') form is what actually matches its own example
 * (AB(2,0,0,2,0,1) -> one extra adder tree), so we use that.
 */

#ifndef GRIFFIN_ARCH_OVERHEAD_HH
#define GRIFFIN_ARCH_OVERHEAD_HH

#include <cstdint>

#include "arch/routing.hh"
#include "tensor/tile.hh"

namespace griffin {

/**
 * Per-configuration hardware inventory.  Depths and fan-ins are in
 * words (Table II); the Count/Words fields are whole-core totals the
 * power/area model.
 */
struct HardwareOverhead
{
    // -- Table II quantities (per instance) --------------------------
    int abufDepth = 1;   ///< words per lane, buffer shared per PE row
    int amuxFanin = 1;   ///< operand-select fan-in on the A path
    int bbufDepth = 1;   ///< words per lane, buffer shared per PE column
    int bmuxFanin = 1;   ///< operand-select fan-in on the B path
    int adtPerPe = 1;    ///< adder trees per PE (1 is the dense tree)

    /** Metadata bits per scheduled B element (preprocessed modes). */
    int metadataBits = 0;

    // -- whole-core totals (geometry-dependent) ----------------------
    std::int64_t abufWords = 0;   ///< total ABUF storage
    std::int64_t bbufWords = 0;   ///< total BBUF storage
    std::int64_t amuxCount = 0;   ///< number of AMUX instances
    std::int64_t bmuxCount = 0;   ///< number of BMUX instances
    std::int64_t extraAdtCount = 0; ///< adder trees beyond the dense one
    std::int64_t ctrlUnits = 0;   ///< arbiters/controllers
    std::int64_t shufflerCrossbars = 0; ///< 4x4 crossbars (A and B side)
};

/**
 * Compute the inventory for a routing config on a core geometry.
 * panic()s on invalid configs.
 */
HardwareOverhead computeOverhead(const RoutingConfig &cfg,
                                 const TileShape &shape);

/**
 * Design-space legality limits used in Section VI: AMUX fan-in must
 * not exceed 8 for single-sparse designs and 16 for dual-sparse ones.
 */
bool withinFaninLimits(const RoutingConfig &cfg, const TileShape &shape);

} // namespace griffin

#endif // GRIFFIN_ARCH_OVERHEAD_HH
