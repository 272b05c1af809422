/**
 * @file
 * Quickstart: simulate one sparse GEMM on Griffin and verify the
 * schedule functionally against a dense reference.
 *
 *   ./quickstart
 */

#include <iostream>

#include "arch/presets.hh"
#include "common/rng.hh"
#include "model/analytic.hh"
#include "power/cost_model.hh"
#include "sched/b_preprocess.hh"
#include "sched/verify.hh"
#include "sim/gemm_sim.hh"
#include "tensor/sparsity.hh"
#include "tensor/workset.hh"

using namespace griffin;

int
main()
{
    // A pruned-weights GEMM: 128x512 activations (50% ReLU zeros)
    // against 512x64 weights (85% pruned).
    Rng rng(42);
    auto a = randomSparse(128, 512, 0.50, rng);
    auto b = randomSparse(512, 64, 0.85, rng);

    // 1. Run it on Griffin in dual-sparse mode.
    const auto arch = griffinArch();
    const auto result = simulateGemm(a, b, arch, DnnCategory::AB);
    std::cout << "Griffin on a (128x512x64) dual-sparse GEMM\n"
              << "  dense cycles   : " << result.denseCycles << "\n"
              << "  griffin cycles : " << result.computeCycles << "\n"
              << "  speedup        : " << result.speedup() << "x\n"
              << "  effectual MACs : " << countEffectualOps(a, b) << " of "
              << result.denseOps << "\n";

    // 2. The analytical model predicts the same design point without
    //    simulating (the paper's DSE tool).
    std::cout << "  analytic model : "
              << analyticSpeedup(arch.routing, arch.tile, 0.50, 0.85)
              << "x predicted\n";

    // 3. Efficiency per Definition V.1.
    std::cout << "  efficiency     : "
              << effectiveTopsPerWatt(arch, DnnCategory::AB,
                                      result.speedup())
              << " TOPS/W, "
              << effectiveTopsPerMm2(arch, DnnCategory::AB,
                                     result.speedup())
              << " TOPS/mm2\n";

    // 4. Functional check: replay the offline-compressed weight
    //    stream against the dense reference GEMM.
    Shuffler shuffler(true, arch.tile.k0);
    TileViewB view(b, arch.tile, 0);
    auto stream = preprocessB(view, arch.routing.b, shuffler, false);
    const auto got = replayBSchedule(stream, a, b, 0, 0, arch.tile);
    const auto want = referenceTile(a, b, 0, 0, arch.tile);
    std::cout << "  verification   : compressed-stream replay "
              << (got == want ? "matches" : "DIVERGES FROM")
              << " the dense reference\n"
              << "  compression    : " << view.steps() << " steps -> "
              << stream.cycles() << " stream cycles ("
              << stream.dataBytes() << " B payload + "
              << stream.metadataBytes(4) << " B metadata)\n";
    return got == want ? 0 : 1;
}
