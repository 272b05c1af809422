/**
 * @file
 * Complete architecture configuration: core geometry, routing, memory
 * system, and datapath style (paper Table IV, bottom half).
 */

#ifndef GRIFFIN_ARCH_ARCH_CONFIG_HH
#define GRIFFIN_ARCH_ARCH_CONFIG_HH

#include <string>

#include "arch/category.hh"
#include "arch/routing.hh"
#include "tensor/tile.hh"

namespace griffin {

/**
 * Off-chip memory parameters.  Defaults are the paper's (Table IV):
 * 50 GB/s DRAM, 800 MHz.  The paper's on-chip SRAMs (512 KB ASRAM @
 * 51.2 GB/s, 32 KB BSRAM @ 204.8 GB/s) are not fields: Table IV prints
 * them as literals, and the operand rate the schedulers model is
 * ArchConfig::bwScale (effectiveBwScale()).
 */
struct MemoryConfig
{
    double dramGBs = 50.0;
    double freqGHz = 0.8;

    /** Bytes one cycle of the given bandwidth delivers. */
    double
    bytesPerCycle(double gbs) const
    {
        return gbs / freqGHz;
    }

    double dramBytesPerCycle() const { return bytesPerCycle(dramGBs); }
};

/**
 * How the MACs are organised.  VectorCore is the paper's 3-D unrolled
 * dot-product design; MacGrid models SparTen-style independent MACs
 * with per-MAC deep buffers and no K unrolling.
 */
enum class DatapathStyle
{
    VectorCore,
    MacGrid
};

/**
 * A named, complete architecture point.  Construct via the factories
 * in arch/presets.hh or fill in the fields for design-space sweeps.
 */
struct ArchConfig
{
    std::string name = "unnamed";
    TileShape tile{};
    RoutingConfig routing{};
    DatapathStyle style = DatapathStyle::VectorCore;
    MemoryConfig mem{};

    /**
     * Griffin's hybrid morphing: when true, the effective routing for
     * a workload category comes from griffinMorph() instead of
     * `routing`.
     */
    bool hybrid = false;

    /**
     * SRAM bandwidth provisioning as a multiple of the baseline
     * (1 operand step per cycle).  The scheduler cannot advance the
     * window faster than this many steps per cycle.  0 = auto: match
     * the window depth so the paper configurations never throttle
     * ("SRAM BW should be equal or more than speedup x baseline BW").
     */
    double bwScale = 0.0;

    /** MacGrid only: per-MAC input buffer depth (SparTen: 128). */
    int macBufferDepth = 0;

    /**
     * Routing actually used for a given workload category: morphs for
     * hybrid designs, `routing` otherwise.  Non-hybrid designs run
     * their full machinery regardless of category (a dual-sparse core
     * "downgrades" by simply finding fewer zeros to skip).
     */
    RoutingConfig effectiveRouting(DnnCategory cat) const;

    /** Resolved bandwidth cap in window steps per cycle (>= 1). */
    double effectiveBwScale(DnnCategory cat) const;

    void validate() const;
};

/**
 * Griffin's morph table (paper Fig. 4 / Table VI): conf.AB for dual
 * sparse, conf.B(8,0,1,on) for weight-only, conf.A(2,1,1,on) for
 * activation-only, dense passthrough otherwise.
 */
RoutingConfig griffinMorph(DnnCategory cat);

} // namespace griffin

#endif // GRIFFIN_ARCH_ARCH_CONFIG_HH
