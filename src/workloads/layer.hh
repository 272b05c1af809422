/**
 * @file
 * Layer descriptions: every benchmark layer reduces to one GEMM
 * (Section II-A), possibly grouped and possibly repeated.
 */

#ifndef GRIFFIN_WORKLOADS_LAYER_HH
#define GRIFFIN_WORKLOADS_LAYER_HH

#include <cstdint>
#include <string>

#include "tensor/tile.hh"

namespace griffin {

/**
 * One layer lowered to GEMM: A is (m x k) activations, B is (k x n)
 * weights, per group.  `groups` > 1 models grouped/depthwise
 * convolution (each group is an independent GEMM); `repeat` collapses
 * identical layers (e.g. the 12 transformer blocks of BERT).
 */
struct LayerSpec
{
    std::string name;
    std::int64_t m = 1;
    std::int64_t k = 1;
    std::int64_t n = 1;
    int groups = 1;
    std::int64_t repeat = 1;

    /**
     * Per-layer sparsity overrides in [0,1]; negative means "use the
     * network-level rate".  First convolutions, for example, are
     * customarily left unpruned.
     */
    double weightSparsity = -1.0;
    double actSparsity = -1.0;

    /** MACs over all groups and repeats. */
    std::int64_t
    macs() const
    {
        return m * k * n * groups * repeat;
    }

    /** Dense-core cycles over all groups and repeats. */
    std::int64_t
    denseCycles(const TileShape &shape) const
    {
        return griffin::denseCycles(m, k, n, shape) * groups * repeat;
    }

    void validate() const;
};

/** Fully connected layer on a batch of `batch` activations. */
LayerSpec fcLayer(const std::string &name, std::int64_t in,
                  std::int64_t out, std::int64_t batch = 1);

} // namespace griffin

#endif // GRIFFIN_WORKLOADS_LAYER_HH
