/**
 * @file
 * Benchmark networks (paper Table IV) as dataflow DAGs.
 *
 * Layer shapes are the published architectures; the (weight,
 * activation) sparsity ratios, accuracies and dense-latency targets
 * are Table IV's.  Synthetic tensors are generated at these rates —
 * the cycle behaviour of the simulator depends only on zero positions,
 * not values (tensor/sparsity.hh).
 *
 * A network is a vector of nodes, each one a LayerSpec plus explicit
 * producer edges and the byte size of the output buffer the node
 * materialises on chip.  Branching (inception modules) is explicit;
 * chain networks are the degenerate single-predecessor case.  Node
 * order is load-bearing: the per-layer simulation seed is derived from
 * the node index (griffin/accelerator.hh), so builders must keep the
 * historical declaration order — schedulers reorder *execution*, never
 * the node vector itself.
 */

#ifndef GRIFFIN_WORKLOADS_NETWORK_HH
#define GRIFFIN_WORKLOADS_NETWORK_HH

#include <cstddef>
#include <string>
#include <vector>

#include "arch/category.hh"
#include "workloads/layer.hh"

namespace griffin {

/**
 * One dataflow node: the layer, the node indices whose output buffers
 * it reads, and the bytes of on-chip buffer its own output occupies
 * until the last consumer has run.  An empty `inputs` means the node
 * reads the network input (streamed from DRAM, never counted against
 * on-chip liveness).
 */
struct NetworkNode
{
    LayerSpec layer;
    std::vector<std::size_t> inputs;
    /**
     * Output-buffer footprint.  Default is m * n * groups output
     * elements at one byte each — the element-count-as-bytes
     * convention layerDramBytes() already uses — so peaks compare
     * directly against byte-denominated SRAM budgets.
     */
    std::int64_t outputBytes = 0;
};

/** A benchmark network: a layer DAG plus Table IV metadata. */
struct NetworkSpec
{
    std::string name;
    std::vector<NetworkNode> nodes;

    double weightSparsity = 0.0; ///< Table IV column B
    double actSparsity = 0.0;    ///< Table IV column A
    /**
     * Activation sparsity of the network's ReLU variant, used when a
     * DNN.A / DNN.AB run asks for sparse activations but the Table IV
     * model is GeLU-dense (BERT).  Table I pairs each category with
     * the matching activation function ("Transformer+ReLU" for
     * DNN.A), and ReLU zeroes roughly half of pre-activations.
     */
    double reluModeActSparsity = 0.5;
    std::string accuracy;        ///< reported accuracy (constant)
    std::int64_t paperDenseCycles = 0; ///< Table IV dense latency

    std::size_t layerCount() const { return nodes.size(); }
    const LayerSpec &layer(std::size_t i) const { return nodes[i].layer; }

    /**
     * Append a node consuming the named producers.  Edges must point
     * backwards (every input index below the new node's), which makes
     * builder-produced networks acyclic by construction; hand-built
     * node vectors are checked by sched/dag_schedule.hh's validateDag.
     * Returns the new node's index so builders can wire branches.
     */
    std::size_t addLayer(LayerSpec layer, std::vector<std::size_t> inputs);

    /** addLayer consuming the most recent node (or the network input
     *  when the DAG is still empty) — the chain-network builder. */
    std::size_t chainLayer(LayerSpec layer);

    std::int64_t macs() const;
    std::int64_t denseCycles(const TileShape &shape) const;

    /**
     * Effective per-layer sparsities when running a category: a layer
     * override wins, the network rate applies otherwise, and dense
     * categories zero the corresponding side.
     */
    double layerWeightSparsity(const LayerSpec &layer,
                               DnnCategory cat) const;
    double layerActSparsity(const LayerSpec &layer,
                            DnnCategory cat) const;

    /** fatal() unless every node, edge and rate is well formed:
     *  O(layers). */
    void validate() const;

    /**
     * The O(1) part of validate() one layer's simulation needs:
     * fatal() unless `index` names a node, its layer is well formed
     * and the network's sparsity rates are in [0, 1].  Other nodes and
     * the edges go unchecked.
     */
    void validateLayer(std::size_t index) const;

  private:
    void validateRates() const;
};

/** AlexNet, 89%/53% sparse, 1.0e6 dense cycles. */
NetworkSpec alexNet();
/** GoogLeNet (Inception v1), 82%/37%, 2.2e6. */
NetworkSpec googleNet();
/** ResNet-50, 81%/43%, 4.8e6. */
NetworkSpec resNet50();
/** Inception-V3, 79%/46%, 6.9e6. */
NetworkSpec inceptionV3();
/** MobileNetV2, 81%/52%, 2.2e6. */
NetworkSpec mobileNetV2();
/** BERT-base on MNLI, sequence length 64, 82%/0%, 5.3e6. */
NetworkSpec bertBase();

/** All six, Table IV order. */
std::vector<NetworkSpec> benchmarkSuite();

/** The six suite names, Table IV order. */
std::vector<std::string> networkNames();

/** Look up by case-insensitive name; fatal() with a nearest-name
 *  suggestion when unknown. */
NetworkSpec networkByName(const std::string &name);

} // namespace griffin

#endif // GRIFFIN_WORKLOADS_NETWORK_HH
