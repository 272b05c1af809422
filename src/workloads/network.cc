#include "workloads/network.hh"

#include <algorithm>
#include <cctype>

#include "common/logging.hh"
#include "common/strings.hh"

namespace griffin {

std::size_t
NetworkSpec::addLayer(LayerSpec layer, std::vector<std::size_t> inputs)
{
    const std::size_t index = nodes.size();
    for (const std::size_t input : inputs) {
        if (input >= index)
            fatal("network '", name, "': node '", layer.name,
                  "' (index ", index, ") consumes node ", input,
                  " which is not an earlier node");
    }
    NetworkNode node;
    node.outputBytes =
        layer.m * layer.n * static_cast<std::int64_t>(layer.groups);
    node.layer = std::move(layer);
    node.inputs = std::move(inputs);
    nodes.push_back(std::move(node));
    return index;
}

std::size_t
NetworkSpec::chainLayer(LayerSpec layer)
{
    std::vector<std::size_t> inputs;
    if (!nodes.empty())
        inputs.push_back(nodes.size() - 1);
    return addLayer(std::move(layer), std::move(inputs));
}

std::int64_t
NetworkSpec::macs() const
{
    std::int64_t total = 0;
    for (const auto &node : nodes)
        total += node.layer.macs();
    return total;
}

std::int64_t
NetworkSpec::denseCycles(const TileShape &shape) const
{
    std::int64_t total = 0;
    for (const auto &node : nodes)
        total += node.layer.denseCycles(shape);
    return total;
}

double
NetworkSpec::layerWeightSparsity(const LayerSpec &layer,
                                 DnnCategory cat) const
{
    if (!hasSparseB(cat))
        return 0.0;
    return layer.weightSparsity >= 0.0 ? layer.weightSparsity
                                       : weightSparsity;
}

double
NetworkSpec::layerActSparsity(const LayerSpec &layer,
                              DnnCategory cat) const
{
    if (!hasSparseA(cat))
        return 0.0;
    if (layer.actSparsity >= 0.0)
        return layer.actSparsity;
    // GeLU-dense models switch to their ReLU variant in activation-
    // sparse categories (Table I's pairing).
    return actSparsity > 0.0 ? actSparsity : reluModeActSparsity;
}

void
NetworkSpec::validate() const
{
    if (nodes.empty())
        fatal("network '", name, "' has no layers");
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const NetworkNode &node = nodes[i];
        node.layer.validate();
        if (node.outputBytes < 0)
            fatal("network '", name, "': node '", node.layer.name,
                  "' has negative output bytes");
        for (const std::size_t input : node.inputs)
            if (input >= i)
                fatal("network '", name, "': node '", node.layer.name,
                      "' (index ", i, ") consumes node ", input,
                      " which is not an earlier node");
    }
    validateRates();
}

void
NetworkSpec::validateLayer(std::size_t index) const
{
    if (index >= nodes.size())
        fatal("layer index ", index, " out of range for ", name, " (",
              nodes.size(), " layers)");
    nodes[index].layer.validate();
    validateRates();
}

void
NetworkSpec::validateRates() const
{
    if (weightSparsity < 0.0 || weightSparsity > 1.0 ||
        actSparsity < 0.0 || actSparsity > 1.0) {
        fatal("network '", name, "' sparsity outside [0,1]");
    }
}

std::vector<NetworkSpec>
benchmarkSuite()
{
    return {alexNet(),     googleNet(),    resNet50(),
            inceptionV3(), mobileNetV2(),  bertBase()};
}

std::vector<std::string>
networkNames()
{
    return {"AlexNet",     "GoogLeNet",   "ResNet50",
            "InceptionV3", "MobileNetV2", "BERT"};
}

NetworkSpec
networkByName(const std::string &name)
{
    std::string lower = name;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    for (auto &net : benchmarkSuite()) {
        std::string candidate = net.name;
        std::transform(candidate.begin(), candidate.end(),
                       candidate.begin(),
                       [](unsigned char ch) { return std::tolower(ch); });
        if (candidate == lower)
            return net;
    }
    fatal("unknown network '", name, "'; did you mean '",
          nearestName(name, networkNames()),
          "'? (see griffin_bench networks)");
}

} // namespace griffin
