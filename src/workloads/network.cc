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
        for (auto it = node.inputs.begin(); it != node.inputs.end(); ++it) {
            if (*it >= i)
                fatal("network '", name, "': node '", node.layer.name,
                      "' (index ", i, ") consumes node ", *it,
                      " which is not an earlier node");
            if (std::find(node.inputs.begin(), it, *it) != it)
                fatal("network '", name, "': node '", node.layer.name,
                      "' lists input ", *it, " twice");
        }
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
    // Negated so a NaN rate fails too.
    for (const double rate : {weightSparsity, actSparsity,
                              reluModeActSparsity})
        if (!(rate >= 0.0 && rate <= 1.0))
            fatal("network '", name, "' sparsity ", rate,
                  " outside [0,1]");
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

std::optional<NetworkSpec>
findNetwork(const std::string &name)
{
    const auto fold = [](std::string s) {
        std::transform(s.begin(), s.end(), s.begin(), [](unsigned char ch) {
            return static_cast<char>(std::tolower(ch));
        });
        return s;
    };
    const std::string wanted = fold(name);
    for (auto &net : benchmarkSuite())
        if (fold(net.name) == wanted)
            return std::move(net);
    return std::nullopt;
}

NetworkSpec
networkByName(const std::string &name)
{
    if (auto net = findNetwork(name))
        return std::move(*net);
    fatal("unknown network '", name, "'; did you mean '",
          nearestName(name, networkNames()),
          "'? (see griffin_bench networks)");
}

} // namespace griffin
