/**
 * @file
 * Tests for the benchmark networks: layer tables, MAC counts, and the
 * Table IV dense-latency targets.
 */

#include <limits>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "workloads/net_util.hh"
#include "workloads/network.hh"

namespace griffin {
namespace {

const TileShape kShape{};

TEST(Workloads, SuiteHasTheSixTableFourNetworks)
{
    auto suite = benchmarkSuite();
    ASSERT_EQ(suite.size(), 6u);
    EXPECT_EQ(suite[0].name, "AlexNet");
    EXPECT_EQ(suite[5].name, "BERT");
    for (const auto &net : suite)
        net.validate();
}

TEST(Workloads, TableFourSparsityRatios)
{
    EXPECT_DOUBLE_EQ(networkByName("alexnet").weightSparsity, 0.89);
    EXPECT_DOUBLE_EQ(networkByName("alexnet").actSparsity, 0.53);
    EXPECT_DOUBLE_EQ(networkByName("bert").weightSparsity, 0.82);
    EXPECT_DOUBLE_EQ(networkByName("bert").actSparsity, 0.0);
    EXPECT_DOUBLE_EQ(networkByName("resnet50").weightSparsity, 0.81);
}

TEST(Workloads, FindNetworkFoldsCase)
{
    const auto net = findNetwork("gOOGLEnET");
    ASSERT_TRUE(net.has_value());
    EXPECT_EQ(net->name, "GoogLeNet");
    EXPECT_FALSE(findNetwork("vgg").has_value());
}

TEST(Workloads, MacCountsAreInTheLiteratureBallpark)
{
    // Published single-inference MAC counts (within a factor that
    // tolerates our head/pool simplifications).
    const struct
    {
        const char *name;
        double macs;
        double tolerance;
    } expected[] = {
        {"AlexNet", 0.72e9, 0.25},     {"GoogLeNet", 1.6e9, 0.30},
        {"ResNet50", 4.1e9, 0.15},     {"InceptionV3", 5.7e9, 0.20},
        {"MobileNetV2", 0.31e9, 0.25}, {"BERT", 5.6e9, 0.15},
    };
    for (const auto &e : expected) {
        const auto macs =
            static_cast<double>(networkByName(e.name).macs());
        EXPECT_NEAR(macs / e.macs, 1.0, e.tolerance) << e.name;
    }
}

TEST(Workloads, DenseLatencyNearTableFour)
{
    // Table IV dense cycle counts; our lowering differs in pooling /
    // head details, so hold each to 35%.  MobileNetV2 is the known
    // outlier: the paper's mapping runs depthwise layers far below
    // even our (already poor) grouped-GEMM utilisation — see
    // EXPERIMENTS.md — so it only gets an order-of-magnitude check.
    for (const auto &net : benchmarkSuite()) {
        const auto cycles =
            static_cast<double>(net.denseCycles(kShape));
        const auto target =
            static_cast<double>(net.paperDenseCycles);
        const double tolerance =
            net.name == "MobileNetV2" ? 0.65 : 0.35;
        EXPECT_NEAR(cycles / target, 1.0, tolerance)
            << net.name << ": " << cycles << " vs " << target;
    }
}

TEST(Workloads, FirstConvsAreDenseActivationOverride)
{
    for (const auto &name :
         {"AlexNet", "GoogLeNet", "ResNet50", "InceptionV3",
          "MobileNetV2"}) {
        const auto net = networkByName(name);
        const auto &first = net.layer(0);
        EXPECT_DOUBLE_EQ(
            net.layerActSparsity(first, DnnCategory::AB), 0.0)
            << name;
        // But later layers follow the network rate.
        const auto &later = net.layer(3);
        EXPECT_GT(net.layerActSparsity(later, DnnCategory::AB), 0.3)
            << name;
    }
}

TEST(Workloads, CategoryGatesSparsity)
{
    const auto net = networkByName("resnet50");
    const auto &layer = net.layer(5);
    EXPECT_DOUBLE_EQ(net.layerWeightSparsity(layer, DnnCategory::Dense),
                     0.0);
    EXPECT_DOUBLE_EQ(net.layerActSparsity(layer, DnnCategory::Dense),
                     0.0);
    EXPECT_DOUBLE_EQ(net.layerWeightSparsity(layer, DnnCategory::B),
                     0.81);
    EXPECT_DOUBLE_EQ(net.layerActSparsity(layer, DnnCategory::B), 0.0);
    EXPECT_DOUBLE_EQ(net.layerActSparsity(layer, DnnCategory::A), 0.43);
    EXPECT_DOUBLE_EQ(net.layerWeightSparsity(layer, DnnCategory::AB),
                     0.81);
}

TEST(Workloads, BertAttentionGemmsAreUnpruned)
{
    const auto net = networkByName("bert");
    for (const auto &node : net.nodes) {
        const auto &layer = node.layer;
        if (layer.name.find("scores") != std::string::npos ||
            layer.name.find("context") != std::string::npos) {
            EXPECT_DOUBLE_EQ(
                net.layerWeightSparsity(layer, DnnCategory::B), 0.0)
                << layer.name;
            EXPECT_EQ(layer.groups, 12) << layer.name;
        }
    }
}

TEST(Workloads, DepthwiseLayersAreGroupedAndUnpruned)
{
    const auto net = networkByName("mobilenetv2");
    int depthwise = 0;
    for (const auto &node : net.nodes) {
        const auto &layer = node.layer;
        if (layer.name.find("depthwise") == std::string::npos)
            continue;
        ++depthwise;
        EXPECT_GT(layer.groups, 1) << layer.name;
        EXPECT_EQ(layer.n, 1) << layer.name; // one channel per group
        EXPECT_DOUBLE_EQ(net.layerWeightSparsity(layer, DnnCategory::B),
                         0.0)
            << layer.name;
    }
    EXPECT_EQ(depthwise, 17);
}

TEST(Workloads, ConvLowersToTheDirectConvolutionGemm)
{
    // netutil::conv is the one convolution lowering the layer tables
    // use (Section II-A): per group, A is hw^2 output pixels by
    // (cin/g)*r*s patch elements and B is that by cout/g kernels, so
    // the GEMM does the direct convolution's hw^2*cout*(cin/g)*r*s
    // MACs.
    const struct
    {
        const char *name;
        int cin, hw, r, s, cout, groups;
    } shapes[] = {
        {"plain", 64, 56, 3, 3, 128, 1},
        {"asymmetric", 160, 17, 1, 7, 192, 1},
        {"conv2", 96, 27, 5, 5, 256, 2}, // AlexNet's two-group conv2
        {"depthwise", 96, 56, 3, 3, 96, 96},
    };
    for (const auto &c : shapes) {
        const LayerSpec layer =
            netutil::conv(c.name, c.cin, c.hw, c.r, c.s, c.cout, c.groups);
        const std::int64_t hw = c.hw, r = c.r, s = c.s;
        const std::int64_t cin_g = c.cin / c.groups;
        EXPECT_EQ(layer.m, hw * hw) << c.name;
        EXPECT_EQ(layer.k, cin_g * r * s) << c.name;
        EXPECT_EQ(layer.n, c.cout / c.groups) << c.name;
        EXPECT_EQ(layer.groups, c.groups) << c.name;
        EXPECT_EQ(layer.macs(), hw * hw * c.cout * cin_g * r * s)
            << c.name;
    }
    // The AlexNet table lowers its conv2 the same way.
    const LayerSpec conv2 = networkByName("alexnet").layer(1);
    EXPECT_EQ(conv2.name, "conv2");
    EXPECT_EQ(conv2.m, 27 * 27);
    EXPECT_EQ(conv2.k, 48 * 5 * 5);
    EXPECT_EQ(conv2.n, 128);
    EXPECT_EQ(conv2.groups, 2);
}

TEST(Workloads, RepeatAndGroupsMultiplyCounts)
{
    LayerSpec layer = fcLayer("x", 16, 32, 8);
    layer.repeat = 3;
    EXPECT_EQ(layer.macs(), 3 * 8 * 16 * 32);
    EXPECT_EQ(layer.denseCycles(kShape), 3 * 2 * 2 * 1);
}

TEST(Workloads, DagShapesArePinned)
{
    // (name, nodes, edges): the four chains have n-1 edges; the two
    // branching networks pin their module fan-out.
    const struct
    {
        const char *name;
        std::size_t nodes;
        std::size_t edges;
    } expected[] = {
        {"alexnet", 8, 7},       {"googlenet", 58, 156},
        {"resnet50", 54, 53},    {"inceptionv3", 95, 231},
        {"mobilenetv2", 53, 52}, {"bert", 9, 8},
    };
    for (const auto &e : expected) {
        const auto net = networkByName(e.name);
        EXPECT_EQ(net.layerCount(), e.nodes) << e.name;
        std::size_t edges = 0;
        for (const auto &node : net.nodes)
            edges += node.inputs.size();
        EXPECT_EQ(edges, e.edges) << e.name;
    }
}

TEST(Workloads, GoogLeNetBranchesShareTheBlockInput)
{
    const auto net = networkByName("googlenet");
    // All four inception_3a heads consume conv2/3x3 (node 2); the
    // 3x3/5x5 tails consume their reduces.
    for (const std::size_t head : {3u, 4u, 6u, 8u})
        EXPECT_EQ(net.nodes[head].inputs, std::vector<std::size_t>{2})
            << net.layer(head).name;
    EXPECT_EQ(net.nodes[5].inputs, std::vector<std::size_t>{4});
    EXPECT_EQ(net.nodes[7].inputs, std::vector<std::size_t>{6});
    // The classifier consumes 5b's four branch terminals.
    EXPECT_EQ(net.nodes.back().inputs.size(), 4u);
}

TEST(Workloads, InceptionV3ReducesFanOut)
{
    const auto net = networkByName("inceptionv3");
    // mixed_c blocks split each 3x3 reduce into a 1x3/3x1 pair: two
    // distinct consumers of one producer.
    std::size_t splits = 0;
    for (std::size_t v = 0; v < net.layerCount(); ++v) {
        if (net.layer(v).name.find("/3x3_a") == std::string::npos)
            continue;
        const auto producer = net.nodes[v].inputs.at(0);
        EXPECT_EQ(net.nodes[v + 1].inputs.at(0), producer)
            << net.layer(v).name;
        ++splits;
    }
    EXPECT_EQ(splits, 2u);
    // The classifier consumes mixed_c2's six branch terminals.
    EXPECT_EQ(net.nodes.back().inputs.size(), 6u);
}

TEST(WorkloadsDeathTest, UnknownNetworkIsFatal)
{
    EXPECT_EXIT(networkByName("VGG16"), testing::ExitedWithCode(exitUsageError),
                "unknown network");
}

TEST(WorkloadsDeathTest, UnknownNetworkSuggestsTheNearestName)
{
    EXPECT_EXIT(networkByName("goglenet"), testing::ExitedWithCode(exitUsageError),
                "did you mean 'GoogLeNet'");
}

TEST(WorkloadsDeathTest, MacOverflowIsFatal)
{
    LayerSpec huge;
    huge.name = "huge";
    huge.m = std::int64_t{1} << 31;
    huge.k = std::int64_t{1} << 31;
    huge.n = 4;
    EXPECT_EXIT(huge.validate(), testing::ExitedWithCode(exitUsageError),
                "overflows int64");
}

TEST(WorkloadsDeathTest, InvalidLayerIsFatal)
{
    LayerSpec bad;
    bad.name = "bad";
    bad.m = 0;
    EXPECT_EXIT(bad.validate(), testing::ExitedWithCode(exitUsageError),
                "non-positive GEMM dims");
}

TEST(WorkloadsDeathTest, NanNetworkSparsityIsFatal)
{
    // NaN fails every comparison, so a range check written as
    // `x < 0 || x > 1` lets it through to the generators' asserts.
    NetworkSpec net = alexNet();
    net.weightSparsity = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EXIT(net.validate(), testing::ExitedWithCode(exitUsageError),
                "sparsity nan outside \\[0,1\\]");
}

TEST(WorkloadsDeathTest, ReluModeSparsityAboveOneIsFatal)
{
    NetworkSpec net = alexNet();
    net.reluModeActSparsity = 1.5;
    EXPECT_EXIT(net.validate(), testing::ExitedWithCode(exitUsageError),
                "sparsity 1.5 outside \\[0,1\\]");
}

TEST(WorkloadsDeathTest, NanLayerSparsityOverrideIsFatal)
{
    // A negative override means "use the network's rate"; NaN is not
    // negative and must not silently mean the same.
    NetworkSpec net = alexNet();
    net.nodes[2].layer.weightSparsity =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_EXIT(net.validate(), testing::ExitedWithCode(exitUsageError),
                "layer 'conv3' has sparsity above 1 or NaN");
}

} // namespace
} // namespace griffin
