/**
 * @file
 * Tests for the minimal JSON parser (tests/support/json.hh): the
 * documents our own result sinks emit must round-trip, and malformed
 * input must be rejected with a located error.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "runtime/result_sink.hh"
#include "support/json.hh"

namespace griffin {
namespace {

JsonValue
parseOk(const std::string &text)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(text, v, error)) << error;
    return v;
}

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_TRUE(parseOk("true").asBool());
    EXPECT_FALSE(parseOk("false").asBool());
    EXPECT_DOUBLE_EQ(parseOk("-12.5e2").asDouble(), -1250.0);
    EXPECT_EQ(parseOk("9007199254740993").asInt(), 9007199254740993LL);
    EXPECT_EQ(parseOk("18446744073709551615").asUint(),
              18446744073709551615ULL);
    EXPECT_EQ(parseOk("\"a\\n\\\"b\\u0041\"").asString(), "a\n\"bA");
}

TEST(Json, ParsesNestedDocuments)
{
    const auto v = parseOk(
        "{\"name\": \"fig5\", \"rows\": [1, 2.5, {\"x\": []}], "
        "\"flag\": false}");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.members.size(), 3u);
    EXPECT_EQ(v.find("name")->asString(), "fig5");
    const auto *rows = v.find("rows");
    ASSERT_TRUE(rows != nullptr && rows->isArray());
    EXPECT_EQ(rows->items.size(), 3u);
    EXPECT_EQ(rows->items[0].asInt(), 1);
    EXPECT_TRUE(rows->items[2].find("x")->isArray());
    EXPECT_FALSE(v.find("flag")->asBool());
    EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(Json, PreservesMemberOrderAndRawNumberTokens)
{
    const auto v = parseOk("{\"b\": 1, \"a\": 0.030000000000000002}");
    EXPECT_EQ(v.members[0].first, "b");
    EXPECT_EQ(v.members[1].first, "a");
    // The raw token survives, so shortest-round-trip doubles re-parse
    // to the exact bit pattern.
    EXPECT_EQ(v.members[1].second.text, "0.030000000000000002");
    EXPECT_DOUBLE_EQ(v.members[1].second.asDouble(),
                     0.030000000000000002);
}

TEST(Json, RejectsMalformedInput)
{
    JsonValue v;
    std::string error;
    for (const char *bad :
         {"", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated",
          "{\"a\": 1,}", "01a", "\"bad\\q\""}) {
        EXPECT_FALSE(parseJson(bad, v, error)) << bad;
        EXPECT_NE(error.find("offset"), std::string::npos);
    }
}

TEST(Json, RejectsRunawayNesting)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson(deep, v, error));
}

TEST(Json, RoundTripsSinkOutput)
{
    // A real sink row parses back with every field it was written
    // with.
    NetworkResult r;
    r.network = "alex,net\"x"; // exercise escaping
    r.arch = "B(4,0,1,on)";
    r.category = DnnCategory::AB;
    r.denseCycles = 123456789012345;
    r.totalCycles = 7;
    r.speedup = 0.1 + 0.2; // non-terminating binary fraction
    LayerResult lr;
    lr.name = "conv1";
    lr.macs = 42;
    lr.speedup = 3.25;
    r.layers.push_back(lr);

    ResultRow row;
    row.result = r;
    row.annotated = true;
    row.options.seed = 11;
    row.coords.push_back({"arch", "B(4,0,1,on)"});
    row.experiment = "fig5";

    std::ostringstream os;
    writeJsonLines(os, std::vector<ResultRow>{row});
    auto line = os.str();
    line.pop_back(); // trailing newline

    const auto v = parseOk(line);
    EXPECT_EQ(v.find("experiment")->asString(), "fig5");
    EXPECT_EQ(v.find("network")->asString(), "alex,net\"x");
    EXPECT_EQ(v.find("arch")->asString(), "B(4,0,1,on)");
    EXPECT_EQ(v.find("category")->asString(), "DNN.AB");
    EXPECT_EQ(v.find("dense_cycles")->asInt(), 123456789012345);
    EXPECT_EQ(v.find("speedup")->asDouble(), 0.1 + 0.2);
    EXPECT_EQ(v.find("options")->find("seed")->asUint(), 11u);
    EXPECT_EQ(v.find("coords")->find("arch")->asString(),
              "B(4,0,1,on)");
    const auto *layers = v.find("layers");
    ASSERT_TRUE(layers != nullptr && layers->isArray());
    EXPECT_EQ(layers->items[0].find("name")->asString(), "conv1");
    EXPECT_EQ(layers->items[0].find("macs")->asInt(), 42);
}

} // namespace
} // namespace griffin
