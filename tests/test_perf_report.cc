/**
 * @file
 * BENCH_perf.json schema: "kernels" section round-trip, back-compat
 * with the checked-in v1 seed (it keeps parsing and gating), strict
 * rejection of malformed sections, and the --gate regression band.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "runtime/perf_report.hh"

namespace griffin {
namespace {

PerfDocument
sampleDocument()
{
    PerfDocument doc;
    doc.threads = 2;
    doc.sample = 0.01;
    doc.rowCap = 4;
    doc.seed = 1;
    doc.totalWallMs = 12.5;
    PerfEntry e;
    e.experiment = "fig5";
    e.jobs = 144;
    e.wallMs = 10.0;
    e.jobsPerSec = 14.4;
    e.threadUtilization = 0.9;
    e.stages.push_back({"operand_gen", 7, 4.5});
    doc.suite.push_back(std::move(e));
    return doc;
}

std::string
renderJson(const PerfDocument &doc)
{
    std::ostringstream os;
    writePerfJson(os, doc);
    return os.str();
}

TEST(PerfReport, KernelsSectionRoundTrips)
{
    PerfDocument doc = sampleDocument();
    doc.kernels.push_back({"nonzero_masks", "avx2", 131072000, 21.0,
                           0.16});
    doc.kernels.push_back({"mt_temper", "avx2", 31200000, 9.1, 0.29});

    PerfDocument back;
    std::string error;
    ASSERT_TRUE(parsePerfDocument(renderJson(doc), back, error))
        << error;
    EXPECT_EQ(back.schemaVersion, perfSchemaVersion);
    ASSERT_EQ(back.kernels.size(), 2u);
    EXPECT_EQ(back.kernels[0].kernel, "nonzero_masks");
    EXPECT_EQ(back.kernels[0].backend, "avx2");
    EXPECT_EQ(back.kernels[0].ops, 131072000u);
    EXPECT_DOUBLE_EQ(back.kernels[0].totalMs, 21.0);
    EXPECT_DOUBLE_EQ(back.kernels[0].nsPerOp, 0.16);
    EXPECT_EQ(back.kernels[1].kernel, "mt_temper");
    ASSERT_EQ(back.suite.size(), 1u);
    EXPECT_EQ(back.suite[0].experiment, "fig5");
}

TEST(PerfReport, KernelsKeyOmittedWhenEmpty)
{
    const std::string text = renderJson(sampleDocument());
    EXPECT_EQ(text.find("\"kernels\""), std::string::npos);

    PerfDocument back;
    std::string error;
    ASSERT_TRUE(parsePerfDocument(text, back, error)) << error;
    EXPECT_TRUE(back.kernels.empty());
}

TEST(PerfReport, CheckedInV1SeedParsesAndGatesACurrentDocument)
{
    // The checked-in seed is a real v1 document: no "kernels" key, and
    // "caches" panels this build no longer writes.  CI's perf-smoke
    // gates a fresh artifact against it.
    const PerfDocument seed = loadPerfDocument(GRIFFIN_PERF_SEED);
    EXPECT_EQ(seed.schemaVersion, 1);
    EXPECT_TRUE(seed.kernels.empty());
    ASSERT_EQ(seed.suite.size(), 3u);
    EXPECT_EQ(seed.suite[0].experiment, "fig5");

    // The same numbers through the current writer: a document without
    // the dropped cache panels, which gates clean against the seed.
    PerfDocument current = seed;
    current.schemaVersion = perfSchemaVersion;
    const std::string text = renderJson(current);
    EXPECT_EQ(text.find("\"caches\""), std::string::npos);
    EXPECT_EQ(text.find("\"schedule\": {"), std::string::npos);
    EXPECT_EQ(text.find("\"a_schedule\": {"), std::string::npos);
    PerfDocument back;
    std::string error;
    ASSERT_TRUE(parsePerfDocument(text, back, error)) << error;
    EXPECT_EQ(back.schemaVersion, perfSchemaVersion);
    EXPECT_TRUE(perfGateViolations(seed, back, 0.10).empty());

    // ...and a 20% fig6 slowdown trips the gate.
    back.suite[1].jobsPerSec *= 0.8;
    const auto violations = perfGateViolations(seed, back, 0.10);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].rfind("fig6:", 0), 0u) << violations[0];
}

TEST(PerfReport, MalformedKernelsEntryRejected)
{
    PerfDocument doc = sampleDocument();
    doc.kernels.push_back({"le_mask", "scalar", 1000, 1.0, 1.0});
    std::string text = renderJson(doc);
    const auto pos = text.find("\"ns_per_op\"");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 11, "\"ns_per_opX\"");

    PerfDocument back;
    std::string error;
    EXPECT_FALSE(parsePerfDocument(text, back, error));
    EXPECT_NE(error.find("ns_per_op"), std::string::npos) << error;
}

TEST(PerfReport, NewerSchemaVersionRejected)
{
    PerfDocument doc = sampleDocument();
    doc.schemaVersion = perfSchemaVersion + 1;
    PerfDocument back;
    std::string error;
    EXPECT_FALSE(parsePerfDocument(renderJson(doc), back, error));
    EXPECT_NE(error.find("schema_version"), std::string::npos)
        << error;
}

PerfDocument
suiteWith(std::initializer_list<std::pair<const char *, double>> rates)
{
    PerfDocument doc;
    for (const auto &r : rates) {
        PerfEntry e;
        e.experiment = r.first;
        e.jobsPerSec = r.second;
        doc.suite.push_back(std::move(e));
    }
    return doc;
}

TEST(PerfReport, GateFlagsOnlyRegressionsBeyondTheBand)
{
    // a: -9% (inside the band), b: -20% (violation), c: improved,
    // old-only and new-only experiments never violate.
    const PerfDocument old_doc =
        suiteWith({{"a", 100.0}, {"b", 100.0}, {"c", 10.0},
                   {"old_only", 50.0}});
    const PerfDocument new_doc =
        suiteWith({{"a", 91.0}, {"b", 80.0}, {"c", 25.0},
                   {"new_only", 1.0}});

    const auto violations =
        perfGateViolations(old_doc, new_doc, 0.10);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].rfind("b:", 0), 0u) << violations[0];
}

TEST(PerfReport, GatePassesOnIdenticalDocuments)
{
    const PerfDocument doc = suiteWith({{"a", 100.0}, {"b", 5.0}});
    EXPECT_TRUE(perfGateViolations(doc, doc, 0.10).empty());
}

} // namespace
} // namespace griffin
