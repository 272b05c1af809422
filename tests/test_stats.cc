/**
 * @file
 * Tests for geomean, the paper's aggregator.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"

namespace griffin {
namespace {

TEST(Stats, GeomeanOfEqualValuesIsThatValue)
{
    EXPECT_DOUBLE_EQ(geomean({3.0, 3.0, 3.0}), 3.0);
}

TEST(Stats, GeomeanKnownValue)
{
    // geomean(2, 8) = 4
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Stats, GeomeanEmptyIsOne)
{
    EXPECT_DOUBLE_EQ(geomean({}), 1.0);
}

TEST(Stats, GeomeanIsNotAboveArithmeticMean)
{
    // Arithmetic mean of {1, 2, 3, 10} is 4.
    EXPECT_LE(geomean({1.0, 2.0, 3.0, 10.0}), 4.0);
}

TEST(StatsDeathTest, GeomeanRejectsNonPositive)
{
    EXPECT_DEATH(geomean({1.0, 0.0}), "positive");
    EXPECT_DEATH(geomean({-2.0}), "positive");
}

} // namespace
} // namespace griffin
