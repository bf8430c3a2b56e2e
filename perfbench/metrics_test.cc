/**
 * @file
 * Checks of the serving benchmark's arithmetic on hand-built inputs.
 */

#include "metrics.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double>
iota(size_t n)
{
    std::vector<double> v;
    for (size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

TEST(PercentileTest, CarriesSampleCountAndNearestRank)
{
    Percentile p50 = percentile(iota(100), 0.5);
    ASSERT_TRUE(p50.value.has_value());
    EXPECT_EQ(p50.samples, 100u);
    EXPECT_DOUBLE_EQ(*p50.value, 50.0);

    Percentile p90 = percentile(iota(100), 0.9);
    ASSERT_TRUE(p90.value.has_value());
    EXPECT_DOUBLE_EQ(*p90.value, 90.0);
}

TEST(PercentileTest, IgnoresInputOrder)
{
    std::vector<double> v = {5, 1, 4, 2, 3};
    std::vector<double> many;
    for (int r = 0; r < 10; ++r)
        many.insert(many.end(), v.begin(), v.end());
    Percentile p = percentile(many, 0.5);
    ASSERT_TRUE(p.value.has_value());
    EXPECT_DOUBLE_EQ(*p.value, 3.0);
}

TEST(PercentileTest, TailAbsentBelowTenSamplesBeyondIt)
{
    Percentile p90 = percentile(iota(99), 0.9);
    EXPECT_FALSE(p90.value.has_value());
    EXPECT_EQ(p90.samples, 99u);
    EXPECT_FALSE(percentile(iota(50), 0.9).value.has_value());
}

TEST(PercentileTest, MedianOfAnyNonEmptySample)
{
    Percentile p50 = percentile(iota(3), 0.5);
    ASSERT_TRUE(p50.value.has_value());
    EXPECT_DOUBLE_EQ(*p50.value, 2.0);
    EXPECT_EQ(p50.samples, 3u);
    EXPECT_FALSE(percentile({}, 0.5).value.has_value());
}

TEST(MeanTest, EmptyIsAbsent)
{
    EXPECT_FALSE(mean({}).has_value());
    EXPECT_DOUBLE_EQ(*mean({1.0, 2.0, 6.0}), 3.0);
}

TEST(TtftTest, CountsFromDueTimeWhenGeneratorRunsLate)
{
    // Due at 1.000 s, sent 5 ms late at 1.005 s, first token at
    // 1.020 s: the request waited 20 ms, not 15 ms.
    const double due = 1.000, first = 1.020;
    EXPECT_NEAR(ttftMs(due, first), 20.0, 1e-9);
    const double submitted = 1.005;
    EXPECT_NEAR(ttftMs(submitted, first), 15.0, 1e-9);
}

TEST(TpotTest, SeveralTokensInOneStep)
{
    // 3 tokens at t=1, 2 at t=2: 5 tokens, first at 1 s, last at
    // 2 s, so (2 - 1) / (5 - 1) = 250 ms per token after the first.
    std::vector<TokenBurst> bursts = {{1.0, 3}, {2.0, 2}};
    ASSERT_TRUE(tpotMs(bursts).has_value());
    EXPECT_NEAR(*tpotMs(bursts), 250.0, 1e-9);
}

TEST(TpotTest, SingleBurstAndSingleToken)
{
    // Every token in one step: no time passes after the first.
    EXPECT_NEAR(*tpotMs({{1.0, 4}}), 0.0, 1e-12);
    EXPECT_FALSE(tpotMs({{1.0, 1}}).has_value());
    EXPECT_FALSE(tpotMs({}).has_value());
    // Empty bursts do not move the first or last token time.
    EXPECT_NEAR(*tpotMs({{0.5, 0}, {1.0, 1}, {3.0, 1}, {4.0, 0}}),
                2000.0, 1e-9);
}

TEST(SelfTimeTest, NestedChildrenAreSubtracted)
{
    // Parent [0, 100) with children [10, 30) and [50, 60): self 70.
    Coverage kids({{10, 30}, {50, 60}});
    EXPECT_EQ(selfNanos({0, 100}, kids), 70u);
}

TEST(SelfTimeTest, OverlappingAndOutsideChildrenCountOnce)
{
    // Overlapping children cover [10, 40) once; a child straddling
    // the parent's end counts only inside it; a child after the
    // parent not at all.
    Coverage kids({{20, 40}, {10, 30}, {90, 120}, {200, 300}});
    EXPECT_EQ(selfNanos({0, 100}, kids), 100u - 30u - 10u);
    EXPECT_EQ(kids.covered(0, 1000), 30u + 30u + 100u);
    EXPECT_EQ(selfNanos({150, 160}, kids), 10u);
}

TEST(SelfTimeTest, GrandchildrenInsideChildrenDoNotCountTwice)
{
    // tick [0, 100) > iteration [10, 90) > engine span [20, 30):
    // the tick's self time counts its direct cover once.
    Coverage iterations({{10, 90}});
    EXPECT_EQ(selfNanos({0, 100}, iterations), 20u);
    Coverage engine({{20, 30}});
    EXPECT_EQ(selfNanos({10, 90}, engine), 70u);
}

} // namespace
} // namespace perfbench
