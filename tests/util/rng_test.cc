#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

namespace specinfer {
namespace util {
namespace {

TEST(RngTest, DeterministicFromSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformRange)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(RngTest, UniformIntCoversRange)
{
    Rng rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(uint64_t{5}));
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 4u);
}

TEST(RngTest, UniformIntSigned)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.uniformInt(int64_t{-4}, int64_t{3});
        ASSERT_GE(v, -4);
        ASSERT_LE(v, 3);
    }
}

TEST(RngTest, NormalMoments)
{
    Rng rng(17);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double x = rng.normal();
        sum += x;
        sum_sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, NormalScaled)
{
    Rng rng(19);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 0.5);
    EXPECT_NEAR(sum / n, 10.0, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights)
{
    Rng rng(23);
    std::vector<float> weights = {1.0f, 0.0f, 3.0f};
    int counts[3] = {0, 0, 0};
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.categorical(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
    EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, CategoricalSingleton)
{
    Rng rng(29);
    std::vector<float> weights = {2.5f};
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.categorical(weights), 0u);
}

TEST(RngTest, ForkDecorrelates)
{
    Rng parent(31);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += parent.next() == child.next();
    EXPECT_LT(same, 2);
}

TEST(RngTest, ShufflePermutes)
{
    Rng rng(37);
    std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7};
    std::vector<int> orig = items;
    rng.shuffle(items);
    std::multiset<int> a(items.begin(), items.end());
    std::multiset<int> b(orig.begin(), orig.end());
    EXPECT_EQ(a, b);
}

TEST(RngTest, StateRoundTripResumesMidStream)
{
    // Journal replay restores a sampler to its exact pre-crash
    // cursor: capture state mid-stream, keep drawing, then rewind a
    // second generator to the captured state and require the same
    // draws — uniforms, ints, and categoricals alike.
    Rng rng(41);
    for (int i = 0; i < 37; ++i)
        rng.uniform();
    RngState mid = rng.state();
    std::vector<double> want;
    std::vector<uint64_t> want_ints;
    for (int i = 0; i < 50; ++i) {
        want.push_back(rng.uniform());
        want_ints.push_back(rng.uniformInt(uint64_t{1000}));
    }
    Rng other(999); // different seed: state fully overrides it
    other.setState(mid);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(other.uniform(), want[i]);
        EXPECT_EQ(other.uniformInt(uint64_t{1000}), want_ints[i]);
    }
}

TEST(RngTest, StateCarriesCachedNormal)
{
    // normal() draws pairs and caches the second value; the state
    // must carry the cached half or a restored stream would slip by
    // one draw.
    Rng rng(43);
    rng.normal(); // leaves one normal cached
    RngState with_cache = rng.state();
    std::vector<double> want;
    for (int i = 0; i < 9; ++i)
        want.push_back(rng.normal());
    Rng other(7);
    other.setState(with_cache);
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(other.normal(), want[i]);
}

TEST(RngTest, SetStateIsIdempotent)
{
    Rng rng(47);
    rng.normal();
    RngState s = rng.state();
    Rng a(0), b(1);
    a.setState(s);
    b.setState(a.state());
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, HashStringStable)
{
    EXPECT_EQ(hashString("alpha"), hashString("alpha"));
    EXPECT_NE(hashString("alpha"), hashString("beta"));
}

TEST(RngTest, SplitMixAdvances)
{
    uint64_t state = 5;
    uint64_t a = splitmix64(state);
    uint64_t b = splitmix64(state);
    EXPECT_NE(a, b);
}

TEST(JitteredBackoffTest, MatchesEachCallSiteFormula)
{
    // The three formulas the one function replaced, written out:
    // preemption re-admission (unit 1, cap 64), client reconnect
    // (1 << min(k, 10), no cap) and supervisor restart (a base in
    // milliseconds, capped). Each must give the same delay and
    // leave the stream at the same cursor, draw for draw; k runs
    // past every cap and clamp.
    Rng old_rng(0x6a177e5ULL), new_rng(0x6a177e5ULL);
    for (size_t k = 0; k <= 20; ++k) {
        const uint64_t preempt =
            std::min(uint64_t{1} << std::min<size_t>(k, 16),
                     uint64_t{64});
        const uint64_t client = uint64_t{1} << std::min<size_t>(k, 10);
        const uint64_t restart =
            std::min(uint64_t{100} << std::min<size_t>(k, 16),
                     uint64_t{10000});
        for (const auto &[base, unit, cap] :
             {std::tuple{preempt, uint64_t{1}, uint64_t{64}},
              std::tuple{client, uint64_t{1}, uint64_t{1024}},
              std::tuple{restart, uint64_t{100}, uint64_t{10000}}}) {
            const uint64_t expected =
                base + old_rng.uniformInt(base / 2 + 1);
            EXPECT_EQ(jitteredBackoff(new_rng, unit, k, cap), expected)
                << "k=" << k << " unit=" << unit << " cap=" << cap;
        }
        EXPECT_TRUE(new_rng.state() == old_rng.state()) << "k=" << k;
    }
}

} // namespace
} // namespace util
} // namespace specinfer
