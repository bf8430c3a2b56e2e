#include "runtime/request_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "../model/test_models.h"
#include "model/model_factory.h"

namespace specinfer {
namespace runtime {
namespace {

using specinfer::testing::tinyLlm;

struct Fixture
{
    Fixture()
        : llm(tinyLlm()),
          ssm(model::makeEarlyExitSsm(llm, 2)),
          engine(&llm, {&ssm}, makeConfig())
    {
    }

    static core::EngineConfig
    makeConfig()
    {
        core::EngineConfig cfg = core::EngineConfig::greedyDefault();
        cfg.spec.expansion = core::ExpansionConfig::uniform(2, 4);
        cfg.maxNewTokens = 12;
        cfg.stopAtEos = false;
        return cfg;
    }

    model::Transformer llm;
    model::Transformer ssm;
    core::SpecEngine engine;
};

std::vector<int>
promptFor(int i)
{
    return {3 + i, 7, 2 + (i % 5), 9};
}

TEST(RequestManagerTest, SingleRequestMatchesEngine)
{
    Fixture f;
    RequestManager manager(&f.engine, {4});
    uint64_t id = manager.submit(promptFor(0));
    manager.runUntilDrained();
    ASSERT_EQ(manager.finished().size(), 1u);
    const RequestResult &res = manager.finished()[0];
    EXPECT_EQ(res.id, id);
    core::GenerationResult ref = f.engine.generate(promptFor(0), id);
    EXPECT_EQ(res.tokens, ref.tokens);
}

TEST(RequestManagerTest, BatchedOutputsMatchStandalone)
{
    // Continuous batching must not perturb any request's output:
    // each request decodes exactly as it would alone.
    Fixture f;
    RequestManager manager(&f.engine, {3});
    std::vector<uint64_t> ids;
    for (int i = 0; i < 7; ++i)
        ids.push_back(manager.submit(promptFor(i)));
    manager.runUntilDrained();
    ASSERT_EQ(manager.finished().size(), 7u);

    std::map<uint64_t, std::vector<int>> results;
    for (const RequestResult &res : manager.finished())
        results[res.id] = res.tokens;
    for (int i = 0; i < 7; ++i) {
        core::GenerationResult ref =
            f.engine.generate(promptFor(i), ids[i]);
        EXPECT_EQ(results[ids[i]], ref.tokens) << "request " << i;
    }
}

TEST(RequestManagerTest, RespectsMaxBatchSize)
{
    Fixture f;
    RequestManager manager(&f.engine, {2});
    for (int i = 0; i < 5; ++i)
        manager.submit(promptFor(i));
    manager.runIteration();
    EXPECT_EQ(manager.activeCount(), 2u);
    EXPECT_EQ(manager.pendingCount(), 3u);
}

TEST(RequestManagerTest, AdmitsMidFlight)
{
    // Iteration-level scheduling: a request submitted while a batch
    // is running joins as soon as a slot frees (or immediately if a
    // slot is free), without waiting for the batch to drain.
    Fixture f;
    RequestManager manager(&f.engine, {2});
    manager.submit(promptFor(0));
    manager.runIteration();
    EXPECT_EQ(manager.activeCount(), 1u);
    manager.submit(promptFor(1));
    manager.runIteration();
    EXPECT_EQ(manager.activeCount(), 2u);
}

TEST(RequestManagerTest, IterationCountsAndStats)
{
    Fixture f;
    RequestManager manager(&f.engine, {4});
    for (int i = 0; i < 3; ++i)
        manager.submit(promptFor(i));
    manager.runUntilDrained();
    const ServingStats &stats = manager.stats();
    EXPECT_EQ(stats.requestsSubmitted, 3u);
    EXPECT_EQ(stats.requestsFinished, 3u);
    EXPECT_EQ(stats.tokensGenerated, 3u * 12u);
    EXPECT_GT(stats.iterations, 0u);
    EXPECT_GT(stats.avgBatchSize(), 0.0);
    EXPECT_LE(stats.avgBatchSize(), 4.0);
}

TEST(RequestManagerTest, FinishTimingMonotone)
{
    Fixture f;
    RequestManager manager(&f.engine, {2});
    for (int i = 0; i < 4; ++i)
        manager.submit(promptFor(i));
    manager.runUntilDrained();
    for (const RequestResult &res : manager.finished()) {
        EXPECT_LE(res.arrivalIteration, res.startIteration);
        EXPECT_LE(res.startIteration, res.finishIteration);
        EXPECT_GE(res.serviceIterations(), 1u);
    }
}

TEST(RequestManagerTest, TakeFinishedDrains)
{
    Fixture f;
    RequestManager manager(&f.engine, {2});
    manager.submit(promptFor(0));
    manager.runUntilDrained();
    EXPECT_EQ(manager.takeFinished().size(), 1u);
    EXPECT_TRUE(manager.finished().empty());
}

TEST(RequestManagerTest, IdleIterationIsSafe)
{
    Fixture f;
    RequestManager manager(&f.engine, {2});
    EXPECT_FALSE(manager.busy());
    manager.runIteration();
    EXPECT_EQ(manager.iterationCount(), 1u);
    EXPECT_TRUE(manager.finished().empty());
}

TEST(RequestManagerTest, LateArrivalQueueAccounting)
{
    Fixture f;
    RequestManager manager(&f.engine, {1});
    manager.submit(promptFor(0));
    manager.submit(promptFor(1));
    manager.runUntilDrained();
    ASSERT_EQ(manager.finished().size(), 2u);
    const RequestResult &second = manager.finished()[1];
    // The second request had to queue behind the first.
    EXPECT_GT(second.startIteration, second.arrivalIteration);
}

TEST(RequestManagerTest, PerRequestTokenBudgetHonored)
{
    Fixture f;
    RequestManager manager(&f.engine, {2});
    uint64_t short_id = manager.submit(promptFor(0), 3);
    uint64_t long_id = manager.submit(promptFor(0));
    manager.runUntilDrained();
    ASSERT_EQ(manager.finished().size(), 2u);
    for (const RequestResult &res : manager.finished()) {
        if (res.id == short_id) {
            EXPECT_EQ(res.tokens.size(), 3u);
        }
        if (res.id == long_id) {
            EXPECT_EQ(res.tokens.size(), 12u);
        }
    }
}

TEST(RequestManagerDeathTest, RejectsZeroBatch)
{
    Fixture f;
    EXPECT_DEATH(RequestManager(&f.engine, {0}), "batch");
}

} // namespace
} // namespace runtime
} // namespace specinfer
