/**
 * @file
 * Targeted fault-injection tests: each named fault point is armed
 * with a surgical schedule and the runtime must degrade gracefully
 * — identical tokens for finished requests, typed failures for the
 * rest, never an abort.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "../model/test_models.h"
#include "model/model_factory.h"
#include "runtime/request_manager.h"
#include "util/fault.h"

namespace specinfer {
namespace runtime {
namespace {

using core::SpecSession;
using specinfer::testing::tinyLlm;
using util::FaultInjector;
using util::FaultPoint;
using util::FaultScope;

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

TEST(FaultInjectionTest, SsmFaultFallsBackToIncremental)
{
    // With the speculator failing on every step, every iteration
    // degrades to plain incremental decoding — same tokens, one
    // per step, and the fault surfaces in the stats.
    Fixture f;
    std::vector<std::vector<int>> want;
    for (int i = 0; i < 3; ++i)
        want.push_back(
            f.engine.generate(promptFor(i), uint64_t(i) + 1).tokens);

    FaultInjector fi(1);
    fi.setProbability(FaultPoint::SsmStep, 1.0);
    FaultScope scope(&fi);
    ServingConfig cfg;
    cfg.maxBatchSize = 4;
    cfg.degradeAfterConsecutiveFaults = 0; // isolate the fallback
    RequestManager manager(&f.engine, cfg);
    for (int i = 0; i < 3; ++i)
        manager.submit(promptFor(i));
    manager.runUntilDrained();
    ASSERT_EQ(manager.finished().size(), 3u);
    for (const RequestResult &res : manager.finished()) {
        EXPECT_EQ(res.tokens, want[res.id - 1]) << fi.reproLine();
        // Degraded steps emit exactly one token each.
        EXPECT_EQ(res.stats.decodeSteps(), res.tokens.size());
        EXPECT_EQ(res.stats.fallbackSteps(),
                  res.stats.decodeSteps());
    }
    EXPECT_GT(manager.stats().fallbackSteps, 0u);
}

TEST(FaultInjectionTest, VerifyFaultRejectsTreeNotRequest)
{
    // A verifier fault discards the speculated tree; the step still
    // emits the root's token, so outputs stay identical.
    Fixture f;
    std::vector<int> want =
        f.engine.generate(promptFor(0), 1).tokens;

    FaultInjector fi(2);
    fi.setProbability(FaultPoint::Verify, 1.0);
    FaultScope scope(&fi);
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    cfg.degradeAfterConsecutiveFaults = 0; // isolate the fallback
    RequestManager manager(&f.engine, cfg);
    manager.submit(promptFor(0));
    manager.runUntilDrained();
    ASSERT_EQ(manager.finished().size(), 1u);
    const RequestResult &res = manager.finished()[0];
    EXPECT_EQ(res.tokens, want) << fi.reproLine();
    EXPECT_EQ(res.stats.fallbackSteps(), res.stats.decodeSteps());
    EXPECT_GT(fi.fired(FaultPoint::Verify), 0u);
}

TEST(FaultInjectionTest, MixedFaultScheduleKeepsOutputsExact)
{
    // Random mixture of speculator and verifier faults: finished
    // outputs must stay token-identical to the fault-free run.
    Fixture f;
    std::map<uint64_t, std::vector<int>> want;
    for (int i = 0; i < 5; ++i)
        want[uint64_t(i) + 1] =
            f.engine.generate(promptFor(i), uint64_t(i) + 1).tokens;

    FaultInjector fi(0xbeef);
    fi.setProbability(FaultPoint::SsmStep, 0.4);
    fi.setProbability(FaultPoint::Verify, 0.3);
    FaultScope scope(&fi);
    RequestManager manager(&f.engine, {3});
    for (int i = 0; i < 5; ++i)
        manager.submit(promptFor(i));
    manager.runUntilDrained();
    ASSERT_EQ(manager.finished().size(), 5u);
    for (const RequestResult &res : manager.finished())
        EXPECT_EQ(res.tokens, want[res.id]) << fi.reproLine();
    EXPECT_GT(manager.stats().fallbackSteps, 0u);
}

TEST(FaultInjectionTest, DegradationLadderDisablesAndReenables)
{
    // Consecutive SSM faults trip the ladder: speculation disables
    // for a backoff window (doubling on repeat), runs incremental,
    // then re-enables — outputs unaffected throughout.
    Fixture f;
    std::vector<int> want =
        f.engine.generate(promptFor(0), 1, 48).tokens;

    FaultInjector fi(3);
    fi.setProbability(FaultPoint::SsmStep, 1.0);
    FaultScope scope(&fi);
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    cfg.degradeAfterConsecutiveFaults = 2;
    cfg.degradeBackoffIterations = 4;
    RequestManager manager(&f.engine, cfg);
    manager.submit(promptFor(0), 48);
    manager.runUntilDrained();

    ASSERT_EQ(manager.finished().size(), 1u);
    EXPECT_EQ(manager.finished()[0].tokens, want) << fi.reproLine();
    const ServingStats &stats = manager.stats();
    const DegradationState &degr = manager.degradation();
    // 48 incremental tokens with trigger 2 and window 4 must trip
    // the ladder repeatedly, doubling the backoff.
    EXPECT_GE(degr.disableEpisodes, 2u);
    EXPECT_GT(degr.currentBackoff, cfg.degradeBackoffIterations);
    EXPECT_GT(stats.degradedIterations, 0u);
    // Disabled iterations consult no fault point.
    EXPECT_EQ(fi.occurrences(FaultPoint::SsmStep),
              stats.fallbackSteps);
}

TEST(FaultInjectionTest, DegradationRecoversWhenFaultsStop)
{
    Fixture f;
    FaultInjector fi(4);
    fi.setProbability(FaultPoint::SsmStep, 1.0);
    ServingConfig cfg;
    cfg.maxBatchSize = 1;
    cfg.degradeAfterConsecutiveFaults = 2;
    cfg.degradeBackoffIterations = 3;
    RequestManager manager(&f.engine, cfg);
    manager.submit(promptFor(0), 40);
    {
        FaultScope scope(&fi);
        while (!manager.degradation().speculationDisabled &&
               manager.busy())
            manager.runIteration();
        ASSERT_TRUE(manager.degradation().speculationDisabled);
    }
    // Faults stop (scope gone); the window elapses, speculation
    // re-enables, and a fault-free stretch resets the backoff.
    manager.runUntilDrained();
    EXPECT_FALSE(manager.degradation().speculationDisabled);
    EXPECT_EQ(manager.degradation().currentBackoff, 0u);
    ASSERT_EQ(manager.finished().size(), 1u);
    EXPECT_EQ(manager.finished()[0].tokens,
              f.engine.generate(promptFor(0), 1, 40).tokens);
}

TEST(FaultInjectionTest, DeadlineExpiresActiveRequestCleanly)
{
    // An active request past its iteration deadline fails with a
    // typed reason and a partial output that is a prefix of its
    // full output.
    Fixture f;
    std::vector<int> full =
        f.engine.generate(promptFor(0), 1, 48).tokens;
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    RequestManager manager(&f.engine, cfg);
    SubmitResult sr = manager.submit(promptFor(0), 48, 4);
    ASSERT_TRUE(sr.accepted());
    manager.runUntilDrained();
    ASSERT_EQ(manager.finished().size(), 1u);
    const RequestResult &res = manager.finished()[0];
    EXPECT_EQ(res.stopReason, SpecSession::StopReason::Deadline);
    ASSERT_LT(res.tokens.size(), full.size());
    EXPECT_TRUE(std::equal(res.tokens.begin(), res.tokens.end(),
                           full.begin()));
    EXPECT_EQ(manager.stats().deadlineExpiries, 1u);
}

TEST(FaultInjectionTest, DeadlineExpiresPendingRequestCleanly)
{
    Fixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 1;
    RequestManager manager(&f.engine, cfg);
    manager.submit(promptFor(0));          // occupies the only slot
    uint64_t starved = manager.submit(promptFor(1), 0, 2);
    manager.runUntilDrained();
    ASSERT_EQ(manager.finished().size(), 2u);
    for (const RequestResult &res : manager.finished()) {
        if (res.id != starved)
            continue;
        EXPECT_EQ(res.stopReason, SpecSession::StopReason::Deadline);
        EXPECT_TRUE(res.tokens.empty());
        EXPECT_GE(res.queueIterations(), 2u);
    }
    EXPECT_EQ(manager.stats().deadlineExpiries, 1u);
}

TEST(FaultInjectionTest, DefaultDeadlineFromConfig)
{
    Fixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 1;
    cfg.defaultDeadlineIterations = 3;
    RequestManager manager(&f.engine, cfg);
    manager.submit(promptFor(0), 48); // would need ~48 iterations
    manager.runUntilDrained();
    ASSERT_EQ(manager.finished().size(), 1u);
    EXPECT_EQ(manager.finished()[0].stopReason,
              SpecSession::StopReason::Deadline);
}

TEST(FaultInjectionTest, CancelPendingAndActive)
{
    Fixture f;
    std::vector<int> full =
        f.engine.generate(promptFor(0), 1, 48).tokens;
    ServingConfig cfg;
    cfg.maxBatchSize = 1;
    RequestManager manager(&f.engine, cfg);
    uint64_t running = manager.submit(promptFor(0), 48);
    uint64_t queued = manager.submit(promptFor(1));
    manager.runIteration();
    manager.runIteration();
    EXPECT_TRUE(manager.cancel(queued));
    EXPECT_TRUE(manager.cancel(running));
    EXPECT_FALSE(manager.cancel(queued)); // already gone
    EXPECT_FALSE(manager.busy());
    ASSERT_EQ(manager.finished().size(), 2u);
    for (const RequestResult &res : manager.finished()) {
        EXPECT_EQ(res.stopReason, SpecSession::StopReason::Cancelled);
        if (res.id == queued) {
            EXPECT_TRUE(res.tokens.empty());
        }
        if (res.id == running) {
            EXPECT_GT(res.tokens.size(), 0u);
            ASSERT_LE(res.tokens.size(), full.size());
            EXPECT_TRUE(std::equal(res.tokens.begin(),
                                   res.tokens.end(), full.begin()));
        }
    }
    EXPECT_EQ(manager.stats().cancellations, 2u);
}

TEST(FaultInjectionTest, BoundedQueueRejectsOnFull)
{
    Fixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 1;
    cfg.maxPendingRequests = 2;
    RequestManager manager(&f.engine, cfg);
    EXPECT_TRUE(manager.submit(promptFor(0)).accepted());
    EXPECT_TRUE(manager.submit(promptFor(1)).accepted());
    SubmitResult rejected = manager.submit(promptFor(2));
    EXPECT_EQ(rejected.reject, RejectReason::QueueFull);
    EXPECT_EQ(rejected.id, 0u);
    EXPECT_EQ(manager.stats().rejectedQueueFull, 1u);
    // Admission frees queue space: after one iteration a slot in
    // the queue opens and submission succeeds again.
    manager.runIteration();
    EXPECT_TRUE(manager.submit(promptFor(2)).accepted());
    manager.runUntilDrained();
    EXPECT_EQ(manager.finished().size(), 3u);
}

TEST(FaultInjectionTest, InvalidPromptRejected)
{
    Fixture f;
    RequestManager manager(&f.engine, {2});
    EXPECT_EQ(manager.submit({}).reject, RejectReason::InvalidPrompt);
    std::vector<int> huge(f.llm.config().maxSeqLen, 1);
    EXPECT_EQ(manager.submit(huge).reject,
              RejectReason::InvalidPrompt);
    EXPECT_EQ(manager.stats().rejectedNeverFits, 2u);
    EXPECT_FALSE(manager.busy());
}

TEST(FaultInjectionTest, KvFaultPreemptsAndShedsOverflow)
{
    // Surgical KV fault: iteration 2's first growth reservation is
    // armed to fail. The grower (earliest arrival) preempts the
    // latest arrival, whose requeue overflows the bounded pending
    // queue and sheds the queued request with a typed result.
    Fixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    cfg.kvBlockTokens = 8;
    cfg.kvPoolBlocks = 64; // generous: only the armed fault fails
    cfg.kvPolicy = KvReservationPolicy::OnDemand;
    cfg.maxPendingRequests = 1;
    RequestManager manager(&f.engine, cfg);
    FaultInjector fi(5);
    // Reserve consultations, in order: #1 admits A, #2 is A's
    // growth reserve (iteration 1); #3 admits B, #4/#5 grow A and B
    // (iteration 2); iteration 3 skips admission (batch full), so
    // #6 is A's growth reserve — arm exactly that one.
    fi.armAt(FaultPoint::KvAlloc, 6);
    FaultScope scope(&fi);

    uint64_t a = manager.submit(promptFor(0));
    manager.runIteration();
    uint64_t b = manager.submit(promptFor(1));
    manager.runIteration();
    EXPECT_EQ(manager.activeCount(), 2u);
    uint64_t c = manager.submit(promptFor(2)); // fills the queue
    manager.runIteration();                    // armed fault fires
    EXPECT_EQ(manager.stats().preemptions, 1u);
    EXPECT_EQ(manager.stats().shedRequests, 1u);
    manager.runUntilDrained();

    std::map<uint64_t, const RequestResult *> by_id;
    for (const RequestResult &res : manager.finished())
        by_id[res.id] = &res;
    ASSERT_EQ(by_id.size(), 3u);
    EXPECT_EQ(by_id[c]->stopReason, SpecSession::StopReason::Shed);
    EXPECT_TRUE(by_id[c]->tokens.empty());
    EXPECT_EQ(by_id[a]->preemptions, 0u);
    EXPECT_EQ(by_id[b]->preemptions, 1u);
    // The preempted request restarts and still decodes exactly its
    // standalone output.
    EXPECT_EQ(by_id[b]->tokens,
              f.engine.generate(promptFor(1), b).tokens)
        << fi.reproLine();
    EXPECT_EQ(manager.stats().preemptionRetries, 1u);
}

TEST(FaultInjectionTest, PreemptionBudgetFailsCleanly)
{
    // Under a hostile allocation-fault schedule, requests exhaust
    // their retry budget and fail with StopReason::Preempted (with
    // a deadline backstop) instead of livelocking.
    Fixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    cfg.kvBlockTokens = 8;
    cfg.kvPoolBlocks = 64;
    cfg.kvPolicy = KvReservationPolicy::OnDemand;
    cfg.maxPreemptions = 1;
    cfg.defaultDeadlineIterations = 120;
    RequestManager manager(&f.engine, cfg);
    FaultInjector fi(6);
    fi.setProbability(FaultPoint::KvAlloc, 0.75);
    FaultScope scope(&fi);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(manager.submit(promptFor(i)).accepted());
    size_t guard = 0;
    while (manager.busy()) {
        manager.runIteration();
        ASSERT_LT(++guard, 2000u)
            << "livelock: " << fi.reproLine();
    }
    // Conservation: every accepted request has exactly one result.
    ASSERT_EQ(manager.finished().size(), 4u);
    const ServingStats &stats = manager.stats();
    EXPECT_GT(stats.preemptions, 0u);
    for (const RequestResult &res : manager.finished()) {
        // Budget respected: at most maxPreemptions requeues plus
        // the final budget-exceeded preemption.
        EXPECT_LE(res.preemptions, cfg.maxPreemptions + 1);
        if (res.stopReason == SpecSession::StopReason::Preempted) {
            EXPECT_EQ(res.preemptions, cfg.maxPreemptions + 1);
        }
    }
}

TEST(FaultInjectionTest, SlowIterationConsumesDeadlineBudget)
{
    // An injected straggler jumps the iteration clock, so a
    // deadline that comfortably fits without faults now expires.
    Fixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 1;
    cfg.slowIterationPenalty = 10;
    RequestManager manager(&f.engine, cfg);
    FaultInjector fi(7);
    fi.armAt(FaultPoint::SlowIteration, 1);
    FaultScope scope(&fi);
    manager.submit(promptFor(0), 48, 8);
    size_t calls = 0;
    while (manager.busy()) {
        manager.runIteration();
        ++calls;
    }
    EXPECT_EQ(manager.stats().slowIterations, 1u);
    EXPECT_GT(manager.iterationCount(), calls); // clock jumped
    ASSERT_EQ(manager.finished().size(), 1u);
    EXPECT_EQ(manager.finished()[0].stopReason,
              SpecSession::StopReason::Deadline);
}

TEST(FaultInjectionTest, NoFaultsMeansNoOverhead)
{
    // The zero-cost default path: without an installed injector no
    // fault statistics move and outputs equal the plain engine.
    Fixture f;
    ASSERT_EQ(util::faultInjector(), nullptr);
    RequestManager manager(&f.engine, {4});
    for (int i = 0; i < 3; ++i)
        manager.submit(promptFor(i));
    manager.runUntilDrained();
    const ServingStats &stats = manager.stats();
    EXPECT_EQ(stats.fallbackSteps, 0u);
    EXPECT_EQ(stats.degradedIterations, 0u);
    EXPECT_EQ(stats.slowIterations, 0u);
    EXPECT_EQ(stats.shedRequests, 0u);
    for (const RequestResult &res : manager.finished())
        EXPECT_EQ(res.tokens,
                  f.engine.generate(promptFor(int(res.id) - 1),
                                    res.id)
                      .tokens);
}

} // namespace
} // namespace runtime
} // namespace specinfer
