/**
 * @file
 * Regression test for the preemption livelock: two memory-starved
 * requests must never evict each other forever. FCFS priority (a
 * request only preempts strictly later arrivals) plus re-admission
 * backoff guarantee the earliest request always progresses.
 */

#include <gtest/gtest.h>

#include "../model/test_models.h"
#include "model/model_factory.h"
#include "obs/obs.h"
#include "runtime/request_manager.h"

namespace specinfer {
namespace runtime {
namespace {

using specinfer::testing::tinyLlm;

TEST(PreemptionFcfsTest, TwoStarvedRequestsNeverLivelock)
{
    model::Transformer llm = tinyLlm();
    model::Transformer ssm = model::makeEarlyExitSsm(llm, 2);
    core::EngineConfig ecfg = core::EngineConfig::greedyDefault();
    ecfg.spec.expansion = core::ExpansionConfig::uniform(2, 4);
    ecfg.maxNewTokens = 24;
    ecfg.stopAtEos = false;
    core::SpecEngine engine(&llm, {&ssm}, ecfg);

    std::vector<int> p1 = {5, 9, 2, 11};
    std::vector<int> p2 = {6, 3, 8, 1};

    // Pool sized for ~1.5 worst cases: the two requests cannot both
    // hold their full footprint, so the later one must be preempted
    // at least once — the exact schedule where the pre-FCFS victim
    // rule (most-recently-restarted) cycled forever.
    size_t per_request = engine.kvTokensFor(p1.size() + ecfg.maxNewTokens);
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    cfg.kvBlockTokens = 8;
    KvBlockAllocator probe(1000, 8);
    cfg.kvPoolBlocks = probe.blocksFor(per_request) * 3 / 2;
    cfg.kvPolicy = KvReservationPolicy::OnDemand;
    // Latency assertions run against an injected ManualClock, not
    // wall time: every runIteration() reads the clock exactly twice
    // (start/end of the iteration timer), so iteration latency is
    // exactly one auto-step and the assertions below cannot flake
    // on a loaded machine.
    obs::ManualClock clock(0, 1000);
    obs::ObsContext obs_ctx(&clock, /*tracing_enabled=*/false);
    cfg.obs = &obs_ctx;
    RequestManager manager(&engine, cfg);
    uint64_t id1 = manager.submit(p1);
    uint64_t id2 = manager.submit(p2);

    size_t iterations = 0;
    while (manager.busy()) {
        manager.runIteration();
        ASSERT_LT(++iterations, 400u)
            << "two starved requests are evicting each other";
    }

    // Both finish normally with exactly their standalone outputs,
    // and only the later arrival ever lost its memory.
    ASSERT_EQ(manager.finished().size(), 2u);
    for (const RequestResult &res : manager.finished()) {
        EXPECT_EQ(res.stopReason,
                  core::SpecSession::StopReason::MaxTokens);
        if (res.id == id1) {
            EXPECT_EQ(res.tokens, engine.generate(p1, id1).tokens);
            EXPECT_EQ(res.preemptions, 0u);
        } else {
            ASSERT_EQ(res.id, id2);
            EXPECT_EQ(res.tokens, engine.generate(p2, id2).tokens);
            EXPECT_GE(res.preemptions, 1u);
        }
    }
    EXPECT_EQ(manager.finished()[0].id, id1); // FCFS finish order
    EXPECT_GT(manager.stats().preemptions, 0u);
    EXPECT_EQ(manager.stats().preemptionAborts, 0u);
    EXPECT_EQ(manager.kvPool()->usedBlocks(), 0u);

    // Deterministic timing: with a 1us auto-step every iteration
    // lasted exactly 0.001ms, so the latency histogram has every
    // observation in its lowest bucket and the clock was read a
    // number of times that is a pure function of the workload.
    EXPECT_EQ(clock.reads(), 2 * iterations);
    obs::MetricsSnapshot snap = obs_ctx.metrics().snapshot();
    const obs::SnapshotHistogram *lat =
        snap.findHistogram("serving_iteration_millis");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, iterations);
    ASSERT_FALSE(lat->counts.empty());
    EXPECT_EQ(lat->counts[0], iterations); // all <= 0.01ms exactly
}

} // namespace
} // namespace runtime
} // namespace specinfer
