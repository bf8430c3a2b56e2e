#include "runtime/kv_memory.h"

#include <gtest/gtest.h>

#include <map>

#include "../model/test_models.h"
#include "model/model_factory.h"
#include "runtime/request_manager.h"
#include "util/rng.h"

namespace specinfer {
namespace runtime {
namespace {

using specinfer::testing::tinyLlm;

TEST(KvBlockAllocatorTest, BlocksForRoundsUp)
{
    KvBlockAllocator pool(10, 16);
    EXPECT_EQ(pool.blocksFor(0), 0u);
    EXPECT_EQ(pool.blocksFor(1), 1u);
    EXPECT_EQ(pool.blocksFor(16), 1u);
    EXPECT_EQ(pool.blocksFor(17), 2u);
}

TEST(KvBlockAllocatorTest, ReserveGrowAndRelease)
{
    KvBlockAllocator pool(4, 16);
    EXPECT_TRUE(pool.reserve(1, 20)); // 2 blocks
    EXPECT_EQ(pool.usedBlocks(), 2u);
    EXPECT_EQ(pool.requestBlocks(1), 2u);
    // Growing within the holding is a no-op.
    EXPECT_TRUE(pool.reserve(1, 30));
    EXPECT_EQ(pool.usedBlocks(), 2u);
    // Growing beyond it takes more blocks.
    EXPECT_TRUE(pool.reserve(1, 33));
    EXPECT_EQ(pool.usedBlocks(), 3u);
    pool.release(1);
    EXPECT_EQ(pool.usedBlocks(), 0u);
    EXPECT_EQ(pool.requestBlocks(1), 0u);
}

TEST(KvBlockAllocatorTest, ExhaustionFailsCleanly)
{
    KvBlockAllocator pool(2, 16);
    EXPECT_TRUE(pool.reserve(1, 32));
    EXPECT_FALSE(pool.reserve(2, 1));
    EXPECT_EQ(pool.stats().failedReservations, 1u);
    // Failure changed nothing.
    EXPECT_EQ(pool.usedBlocks(), 2u);
    EXPECT_EQ(pool.requestBlocks(2), 0u);
    EXPECT_FALSE(pool.canReserve(2, 1));
    pool.release(1);
    EXPECT_TRUE(pool.canReserve(2, 1));
}

TEST(KvBlockAllocatorTest, ShrinkingIsNoop)
{
    KvBlockAllocator pool(4, 8);
    EXPECT_TRUE(pool.reserve(1, 24));
    EXPECT_TRUE(pool.reserve(1, 8));
    EXPECT_EQ(pool.requestBlocks(1), 3u);
}

TEST(KvBlockAllocatorTest, PeakAndFragmentation)
{
    KvBlockAllocator pool(8, 16);
    pool.reserve(1, 17); // 2 blocks = 32 token capacity
    EXPECT_EQ(pool.stats().peakUsedBlocks, 2u);
    EXPECT_NEAR(pool.fragmentation(17), 15.0 / 32.0, 1e-12);
    pool.release(1);
    EXPECT_EQ(pool.stats().peakUsedBlocks, 2u);
    EXPECT_DOUBLE_EQ(pool.fragmentation(0), 0.0);
}

TEST(KvBlockAllocatorTest, RedundantReleaseIsCountedNoop)
{
    // Abort paths (cancel, shed, deadline, preempt) may race the
    // retirement path to release; a second release must not corrupt
    // the free list — it is a counted no-op, and the counter is the
    // test hook proving no double-release happens in practice.
    KvBlockAllocator pool(4, 16);
    ASSERT_TRUE(pool.reserve(1, 20));
    pool.release(1);
    EXPECT_EQ(pool.usedBlocks(), 0u);
    EXPECT_EQ(pool.stats().redundantReleases, 0u);
    pool.release(1); // double release
    pool.release(99); // never-reserved id
    EXPECT_EQ(pool.stats().redundantReleases, 2u);
    EXPECT_EQ(pool.usedBlocks(), 0u);
    // The pool is still fully usable.
    EXPECT_TRUE(pool.reserve(2, 64));
    EXPECT_EQ(pool.usedBlocks(), 4u);
    pool.release(2);
    EXPECT_EQ(pool.usedBlocks(), 0u);
    EXPECT_EQ(pool.stats().redundantReleases, 2u);
}

TEST(KvBlockAllocatorDeathTest, RejectsDegeneratePool)
{
    EXPECT_DEATH(KvBlockAllocator(0, 16), "empty");
    EXPECT_DEATH(KvBlockAllocator(4, 0), "block");
}

TEST(KvBlockAllocatorTest, ProbesDoNotCountFailures)
{
    // Regression (admission-loop bugfix): canReserve / canAdmit are
    // read-only probes — backpressure polling must not inflate the
    // failure statistics. Only a genuine reserve() attempt counts,
    // and it counts once.
    KvBlockAllocator pool(2, 16);
    ASSERT_TRUE(pool.reserve(1, 32));
    for (int i = 0; i < 5; ++i) {
        EXPECT_FALSE(pool.canReserve(2, 1));
        EXPECT_FALSE(pool.canAdmit(2, {1, 2, 3}, 4, true));
    }
    EXPECT_EQ(pool.stats().failedReservations, 0u);
    EXPECT_FALSE(pool.reserve(2, 1));
    EXPECT_EQ(pool.stats().failedReservations, 1u);
}

// ---------------------------------------------------------------
// Prefix sharing: interning, refcounts, copy-on-write,
// deterministic eviction, fair-share accounting.

std::vector<int>
countedTokens(int first, size_t count)
{
    std::vector<int> tokens;
    tokens.reserve(count);
    for (size_t i = 0; i < count; ++i)
        tokens.push_back(first + static_cast<int>(i));
    return tokens;
}

TEST(KvSharingTest, InterningRefcountsAndFairShare)
{
    KvBlockAllocator pool(16, 4);
    const std::vector<int> prompt = countedTokens(1, 10); // 2 full
    PrefixMatch m1;
    ASSERT_TRUE(pool.canAdmit(1, prompt, 12, true));
    ASSERT_TRUE(pool.admit(1, prompt, 12, true, &m1));
    EXPECT_TRUE(m1.hashes.empty()); // nothing was resident
    ASSERT_EQ(m1.ownHashes.size(), 2u);
    EXPECT_EQ(pool.stats().prefixMisses, 2u);
    EXPECT_EQ(pool.usedBlocks(), 3u); // 2 shared + 1 private
    EXPECT_EQ(pool.requestBlocks(1), 3u);
    EXPECT_EQ(pool.residentSharedBlocks(), 2u);
    EXPECT_EQ(pool.sharedRefs(m1.ownHashes[0]), 1u);
    EXPECT_DOUBLE_EQ(pool.effectiveBlocks(1), 3.0);

    // Second holder of the same prompt: hits, one shared copy.
    PrefixMatch m2;
    ASSERT_TRUE(pool.admit(2, prompt, 12, true, &m2));
    EXPECT_EQ(m2.hashes, m1.ownHashes);
    EXPECT_EQ(pool.stats().prefixHits, 2u);
    EXPECT_EQ(pool.usedBlocks(), 4u); // shared counted once
    EXPECT_EQ(pool.sharedRefs(m1.ownHashes[1]), 2u);
    // Fair share: 1 private + 2 * (1/2) shared each.
    EXPECT_DOUBLE_EQ(pool.effectiveBlocks(1), 2.0);
    EXPECT_DOUBLE_EQ(pool.effectiveBlocks(2), 2.0);

    // Release drops references but leaves blocks resident.
    pool.release(1);
    EXPECT_EQ(pool.usedBlocks(), 3u);
    EXPECT_EQ(pool.sharedRefs(m1.ownHashes[0]), 1u);
    pool.release(2);
    EXPECT_EQ(pool.usedBlocks(), 2u);
    EXPECT_EQ(pool.residentSharedBlocks(), 2u);
    EXPECT_EQ(pool.sharedRefs(m1.ownHashes[0]), 0u);

    // Re-admission rewarms the resident chain: hits, no misses.
    PrefixMatch m3;
    ASSERT_TRUE(pool.admit(3, prompt, 12, true, &m3));
    EXPECT_EQ(m3.hashes.size(), 2u);
    EXPECT_EQ(pool.stats().prefixHits, 4u);
    EXPECT_EQ(pool.stats().prefixMisses, 2u);
    pool.release(3);
    EXPECT_EQ(pool.stats().redundantReleases, 0u);
}

TEST(KvSharingTest, PartialMatchCopyOnWrite)
{
    KvBlockAllocator pool(16, 8);
    const std::vector<int> a = countedTokens(1, 16); // 2 full blocks
    ASSERT_TRUE(pool.admit(1, a, 18, true, nullptr));

    // b shares block 0 and the first 3 tokens of block 1, then
    // diverges: a partial match with copy-on-write pending.
    std::vector<int> b = countedTokens(1, 11);
    b.push_back(77);
    b.push_back(78);
    PrefixMatch m;
    ASSERT_TRUE(pool.admit(2, b, 15, true, &m));
    ASSERT_EQ(m.hashes.size(), 1u);
    ASSERT_NE(m.partialHash, 0u);
    EXPECT_EQ(m.partialTokens, 3u);
    EXPECT_EQ(pool.requestPartial(2), m.partialHash);
    EXPECT_EQ(pool.sharedRefs(m.partialHash), 2u);
    // Partial is payload-only: blocks = 1 private + 1 full shared.
    EXPECT_EQ(pool.requestBlocks(2), 2u);
    EXPECT_DOUBLE_EQ(pool.effectiveBlocks(2), 2.0);

    // First write past the divergence point releases the partial.
    pool.cowShared(2, m.partialHash);
    EXPECT_EQ(pool.stats().cowCopies, 1u);
    EXPECT_EQ(pool.requestPartial(2), 0u);
    EXPECT_EQ(pool.sharedRefs(m.partialHash), 1u);
    EXPECT_EQ(pool.requestBlocks(2), 2u);

    pool.release(2);
    pool.release(1);
    EXPECT_EQ(pool.usedBlocks(), pool.residentSharedBlocks());
    EXPECT_EQ(pool.stats().redundantReleases, 0u);
}

TEST(KvSharingTest, EvictionIsDeterministicDeepestFirst)
{
    KvBlockAllocator pool(6, 4);
    const std::vector<int> prompt = countedTokens(1, 13); // 3 full
    PrefixMatch m;
    ASSERT_TRUE(pool.admit(1, prompt, 14, true, &m));
    ASSERT_EQ(m.ownHashes.size(), 3u);
    pool.release(1);
    EXPECT_EQ(pool.usedBlocks(), 3u); // zero-ref residents

    std::vector<uint64_t> evicted;
    pool.setEvictionHook([&](uint64_t h) { evicted.push_back(h); });
    // A 24-token private reservation needs the whole pool: the
    // residents are reclaimed deepest-chain-first.
    EXPECT_TRUE(pool.canReserve(2, 24));
    ASSERT_TRUE(pool.reserve(2, 24));
    EXPECT_EQ(pool.usedBlocks(), 6u);
    EXPECT_EQ(pool.residentSharedBlocks(), 0u);
    ASSERT_EQ(evicted.size(), 3u);
    EXPECT_EQ(evicted[0], m.ownHashes[2]);
    EXPECT_EQ(evicted[1], m.ownHashes[1]);
    EXPECT_EQ(evicted[2], m.ownHashes[0]);
    EXPECT_EQ(pool.stats().sharedEvictions, 3u);
}

TEST(KvSharingTest, FragmentationCountsSharedBlocksOnce)
{
    // Pool-level fragmentation is measured against *physical*
    // capacity: a shared block held by N requests contributes its
    // tokens once, not N times (the pre-sharing formula would
    // understate waste as refcounts grow the denominator).
    KvBlockAllocator pool(16, 8);
    const std::vector<int> prompt = countedTokens(1, 16);
    ASSERT_TRUE(pool.admit(1, prompt, 20, true, nullptr));
    // 2 shared (full) blocks + 1 private block with 4 live tokens.
    EXPECT_NEAR(pool.fragmentation(4), 4.0 / 24.0, 1e-12);
    EXPECT_NEAR(pool.requestFragmentation(1, 20), 4.0 / 24.0,
                1e-12);
    ASSERT_TRUE(pool.admit(2, prompt, 20, true, nullptr));
    // Physical capacity is 4 blocks (shared counted once); the two
    // private blocks hold 8 of 16 reserved tokens.
    EXPECT_NEAR(pool.fragmentation(8), 8.0 / 32.0, 1e-12);
    // The per-request view is per holder and unchanged.
    EXPECT_NEAR(pool.requestFragmentation(2, 20), 4.0 / 24.0,
                1e-12);
}

TEST(KvSharingTest, RandomizedSharingSoak)
{
    // Random admissions / growth / COW / releases across three
    // tenants, checking the global accounting invariant every
    // step: the fair-share footprints of all holders must sum to
    // exactly the referenced physical blocks.
    util::Rng rng(20260807);
    KvBlockAllocator pool(32, 4);
    auto tenantPrompt = [](size_t tenant, size_t len) {
        std::vector<int> p;
        p.reserve(len);
        for (size_t i = 0; i < len; ++i)
            p.push_back(static_cast<int>(1 + tenant * 100 + i));
        return p;
    };
    std::map<uint64_t, size_t> admitted; // id -> reserved tokens
    uint64_t next_id = 1;
    auto randomHeld = [&]() {
        auto it = admitted.begin();
        std::advance(it, static_cast<long>(rng.uniformInt(
                             static_cast<uint64_t>(
                                 admitted.size()))));
        return it->first;
    };
    for (int step = 0; step < 2000; ++step) {
        const double r = rng.uniform();
        if (r < 0.45) {
            const size_t tenant = rng.uniformInt(uint64_t{3});
            const size_t len = 4 + rng.uniformInt(uint64_t{17});
            const std::vector<int> prompt =
                tenantPrompt(tenant, len);
            const size_t total = len + rng.uniformInt(uint64_t{9});
            if (pool.canAdmit(next_id, prompt, total, true)) {
                ASSERT_TRUE(pool.admit(next_id, prompt, total,
                                       true, nullptr));
                admitted[next_id++] = total;
            }
        } else if (r < 0.6 && !admitted.empty()) {
            const uint64_t id = randomHeld();
            const size_t more =
                admitted[id] + rng.uniformInt(uint64_t{6});
            if (pool.canReserve(id, more)) {
                ASSERT_TRUE(pool.reserve(id, more));
                admitted[id] = more;
            }
        } else if (r < 0.75 && !admitted.empty()) {
            const uint64_t id = randomHeld();
            const uint64_t partial = pool.requestPartial(id);
            if (partial != 0)
                pool.cowShared(id, partial);
        } else if (!admitted.empty()) {
            const uint64_t id = randomHeld();
            pool.release(id);
            admitted.erase(id);
        }
        // Invariants.
        ASSERT_LE(pool.usedBlocks(), pool.totalBlocks());
        ASSERT_GE(pool.usedBlocks(), pool.residentSharedBlocks());
        ASSERT_EQ(pool.activeRequests(), admitted.size());
        double fair = 0.0;
        for (const auto &entry : admitted)
            fair += pool.effectiveBlocks(entry.first);
        size_t zero_ref = 0;
        for (const auto &entry : pool.sharedTable())
            if (entry.second.refs == 0)
                ++zero_ref;
        ASSERT_NEAR(fair,
                    static_cast<double>(pool.usedBlocks() -
                                        zero_ref),
                    1e-9)
            << "fair-share accounting diverged at step " << step;
    }
    for (const auto &entry : admitted)
        pool.release(entry.first);
    EXPECT_EQ(pool.usedBlocks(), pool.residentSharedBlocks());
    EXPECT_EQ(pool.stats().redundantReleases, 0u);
}

TEST(KvSharingDeathTest, CowRefcountUnderflowDies)
{
    KvBlockAllocator pool(16, 8);
    const std::vector<int> a = countedTokens(1, 16);
    ASSERT_TRUE(pool.admit(1, a, 18, true, nullptr));
    std::vector<int> b = countedTokens(1, 11);
    b.push_back(90);
    PrefixMatch m;
    ASSERT_TRUE(pool.admit(2, b, 13, true, &m));
    ASSERT_NE(m.partialHash, 0u);
    // COW for a block the request does not hold as partial dies.
    EXPECT_DEATH(pool.cowShared(2, m.hashes[0]),
                 "not held as partial");
    EXPECT_DEATH(pool.cowShared(1, m.partialHash),
                 "not held as partial");
    // Settling twice would underflow the refcount: fatal, not
    // silent corruption.
    pool.cowShared(2, m.partialHash);
    EXPECT_DEATH(pool.cowShared(2, m.partialHash),
                 "not held as partial");
}

// ---------------------------------------------------------------
// Admission control + preemption through the request manager.

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
        cfg.spec.expansion = core::ExpansionConfig::uniform(2, 3);
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
    return {2 + i, 9, 4, 7 + (i % 3)};
}

TEST(KvAdmissionTest, WorstCasePolicyBoundsConcurrency)
{
    Fixture f;
    // Worst case per request: 4 prompt + 12 gen + treeBudget + 2.
    size_t per_request =
        f.engine.kvTokensFor(f.engine.config().maxNewTokens + 4);
    ServingConfig cfg;
    cfg.maxBatchSize = 8;
    cfg.kvBlockTokens = 8;
    // Room for exactly two requests.
    KvBlockAllocator probe(1000, 8);
    cfg.kvPoolBlocks = 2 * probe.blocksFor(per_request);
    RequestManager manager(&f.engine, cfg);
    for (int i = 0; i < 5; ++i)
        manager.submit(promptFor(i));
    manager.runIteration();
    EXPECT_EQ(manager.activeCount(), 2u);
    manager.runUntilDrained();
    EXPECT_EQ(manager.finished().size(), 5u);
    EXPECT_EQ(manager.stats().preemptions, 0u);
    EXPECT_EQ(manager.kvPool()->usedBlocks(), 0u);
}

TEST(KvAdmissionTest, OnDemandAdmitsMoreThanWorstCase)
{
    // The same pool admits more concurrent requests under paging
    // because reservations track actual sequence growth instead of
    // the full generation budget. Use a long generation budget and
    // a narrow tree so the gap is large.
    Fixture f;
    core::EngineConfig ecfg = Fixture::makeConfig();
    ecfg.spec.expansion = core::ExpansionConfig::uniform(1, 2);
    ecfg.maxNewTokens = 48;
    core::SpecEngine engine(&f.llm, {&f.ssm}, ecfg);

    size_t per_request = engine.kvTokensFor(48 + 4); // worst case tokens
    ServingConfig cfg;
    cfg.maxBatchSize = 8;
    cfg.kvBlockTokens = 8;
    KvBlockAllocator probe(1000, 8);
    cfg.kvPoolBlocks = 2 * probe.blocksFor(per_request);
    cfg.kvPolicy = KvReservationPolicy::OnDemand;
    RequestManager manager(&engine, cfg);
    for (int i = 0; i < 8; ++i)
        manager.submit(promptFor(i));
    manager.runIteration();
    EXPECT_GT(manager.activeCount(), 2u);
    manager.runUntilDrained();
    EXPECT_EQ(manager.finished().size(), 8u);
}

TEST(KvAdmissionTest, PreemptionPreservesOutputs)
{
    // A pool tight enough to force preemptions must still produce
    // exactly the unconstrained outputs (recompute-on-restart with
    // per-request seeds).
    Fixture f;
    ServingConfig tight;
    tight.maxBatchSize = 4;
    tight.kvBlockTokens = 8;
    // Enough for ~1.5 requests' worst case: forces paging pressure.
    size_t per_request =
        f.engine.kvTokensFor(f.engine.config().maxNewTokens + 4);
    KvBlockAllocator probe(1000, 8);
    tight.kvPoolBlocks =
        probe.blocksFor(per_request) * 3 / 2;
    tight.kvPolicy = KvReservationPolicy::OnDemand;
    RequestManager constrained(&f.engine, tight);

    ServingConfig loose;
    loose.maxBatchSize = 4;
    RequestManager unconstrained(&f.engine, loose);

    std::map<uint64_t, std::vector<int>> got, want;
    for (int i = 0; i < 6; ++i) {
        constrained.submit(promptFor(i));
        unconstrained.submit(promptFor(i));
    }
    constrained.runUntilDrained();
    unconstrained.runUntilDrained();
    ASSERT_EQ(constrained.finished().size(), 6u);
    for (const RequestResult &res : constrained.finished())
        got[res.id] = res.tokens;
    for (const RequestResult &res : unconstrained.finished())
        want[res.id] = res.tokens;
    EXPECT_EQ(got, want);
    EXPECT_GT(constrained.stats().preemptions, 0u);
}

TEST(KvAdmissionTest, TightPoolTerminates)
{
    // Regression test: with victim selection based on restart time
    // instead of arrival order, two requests under a tight pool
    // could evict each other forever. FCFS priority guarantees the
    // earliest active request always progresses.
    Fixture f;
    size_t per_request =
        f.engine.kvTokensFor(f.engine.config().maxNewTokens + 4);
    ServingConfig cfg;
    cfg.maxBatchSize = 4;
    cfg.kvBlockTokens = 8;
    KvBlockAllocator probe(1000, 8);
    // Barely more than one request's worst case: maximum pressure.
    cfg.kvPoolBlocks = probe.blocksFor(per_request) + 2;
    cfg.kvPolicy = KvReservationPolicy::OnDemand;
    RequestManager manager(&f.engine, cfg);
    for (int i = 0; i < 4; ++i)
        manager.submit(promptFor(i));
    size_t iterations = 0;
    while (manager.busy()) {
        manager.runIteration();
        ASSERT_LT(++iterations, 500u) << "scheduler livelock";
    }
    EXPECT_EQ(manager.finished().size(), 4u);
}

TEST(KvAdmissionTest, EarliestActiveIsNeverPreempted)
{
    // FCFS property: preemption only ever hits strictly later
    // arrivals, so the earliest submitted request is never evicted
    // and finishes first even under memory pressure. (Preempted
    // later arrivals may be reordered among themselves by the
    // re-admission backoff.)
    Fixture f;
    size_t per_request =
        f.engine.kvTokensFor(f.engine.config().maxNewTokens + 4);
    ServingConfig cfg;
    cfg.maxBatchSize = 4;
    cfg.kvBlockTokens = 8;
    KvBlockAllocator probe(1000, 8);
    cfg.kvPoolBlocks = probe.blocksFor(per_request) * 3 / 2;
    cfg.kvPolicy = KvReservationPolicy::OnDemand;
    RequestManager manager(&f.engine, cfg);
    std::vector<uint64_t> ids;
    for (int i = 0; i < 5; ++i)
        ids.push_back(manager.submit(promptFor(i)));
    manager.runUntilDrained();
    ASSERT_EQ(manager.finished().size(), 5u);
    EXPECT_EQ(manager.finished()[0].id, ids[0]);
    std::vector<uint64_t> finished_ids;
    for (const RequestResult &res : manager.finished()) {
        finished_ids.push_back(res.id);
        EXPECT_NE(res.stopReason,
                  core::SpecSession::StopReason::Preempted);
    }
    std::sort(finished_ids.begin(), finished_ids.end());
    EXPECT_EQ(finished_ids, ids);
}

TEST(KvAdmissionTest, ImpossibleRequestIsRejected)
{
    // A request whose worst case exceeds the whole pool is shed
    // with a typed reason instead of aborting the serving process.
    Fixture f;
    ServingConfig cfg;
    cfg.kvPoolBlocks = 1;
    cfg.kvBlockTokens = 4;
    RequestManager manager(&f.engine, cfg);
    SubmitResult res = manager.submit(promptFor(0));
    EXPECT_FALSE(res.accepted());
    EXPECT_EQ(res.reject, RejectReason::NeverFits);
    EXPECT_EQ(res.id, 0u);
    EXPECT_EQ(manager.stats().requestsSubmitted, 0u);
    EXPECT_EQ(manager.stats().rejectedNeverFits, 1u);
    EXPECT_FALSE(manager.busy());
}

TEST(KvAdmissionTest, AbortPathsNeverDoubleRelease)
{
    // Drive cancellation + preemption + shedding through the
    // manager under a tight pool and require zero redundant
    // releases and an empty pool at the end.
    Fixture f;
    size_t per_request =
        f.engine.kvTokensFor(f.engine.config().maxNewTokens + 4);
    ServingConfig cfg;
    cfg.maxBatchSize = 4;
    cfg.kvBlockTokens = 8;
    KvBlockAllocator probe(1000, 8);
    cfg.kvPoolBlocks = probe.blocksFor(per_request) * 3 / 2;
    cfg.kvPolicy = KvReservationPolicy::OnDemand;
    cfg.maxPreemptions = 1; // force preemption aborts too
    RequestManager manager(&f.engine, cfg);
    std::vector<uint64_t> ids;
    for (int i = 0; i < 6; ++i)
        ids.push_back(manager.submit(promptFor(i)).id);
    manager.runIteration();
    manager.cancel(ids[1]); // active or pending, either way
    manager.cancel(ids[5]);
    manager.cancel(ids[5]); // second cancel: already gone
    manager.runUntilDrained();
    EXPECT_EQ(manager.finished().size(), 6u);
    EXPECT_EQ(manager.kvPool()->usedBlocks(), 0u);
    EXPECT_EQ(manager.kvPool()->stats().redundantReleases, 0u);
}

TEST(KvAdmissionTest, FullPoolBackpressureCountsNoFailures)
{
    // Regression: the admission loop used to probe the head-of-line
    // candidate with tryReserve, so every iteration with a full
    // pool bumped failedReservations (and kv_alloc_failures) —
    // routine backpressure was indistinguishable from real
    // allocation failure. Waiting must count nothing.
    Fixture f;
    size_t per_request =
        f.engine.kvTokensFor(f.engine.config().maxNewTokens + 4);
    ServingConfig cfg;
    cfg.maxBatchSize = 4;
    cfg.kvBlockTokens = 8;
    KvBlockAllocator probe(1000, 8);
    // Room for exactly one worst-case request: everyone else waits.
    cfg.kvPoolBlocks = probe.blocksFor(per_request);
    RequestManager manager(&f.engine, cfg);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(manager.submit(promptFor(i)).accepted());
    for (int i = 0; i < 10; ++i)
        manager.runIteration();
    EXPECT_LE(manager.activeCount(), 1u);
    EXPECT_EQ(manager.kvPool()->stats().failedReservations, 0u);
    manager.runUntilDrained();
    EXPECT_EQ(manager.finished().size(), 4u);
    EXPECT_EQ(manager.kvPool()->stats().failedReservations, 0u);
    EXPECT_EQ(manager.kvPool()->usedBlocks(), 0u);
}

TEST(KvAdmissionTest, NeverFitsIsPolicyConsistent)
{
    // Regression: submit() used to judge feasibility by the worst
    // case even under OnDemand, whose admission path only needs
    // prompt + treeBudget + 2 — rejecting requests the policy
    // could actually start (and, with sharing, serve cheaply).
    Fixture f;
    const std::vector<int> prompt = promptFor(0); // 4 tokens
    const size_t admit_tokens = f.engine.kvTokensFor(prompt.size());
    const size_t worst = f.engine.kvTokensFor(
        prompt.size() + f.engine.config().maxNewTokens);
    ServingConfig cfg;
    cfg.kvBlockTokens = 8;
    KvBlockAllocator probe(1000, 8);
    cfg.kvPoolBlocks = probe.blocksFor(admit_tokens);
    ASSERT_LT(cfg.kvPoolBlocks, probe.blocksFor(worst));

    cfg.kvPolicy = KvReservationPolicy::WorstCase;
    RequestManager worst_mgr(&f.engine, cfg);
    SubmitResult r1 = worst_mgr.submit(prompt);
    EXPECT_FALSE(r1.accepted());
    EXPECT_EQ(r1.reject, RejectReason::NeverFits);

    cfg.kvPolicy = KvReservationPolicy::OnDemand;
    cfg.maxPreemptions = 2; // outgrowing the pool fails cleanly
    RequestManager od_mgr(&f.engine, cfg);
    SubmitResult r2 = od_mgr.submit(prompt);
    ASSERT_TRUE(r2.accepted());
    od_mgr.runUntilDrained();
    ASSERT_EQ(od_mgr.finished().size(), 1u);
    // The request genuinely outgrows the pool, alone: that *is* a
    // real exhaustion event, counted by the growth path.
    EXPECT_EQ(od_mgr.finished()[0].stopReason,
              core::SpecSession::StopReason::Preempted);
    EXPECT_GT(od_mgr.kvPool()->stats().failedReservations, 0u);
    EXPECT_EQ(od_mgr.kvPool()->usedBlocks(), 0u);
}

} // namespace
} // namespace runtime
} // namespace specinfer
