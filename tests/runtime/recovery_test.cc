/**
 * @file
 * Crash-safe serving tests.
 *
 *  - Session snapshot fidelity: a SpecSession saved mid-generation
 *    and reloaded continues bit-identically to the original.
 *  - Deterministic snapshot+journal recovery at a clean iteration
 *    boundary (with and without a snapshot).
 *  - The randomized recovery-equivalence oracle
 *    (verify::runRecoveryTrial): seeded workloads crashed at a
 *    random point inside runIteration() — including mid-append,
 *    leaving a torn journal record — must recover to outputs
 *    token-for-token identical to an uninterrupted run. Override
 *    the count with SPECINFER_RECOVERY_TRIALS=<n> and the base seed
 *    with SPECINFER_RECOVERY_SEED=<n>.
 *  - A crash-recovery soak: continuous batching under all fault
 *    points *plus* probabilistic crashes, recovering every time and
 *    holding the fault-soak invariants (conservation, exact or
 *    prefix outputs, zero KV leaks) to the end.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "../model/test_models.h"
#include "model/model_factory.h"
#include "runtime/journal.h"
#include "runtime/request_manager.h"
#include "util/bytes.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/rng.h"
#include "verify/diff_harness.h"

namespace specinfer {
namespace runtime {
namespace {

using core::SpecSession;
using specinfer::testing::tinyLlm;
using util::FaultInjector;
using util::FaultPoint;
using util::FaultScope;

uint64_t
envOr(const char *name, uint64_t fallback)
{
    const char *value = std::getenv(name);
    return value != nullptr ? std::strtoull(value, nullptr, 10)
                            : fallback;
}

// ----------------------------------------------------------------
// Session snapshot fidelity.

struct EngineFixture
{
    EngineFixture(bool stochastic = false)
        : llm(tinyLlm()), ssm(model::makeEarlyExitSsm(llm, 2))
    {
        core::EngineConfig cfg =
            stochastic ? core::EngineConfig::stochasticDefault(0.8f)
                       : core::EngineConfig::greedyDefault();
        cfg.spec.expansion = core::ExpansionConfig::uniform(2, 3);
        cfg.maxNewTokens = 14;
        cfg.stopAtEos = false;
        engine.reset(new core::SpecEngine(&llm, {&ssm}, cfg));
    }

    model::Transformer llm;
    model::Transformer ssm;
    std::unique_ptr<core::SpecEngine> engine;
};

void
runSessionRoundTrip(bool stochastic)
{
    EngineFixture f(stochastic);
    std::vector<int> prompt = {5, 41, 3, 77, 12};
    SpecSession original =
        f.engine->makeSession(prompt, /*request_seed=*/9);
    for (int i = 0; i < 3 && !original.done(); ++i)
        original.step();

    util::ByteWriter w;
    original.save(w);
    util::ByteReader r(w.bytes());
    SpecSession restored = f.engine->loadSession(r);

    EXPECT_EQ(restored.sequence(), original.sequence());
    EXPECT_EQ(restored.logProbs(), original.logProbs());
    EXPECT_EQ(restored.done(), original.done());
    EXPECT_EQ(restored.stats().steps.size(),
              original.stats().steps.size());

    // The restored session must continue *bit-identically*: same
    // tokens, same log-probs, same per-step stats — the sampler
    // cursor and KV state survived the round trip exactly.
    while (!original.done()) {
        ASSERT_FALSE(restored.done());
        original.step();
        restored.step();
        ASSERT_EQ(restored.sequence(), original.sequence());
    }
    EXPECT_TRUE(restored.done());
    EXPECT_EQ(restored.stopReason(), original.stopReason());
    EXPECT_EQ(restored.logProbs(), original.logProbs());
    EXPECT_EQ(restored.generated(), original.generated());
}

TEST(SessionSnapshotTest, GreedySessionContinuesBitIdentically)
{
    runSessionRoundTrip(false);
}

TEST(SessionSnapshotTest, StochasticSessionContinuesBitIdentically)
{
    // The stochastic path additionally exercises the RNG cursor
    // (multi-step speculative sampling draws per step).
    runSessionRoundTrip(true);
}

// ----------------------------------------------------------------
// Deterministic recovery at a clean iteration boundary.

std::map<uint64_t, std::vector<int>>
finishedMap(const RequestManager &manager)
{
    std::map<uint64_t, std::vector<int>> out;
    for (const RequestResult &res : manager.finished())
        out[res.id] = res.tokens;
    return out;
}

void
runBoundaryRecovery(bool with_snapshot)
{
    EngineFixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 3;

    RequestManager live(f.engine.get(), cfg);
    std::stringstream journal_buf;
    JournalWriter journal(journal_buf);
    live.attachJournal(&journal);
    std::vector<std::vector<int>> prompts = {
        {3, 9, 27}, {8, 1, 5, 44}, {60, 2}, {7, 7, 7, 7, 7}};
    for (size_t i = 0; i < 2; ++i)
        ASSERT_TRUE(live.submit(prompts[i]).accepted());
    for (int it = 0; it < 4; ++it)
        live.runIteration();

    // Capture the persistent state as of this boundary...
    std::stringstream snapshot;
    if (with_snapshot)
        live.writeSnapshot(snapshot);
    std::string journal_bytes = journal_buf.str();

    // ...then let the live manager finish (late arrivals included).
    for (size_t i = 2; i < prompts.size(); ++i)
        ASSERT_TRUE(live.submit(prompts[i]).accepted());
    live.runUntilDrained();

    // Rebuild from the captured bytes and replay the same tail.
    RequestManager recovered(f.engine.get(), cfg);
    std::stringstream journal2_buf;
    JournalWriter journal2(journal2_buf);
    recovered.attachJournal(&journal2);
    std::stringstream journal_in(journal_bytes);
    uint64_t valid = recovered.recover(
        with_snapshot ? &snapshot : nullptr, &journal_in);
    EXPECT_EQ(valid, journal_bytes.size());
    EXPECT_EQ(recovered.stats().iterations, 4u);
    for (size_t i = 2; i < prompts.size(); ++i)
        ASSERT_TRUE(recovered.submit(prompts[i]).accepted());
    recovered.runUntilDrained();

    EXPECT_EQ(finishedMap(recovered), finishedMap(live));
    EXPECT_EQ(recovered.stats().requestsFinished,
              live.stats().requestsFinished);
    EXPECT_EQ(recovered.stats().tokensGenerated,
              live.stats().tokensGenerated);
}

TEST(RecoveryTest, JournalOnlyReplayMatchesLiveRun)
{
    runBoundaryRecovery(false);
}

TEST(RecoveryTest, SnapshotPlusJournalTailMatchesLiveRun)
{
    runBoundaryRecovery(true);
}

TEST(RecoveryTest, RecoveredManagerKeepsJournalingForNextCrash)
{
    // The journal attached before recover() must receive the
    // post-recovery records, so a *second* crash can recover from
    // the fresh epoch (snapshot right after recovery + new journal).
    EngineFixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 2;

    RequestManager first(f.engine.get(), cfg);
    std::stringstream buf1;
    JournalWriter j1(buf1);
    first.attachJournal(&j1);
    ASSERT_TRUE(first.submit({4, 8, 15}).accepted());
    ASSERT_TRUE(first.submit({16, 23, 42}).accepted());
    for (int it = 0; it < 3; ++it)
        first.runIteration();

    RequestManager second(f.engine.get(), cfg);
    std::stringstream buf2;
    JournalWriter j2(buf2);
    second.attachJournal(&j2);
    std::stringstream in1(buf1.str());
    second.recover(nullptr, &in1);
    std::stringstream snap2;
    second.writeSnapshot(snap2);
    for (int it = 0; it < 2; ++it)
        second.runIteration();
    EXPECT_GT(j2.bytesWritten(), 0u);

    RequestManager third(f.engine.get(), cfg);
    std::stringstream in2(buf2.str());
    // The epoch snapshot recorded offset 0 of the *new* journal.
    snap2.seekg(0);
    third.recover(&snap2, &in2);
    third.runUntilDrained();

    RequestManager reference(f.engine.get(), cfg);
    ASSERT_TRUE(reference.submit({4, 8, 15}).accepted());
    ASSERT_TRUE(reference.submit({16, 23, 42}).accepted());
    reference.runUntilDrained();
    EXPECT_EQ(finishedMap(third), finishedMap(reference));
}

TEST(RecoveryTest, CrashBeforeTheFinalCommitStillCommitsIt)
{
    // The last crash point of a run is the final iteration's commit:
    // every Finish is journaled, the Iteration record is not. The
    // recovered manager has nothing pending or active, but it still
    // owes that commit — busy() must stay true until it lands, or
    // the clock ends one iteration short of the uninterrupted run.
    EngineFixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    const std::vector<std::vector<int>> prompts = {{4, 8, 15},
                                                   {16, 23, 42}};

    FaultInjector counter(1);
    RequestManager reference(f.engine.get(), cfg);
    std::stringstream reference_buf;
    JournalWriter reference_journal(reference_buf);
    reference.attachJournal(&reference_journal);
    {
        FaultScope scope(&counter);
        for (const std::vector<int> &prompt : prompts)
            ASSERT_TRUE(reference.submit(prompt).accepted());
        reference.runUntilDrained();
    }

    FaultInjector crasher(1);
    crasher.armAt(FaultPoint::Crash,
                  counter.occurrences(FaultPoint::Crash));
    RequestManager crashed(f.engine.get(), cfg);
    std::stringstream journal_buf;
    JournalWriter journal(journal_buf);
    crashed.attachJournal(&journal);
    {
        FaultScope scope(&crasher);
        for (const std::vector<int> &prompt : prompts)
            ASSERT_TRUE(crashed.submit(prompt).accepted());
        crashed.runUntilDrained();
    }
    ASSERT_TRUE(crashed.crashed());

    RequestManager recovered(f.engine.get(), cfg);
    std::stringstream journal_in(journal_buf.str());
    recovered.recover(nullptr, &journal_in);
    EXPECT_EQ(recovered.pendingCount() + recovered.activeCount(), 0u);
    recovered.runUntilDrained();
    EXPECT_EQ(recovered.stats().iterations,
              reference.stats().iterations);
    EXPECT_EQ(finishedMap(recovered), finishedMap(reference));
}

TEST(RecoveryTest, ForcedDegradationSurvivesABoundaryCrash)
{
    // forceDegrade() (the daemon watchdog's hook) disables
    // speculation out of band. A crash at the next iteration
    // boundary, before any Iteration record follows, must not lose
    // the forced window: the recovered manager resumes with the same
    // ladder and runs as many degraded iterations as the
    // uninterrupted run.
    EngineFixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    auto serveThenDegrade = [](RequestManager &manager) {
        for (const std::vector<int> &prompt :
             {std::vector<int>{4, 8, 15}, std::vector<int>{16, 23, 42}})
            ASSERT_TRUE(manager.submit(prompt).accepted());
        for (int it = 0; it < 2; ++it)
            manager.runIteration();
        manager.forceDegrade(8);
    };

    RequestManager reference(f.engine.get(), cfg);
    std::stringstream reference_buf;
    JournalWriter reference_journal(reference_buf);
    reference.attachJournal(&reference_journal);
    serveThenDegrade(reference);
    const DegradationState forced = reference.degradation();
    ASSERT_TRUE(forced.speculationDisabled);
    reference.runUntilDrained();
    ASSERT_GT(reference.stats().degradedIterations, 0u);

    RequestManager crashed(f.engine.get(), cfg);
    std::stringstream journal_buf;
    JournalWriter journal(journal_buf);
    crashed.attachJournal(&journal);
    serveThenDegrade(crashed);
    FaultInjector crasher(1);
    crasher.armAt(FaultPoint::Crash, 1); // the boundary crash point
    {
        FaultScope scope(&crasher);
        crashed.runIteration();
    }
    ASSERT_TRUE(crashed.crashed());

    RequestManager recovered(f.engine.get(), cfg);
    std::stringstream journal_in(journal_buf.str());
    recovered.recover(nullptr, &journal_in);
    EXPECT_EQ(recovered.degradation(), forced);
    recovered.runUntilDrained();
    EXPECT_EQ(recovered.stats().degradedIterations,
              reference.stats().degradedIterations);
    EXPECT_EQ(finishedMap(recovered), finishedMap(reference));
}

// ----------------------------------------------------------------
// Tensor-parallel serving: the degree rides through snapshots.

struct ShardedEngineFixture
{
    explicit ShardedEngineFixture(size_t tp)
        : llm(makeShardedLlm(tp)),
          ssm(model::makeEarlyExitSsm(llm, 2))
    {
        core::EngineConfig cfg = core::EngineConfig::greedyDefault();
        cfg.spec.expansion = core::ExpansionConfig::uniform(2, 3);
        cfg.maxNewTokens = 14;
        cfg.stopAtEos = false;
        engine.reset(new core::SpecEngine(&llm, {&ssm}, cfg));
    }

    static model::Transformer makeShardedLlm(size_t tp)
    {
        model::ModelConfig cfg = specinfer::testing::tinyConfig();
        cfg.tensorParallel = tp;
        return model::makeLlm(cfg);
    }

    model::Transformer llm;
    model::Transformer ssm;
    std::unique_ptr<core::SpecEngine> engine;
};

TEST(RecoveryTest, ShardedServingRecoversBitIdentically)
{
    // A tp=2 serving run, crashed at an iteration boundary and
    // recovered under the same degree, must finish with outputs
    // identical to both its own uninterrupted run AND an unsharded
    // tp=1 reference — §5j bit-identity lifted to the serving layer.
    ShardedEngineFixture f(2);
    ServingConfig cfg;
    cfg.maxBatchSize = 2;

    RequestManager live(f.engine.get(), cfg);
    std::stringstream journal_buf;
    JournalWriter journal(journal_buf);
    live.attachJournal(&journal);
    ASSERT_TRUE(live.submit({4, 8, 15}).accepted());
    ASSERT_TRUE(live.submit({16, 23, 42}).accepted());
    for (int it = 0; it < 3; ++it)
        live.runIteration();
    std::stringstream snapshot;
    live.writeSnapshot(snapshot);
    std::string journal_bytes = journal_buf.str();
    live.runUntilDrained();

    RequestManager recovered(f.engine.get(), cfg);
    std::stringstream journal_in(journal_bytes);
    recovered.recover(&snapshot, &journal_in);
    recovered.runUntilDrained();
    EXPECT_EQ(finishedMap(recovered), finishedMap(live));

    ShardedEngineFixture unsharded(1);
    ServingConfig ref_cfg;
    ref_cfg.maxBatchSize = 2;
    RequestManager reference(unsharded.engine.get(), ref_cfg);
    ASSERT_TRUE(reference.submit({4, 8, 15}).accepted());
    ASSERT_TRUE(reference.submit({16, 23, 42}).accepted());
    reference.runUntilDrained();
    EXPECT_EQ(finishedMap(recovered), finishedMap(reference));
}

/** A snapshot of a tp=1 manager over the fp32-SSM EngineFixture,
 *  taken after one iteration, with the journal it indexes into. */
void
snapshotUnshardedFp32(std::stringstream &snapshot,
                      std::stringstream &journal_buf)
{
    EngineFixture f;
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    RequestManager live(f.engine.get(), cfg);
    JournalWriter journal(journal_buf);
    live.attachJournal(&journal);
    ASSERT_TRUE(live.submit({4, 8, 15}).accepted());
    live.runIteration();
    live.writeSnapshot(snapshot);
}

// A regression that lets recover() past its shape checks would run
// the rebuild on the thread pool, which a forked child lacks and
// would hang on: re-execute the binary for each death statement so
// such a regression fails fast.
class RecoveryDeathTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    }
};

TEST_F(RecoveryDeathTest, TpDegreeMismatchRefusesRecovery)
{
    // A snapshot taken at tp=1 must not silently resume on a tp=2
    // engine: the typed check names both degrees.
    std::stringstream snapshot, journal_buf;
    snapshotUnshardedFp32(snapshot, journal_buf);

    ShardedEngineFixture sharded(2);
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    RequestManager mismatched(sharded.engine.get(), cfg);
    std::stringstream journal_in(journal_buf.str());
    EXPECT_DEATH(mismatched.recover(&snapshot, &journal_in),
                 "tensor-parallel degree 1 but this manager's engine "
                 "runs 2");
}

TEST_F(RecoveryDeathTest, SsmPrecisionMismatchRefusesRecovery)
{
    // A snapshot taken with fp32 drafting must not silently resume
    // on an engine whose SSM runs int8.
    std::stringstream snapshot, journal_buf;
    snapshotUnshardedFp32(snapshot, journal_buf);

    model::Transformer llm = tinyLlm();
    model::Transformer int8_ssm = model::makeInt8Ssm(llm, 2);
    core::EngineConfig ecfg = core::EngineConfig::greedyDefault();
    ecfg.spec.expansion = core::ExpansionConfig::uniform(2, 3);
    ecfg.maxNewTokens = 14;
    ecfg.stopAtEos = false;
    core::SpecEngine engine(&llm, {&int8_ssm}, ecfg);
    ServingConfig cfg;
    cfg.maxBatchSize = 2;
    RequestManager mismatched(&engine, cfg);
    std::stringstream journal_in(journal_buf.str());
    EXPECT_DEATH(mismatched.recover(&snapshot, &journal_in),
                 "SSM precision 0 but this manager's engine runs 1");
}

TEST(RecoveryTest, JournalHeaderRecordsTheEngineShape)
{
    // A default ServingConfig says nothing about the engine's
    // execution shape, so the Header must read it from the models:
    // an int8 SSM over a tp=2 LLM journals precision 1 and degree 2,
    // which is what diffcheck --replay-journal rebuilds.
    model::ModelConfig llm_cfg = specinfer::testing::tinyConfig();
    llm_cfg.tensorParallel = 2;
    model::Transformer llm = model::makeLlm(llm_cfg);
    model::Transformer int8_ssm = model::makeInt8Ssm(llm, 2);
    core::SpecEngine engine(&llm, {&int8_ssm},
                            core::EngineConfig::greedyDefault());
    RequestManager manager(&engine, ServingConfig{});
    std::stringstream journal_buf;
    JournalWriter journal(journal_buf);
    manager.attachJournal(&journal);

    std::stringstream journal_in(journal_buf.str());
    JournalReader reader(journal_in);
    JournalRecord header;
    ASSERT_TRUE(reader.next(header));
    ASSERT_EQ(header.type, RecordType::Header);
    EXPECT_EQ(header.ssmPrecision,
              static_cast<uint8_t>(model::Precision::Int8));
    EXPECT_EQ(header.tpDegree, 2u);
}

// ----------------------------------------------------------------
// Damaged snapshots: every truncation and hostile count fails one
// "corrupt serving snapshot" check, never a read past the buffer or
// a loop on the count.

class CorruptSnapshotDeathTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Some damage is found only after earlier sessions rebuilt
        // their KV rows on the thread pool, which a forked child
        // lacks: re-execute the binary for each death statement.
        style_ = ::testing::GTEST_FLAG(death_test_style);
        ::testing::GTEST_FLAG(death_test_style) = "threadsafe";

        cfg_.maxBatchSize = 2;
        cfg_.kvBlockTokens = 4;
        cfg_.kvPoolBlocks = 64;
        cfg_.kvPrefixSharing = true;
        // A mid-run snapshot with pending, active and finished
        // requests and resident shared prefix blocks.
        RequestManager live(f_.engine.get(), cfg_);
        for (int tail = 0; tail < 5; ++tail) {
            std::vector<int> prompt = kSharedPrefix;
            prompt.push_back(60 + tail);
            ASSERT_TRUE(live.submit(prompt).accepted());
        }
        while (live.finished().empty())
            live.runIteration();
        live.runIteration(); // admits the next pair
        ASSERT_GT(live.pendingCount(), 0u);
        ASSERT_GT(live.activeCount(), 0u);
        std::stringstream out;
        live.writeSnapshot(out);
        snapshot_ = out.str();
    }

    void TearDown() override
    {
        ::testing::GTEST_FLAG(death_test_style) = style_;
    }

    size_t recoverFrom(const std::string &bytes) const
    {
        RequestManager fresh(f_.engine.get(), cfg_);
        std::stringstream in(bytes);
        fresh.recover(&in, nullptr);
        return fresh.pendingCount() + fresh.activeCount() +
               fresh.finished().size();
    }

    const std::vector<int> kSharedPrefix = {5, 41, 3, 77, 12, 9, 30, 8};
    EngineFixture f_;
    ServingConfig cfg_;
    std::string snapshot_;
    std::string style_;
};

TEST_F(CorruptSnapshotDeathTest, IntactSnapshotRecovers)
{
    EXPECT_EQ(recoverFrom(snapshot_), 5u);
}

TEST_F(CorruptSnapshotDeathTest, TruncatedSnapshotFailsOneCheck)
{
    // Cut points spread over the header, the scheduler scalars, the
    // queues, the shared-block table, the sessions and the results.
    const size_t size = snapshot_.size();
    std::vector<size_t> cuts = {size - 1};
    for (size_t k = 0; k < 24; ++k)
        cuts.push_back(size * k / 24);
    for (size_t cut : cuts)
        EXPECT_DEATH(recoverFrom(snapshot_.substr(0, cut)),
                     "corrupt serving snapshot")
            << "cut at " << cut << " of " << size;
}

TEST_F(CorruptSnapshotDeathTest, HostileCountFailsOneCheck)
{
    // Every copy of the shared prompt prefix (request prompts,
    // session sequences, shared-block tokens) follows its u64
    // element count; set each count to 2^63 in turn.
    const std::string needle(
        reinterpret_cast<const char *>(kSharedPrefix.data()),
        kSharedPrefix.size() * sizeof(int));
    size_t counts = 0;
    for (size_t at = snapshot_.find(needle); at != std::string::npos;
         at = snapshot_.find(needle, at + 1)) {
        std::string bytes = snapshot_;
        const uint64_t hostile = uint64_t{1} << 63;
        std::memcpy(&bytes[at - sizeof(uint64_t)], &hostile,
                    sizeof(hostile));
        EXPECT_DEATH(recoverFrom(bytes), "corrupt serving snapshot")
            << "count at " << (at - sizeof(uint64_t));
        ++counts;
    }
    EXPECT_GE(counts, 5u);
}

// ----------------------------------------------------------------
// The randomized recovery-equivalence oracle.

TEST(RecoveryTest, SeededCrashTrialsRecoverBitIdentically)
{
    const uint64_t base = envOr("SPECINFER_RECOVERY_SEED", 8062026);
    const uint64_t trials = envOr("SPECINFER_RECOVERY_TRIALS", 1000);
    for (uint64_t i = 0; i < trials; ++i) {
        verify::TrialOutcome out =
            verify::runRecoveryTrial(base + i);
        ASSERT_TRUE(out.ok)
            << "seed " << (base + i) << ": " << out.detail << "\n"
            << out.configLine;
    }
}

// ----------------------------------------------------------------
// Crash-recovery soak: crashes layered on the full fault soak.

TEST(RecoverySoakTest, CrashesUnderFaultLoadKeepEveryInvariant)
{
    const uint64_t seed = envOr("SPECINFER_RECOVERY_SEED", 8062026);
    const size_t soak_iterations =
        envOr("SPECINFER_RECOVERY_SOAK_ITERATIONS", 2500);
    const size_t snapshot_every = 16;

    model::Transformer llm = tinyLlm();
    model::Transformer ssm = model::makeEarlyExitSsm(llm, 2);
    core::EngineConfig ecfg = core::EngineConfig::greedyDefault();
    ecfg.spec.expansion = core::ExpansionConfig::uniform(2, 4);
    ecfg.maxNewTokens = 16;
    ecfg.stopAtEos = false;
    core::SpecEngine engine(&llm, {&ssm}, ecfg);

    ServingConfig cfg;
    cfg.maxBatchSize = 4;
    cfg.kvBlockTokens = 8;
    size_t per_request = engine.kvTokensFor(6 + ecfg.maxNewTokens);
    KvBlockAllocator probe(1000, 8);
    cfg.kvPoolBlocks = probe.blocksFor(per_request) * 5 / 2;
    cfg.kvPolicy = KvReservationPolicy::OnDemand;
    cfg.maxPendingRequests = 8;
    cfg.maxPreemptions = 4;
    cfg.defaultDeadlineIterations = 400;
    cfg.degradeAfterConsecutiveFaults = 3;
    cfg.degradeBackoffIterations = 8;

    FaultInjector fi(seed);
    fi.setProbability(FaultPoint::SsmStep, 0.08);
    fi.setProbability(FaultPoint::Verify, 0.04);
    fi.setProbability(FaultPoint::KvAlloc, 0.04);
    fi.setProbability(FaultPoint::SlowIteration, 0.02);
    fi.setProbability(FaultPoint::Crash, 0.004);

    util::Rng workload(seed ^ 0x50a4ULL);

    struct Submitted
    {
        std::vector<int> prompt;
        size_t maxNewTokens;
    };
    std::map<uint64_t, Submitted> accepted;
    std::vector<uint64_t> live;
    size_t rejected = 0, crashes = 0;

    auto manager = std::unique_ptr<RequestManager>(
        new RequestManager(&engine, cfg));
    auto journal_buf =
        std::unique_ptr<std::stringstream>(new std::stringstream);
    auto journal = std::unique_ptr<JournalWriter>(
        new JournalWriter(*journal_buf));
    manager->attachJournal(journal.get());
    std::string snap_bytes; // empty = no snapshot yet

    // Discard the crashed manager and rebuild purely from the
    // persisted bytes; start a fresh journal epoch (new journal +
    // immediate snapshot) so the *next* crash recovers too.
    auto recoverNow = [&]() {
        ++crashes;
        auto buf2 = std::unique_ptr<std::stringstream>(
            new std::stringstream);
        auto journal2 = std::unique_ptr<JournalWriter>(
            new JournalWriter(*buf2));
        auto fresh = std::unique_ptr<RequestManager>(
            new RequestManager(&engine, cfg));
        fresh->attachJournal(journal2.get());
        std::stringstream journal_in(journal_buf->str());
        std::unique_ptr<std::stringstream> snap_in;
        if (!snap_bytes.empty())
            snap_in.reset(new std::stringstream(snap_bytes));
        fresh->recover(snap_in.get(), &journal_in);
        manager = std::move(fresh);
        journal = std::move(journal2);
        journal_buf = std::move(buf2);
        std::stringstream snap_out;
        manager->writeSnapshot(snap_out);
        snap_bytes = snap_out.str();
    };

    {
        FaultScope scope(&fi);
        for (size_t it = 0; it < soak_iterations; ++it) {
            if (workload.uniform() < 0.22) {
                Submitted sub;
                size_t len = 3 + size_t(workload.uniform() * 4);
                for (size_t t = 0; t < len; ++t)
                    sub.prompt.push_back(
                        1 + int(workload.uniform() * 90));
                sub.maxNewTokens =
                    8 + size_t(workload.uniform() * 9);
                size_t deadline = 0;
                if (workload.uniform() < 0.2)
                    deadline = 30 + size_t(workload.uniform() * 31);
                SubmitResult sr = manager->submit(
                    sub.prompt, sub.maxNewTokens, deadline);
                if (sr.accepted()) {
                    accepted.emplace(sr.id, std::move(sub));
                    live.push_back(sr.id);
                } else {
                    ASSERT_EQ(sr.reject, RejectReason::QueueFull)
                        << fi.reproLine();
                    ++rejected;
                }
            }
            if (!live.empty() && workload.uniform() < 0.01) {
                size_t pick =
                    size_t(workload.uniform() * double(live.size()));
                pick = std::min(pick, live.size() - 1);
                manager->cancel(live[pick]);
            }
            manager->runIteration();
            if (manager->crashed()) {
                recoverNow();
                continue; // the iteration was lost; re-run it
            }
            if ((it + 1) % snapshot_every == 0) {
                std::stringstream snap_out;
                manager->writeSnapshot(snap_out);
                snap_bytes = snap_out.str();
            }
            if (live.size() > 64 || it + 1 == soak_iterations) {
                std::map<uint64_t, bool> done;
                for (const RequestResult &res : manager->finished())
                    done[res.id] = true;
                std::vector<uint64_t> still;
                for (uint64_t id : live)
                    if (!done.count(id))
                        still.push_back(id);
                live.swap(still);
            }
        }
        size_t guard = 0;
        while (manager->busy()) {
            manager->runIteration();
            if (manager->crashed())
                recoverNow();
            ASSERT_LT(++guard, 20000u)
                << "soak livelock: " << fi.reproLine();
        }
    }

    // Conservation across every crash: exactly one result per
    // accepted request, none invented, none lost.
    ASSERT_EQ(manager->finished().size(), accepted.size())
        << fi.reproLine();
    std::map<uint64_t, const RequestResult *> results;
    for (const RequestResult &res : manager->finished()) {
        ASSERT_TRUE(accepted.count(res.id)) << fi.reproLine();
        ASSERT_TRUE(results.emplace(res.id, &res).second)
            << "duplicate result for id " << res.id;
    }

    // The differential oracle still holds through crashes: finished
    // requests are token-identical to the fault-free engine output,
    // aborted ones are a prefix of it.
    size_t normal = 0, aborted = 0;
    for (const auto &entry : results) {
        const RequestResult &res = *entry.second;
        const Submitted &sub = accepted.at(res.id);
        std::vector<int> want =
            engine.generate(sub.prompt, res.id, sub.maxNewTokens)
                .tokens;
        switch (res.stopReason) {
        case SpecSession::StopReason::MaxTokens:
        case SpecSession::StopReason::Eos:
        case SpecSession::StopReason::StopSequence:
        case SpecSession::StopReason::CapacityLimit:
            ++normal;
            EXPECT_EQ(res.tokens, want)
                << "id " << res.id << ": " << fi.reproLine();
            break;
        case SpecSession::StopReason::Deadline:
        case SpecSession::StopReason::Cancelled:
        case SpecSession::StopReason::Preempted:
        case SpecSession::StopReason::Shed:
            ++aborted;
            ASSERT_LE(res.tokens.size(), want.size())
                << fi.reproLine();
            EXPECT_TRUE(std::equal(res.tokens.begin(),
                                   res.tokens.end(), want.begin()))
                << "id " << res.id
                << " partial output is not a prefix: "
                << fi.reproLine();
            break;
        case SpecSession::StopReason::None:
            FAIL() << "id " << res.id << " finished without a "
                   << "stop reason: " << fi.reproLine();
        }
    }

    EXPECT_GT(crashes, 0u) << fi.reproLine();
    EXPECT_GT(normal, 0u) << fi.reproLine();
    EXPECT_EQ(manager->kvPool()->usedBlocks(), 0u)
        << fi.reproLine();
    EXPECT_EQ(manager->kvPool()->stats().redundantReleases, 0u)
        << fi.reproLine();

    SPECINFER_INFO("recovery soak: " << crashes << " crashes, "
                                     << normal << " exact, "
                                     << aborted << " aborted-prefix; "
                                     << fi.reproLine());
}

} // namespace
} // namespace runtime
} // namespace specinfer
