/**
 * @file
 * Differential oracle tests: exercise the src/verify harness from
 * the tier-1 suite so equivalence regressions fail in ctest with a
 * seed-exact repro, plus explicit greedy-equality and stop-sequence
 * parity cases at fixed configurations, and the journal replay
 * oracle's own negative control.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "../model/test_models.h"
#include "core/spec_engine.h"
#include "model/model_factory.h"
#include "runtime/request_manager.h"
#include "verify/diff_harness.h"

namespace specinfer {
namespace core {
namespace {

using specinfer::testing::randomPrompt;
using specinfer::testing::tinyLlm;

/** Greedy engine over the tiny model with the given expansion. */
GenerationResult
runEngine(const model::Transformer &llm,
          std::vector<const model::Transformer *> ssms,
          EngineConfig cfg, const std::vector<int> &prompt)
{
    SpecEngine engine(&llm, std::move(ssms), cfg);
    return engine.generate(prompt, /*request_seed=*/7);
}

TEST(DiffOracle, GreedyEqualityAcrossExpansions)
{
    model::Transformer llm = tinyLlm();
    model::Transformer ssm = model::makeEarlyExitSsm(llm, 2);
    util::Rng prompt_rng(11);
    std::vector<int> prompt =
        randomPrompt(prompt_rng, 9, llm.config().vocabSize);

    model::SamplingParams greedy;
    greedy.temperature = 0.0f;
    util::Rng ref_rng(1);
    GenerationResult ref = incrementalGenerate(
        llm, prompt, greedy, 20, ref_rng, /*stop_at_eos=*/false);

    const ExpansionConfig expansions[] = {
        ExpansionConfig::none(),       // incremental mode: <>
        ExpansionConfig::uniform(1, 1),
        [] {
            ExpansionConfig e;
            e.widths = {4, 2, 1};
            return e;
        }(),
    };
    for (const ExpansionConfig &expansion : expansions) {
        EngineConfig cfg = EngineConfig::greedyDefault();
        cfg.spec.expansion = expansion;
        cfg.maxNewTokens = 20;
        cfg.stopAtEos = false;
        std::vector<const model::Transformer *> pool;
        if (expansion.steps() > 0)
            pool.push_back(&ssm);
        GenerationResult got = runEngine(llm, pool, cfg, prompt);
        EXPECT_EQ(got.tokens, ref.tokens)
            << "expansion " << expansion.toString();
    }
}

TEST(DiffOracle, GreedyEqualityWithMergedMultiSsmTrees)
{
    model::Transformer llm = tinyLlm();
    model::Transformer ssm_a = model::makeEarlyExitSsm(llm, 1);
    model::Transformer ssm_b =
        model::makeEarlyExitSsm(llm, 2, /*head_noise_std=*/0.1f,
                                /*noise_seed=*/5);
    util::Rng prompt_rng(23);
    std::vector<int> prompt =
        randomPrompt(prompt_rng, 12, llm.config().vocabSize);

    model::SamplingParams greedy;
    greedy.temperature = 0.0f;
    util::Rng ref_rng(1);
    GenerationResult ref = incrementalGenerate(
        llm, prompt, greedy, 18, ref_rng, /*stop_at_eos=*/false);

    EngineConfig cfg = EngineConfig::greedyDefault();
    cfg.spec.expansion = ExpansionConfig::uniform(2, 3);
    cfg.maxNewTokens = 18;
    cfg.stopAtEos = false;
    GenerationResult got =
        runEngine(llm, {&ssm_a, &ssm_b}, cfg, prompt);
    EXPECT_EQ(got.tokens, ref.tokens);
}

TEST(DiffOracle, StopSequenceParityWithIncremental)
{
    model::Transformer llm = tinyLlm();
    model::Transformer ssm = model::makeEarlyExitSsm(llm, 2);
    util::Rng prompt_rng(31);
    std::vector<int> prompt =
        randomPrompt(prompt_rng, 8, llm.config().vocabSize);

    model::SamplingParams greedy;
    greedy.temperature = 0.0f;

    // Derive a stop sequence that genuinely fires: a window of the
    // unconstrained output.
    util::Rng pre_rng(1);
    GenerationResult pre = incrementalGenerate(
        llm, prompt, greedy, 20, pre_rng, /*stop_at_eos=*/false);
    ASSERT_GE(pre.tokens.size(), 6u);
    std::vector<int> stop(pre.tokens.begin() + 3,
                          pre.tokens.begin() + 5);

    util::Rng ref_rng(2);
    GenerationResult ref = incrementalGenerate(
        llm, prompt, greedy, 20, ref_rng, /*stop_at_eos=*/false,
        {stop});
    ASSERT_LT(ref.tokens.size(), pre.tokens.size())
        << "stop sequence did not shorten the oracle output";

    EngineConfig cfg = EngineConfig::greedyDefault();
    cfg.spec.expansion = ExpansionConfig::uniform(2, 3);
    cfg.maxNewTokens = 20;
    cfg.stopAtEos = false;
    cfg.stopSequences = {stop};
    GenerationResult got = runEngine(llm, {&ssm}, cfg, prompt);
    EXPECT_EQ(got.tokens, ref.tokens);
}

TEST(DiffOracle, PrefillStepsAreExcludedFromPerStepAverages)
{
    model::Transformer llm = tinyLlm();
    model::Transformer ssm = model::makeEarlyExitSsm(llm, 2);
    util::Rng prompt_rng(41);
    std::vector<int> prompt =
        randomPrompt(prompt_rng, 30, llm.config().vocabSize);

    EngineConfig cfg = EngineConfig::greedyDefault();
    cfg.spec.expansion = ExpansionConfig::uniform(2, 3);
    cfg.maxNewTokens = 10;
    cfg.stopAtEos = false;
    cfg.maxPrefillChunk = 8;
    SpecEngine engine(&llm, {&ssm}, cfg);
    GenerationResult got = engine.generate(prompt, 3);

    // 30 prompt tokens at chunk 8: three prefill-only iterations
    // (the fourth chunk is absorbed by the first speculative step).
    EXPECT_EQ(got.stats.steps.size() - got.stats.decodeSteps(), 3u);
    for (const StepRecord &s : got.stats.steps)
        EXPECT_EQ(s.prefill, s.verifiedTokens == 0);
    ASSERT_GT(got.stats.decodeSteps(), 0u);
    EXPECT_DOUBLE_EQ(
        got.stats.avgVerifiedPerStep(),
        static_cast<double>(got.stats.totalGenerated()) /
            static_cast<double>(got.stats.decodeSteps()));
    // The old denominator (all steps) would deflate the average.
    EXPECT_GT(got.stats.avgVerifiedPerStep(),
              static_cast<double>(got.stats.totalGenerated()) /
                  static_cast<double>(got.stats.steps.size()));
}

class OracleSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(OracleSweep, GreedyTrialPasses)
{
    verify::TrialOutcome out =
        verify::runGreedyTrial(GetParam());
    EXPECT_TRUE(out.ok) << out.configLine << "\n  " << out.detail
                        << "\n  repro: diffcheck --replay "
                        << GetParam() << " --kind greedy";
}

TEST_P(OracleSweep, TreeFuzzTrialPasses)
{
    verify::TrialOutcome out =
        verify::runTreeFuzzTrial(GetParam());
    EXPECT_TRUE(out.ok) << out.configLine << "\n  " << out.detail;
}

TEST_P(OracleSweep, KvRoundTripTrialPasses)
{
    verify::TrialOutcome out =
        verify::runKvRoundTripTrial(GetParam());
    EXPECT_TRUE(out.ok) << out.configLine << "\n  " << out.detail;
}

// Seeds disjoint from diffcheck's default range (which starts at 1)
// so the suite adds coverage instead of repeating it.
INSTANTIATE_TEST_SUITE_P(Seeds, OracleSweep,
                         ::testing::Range(uint64_t{1000},
                                          uint64_t{1010}));

TEST(DiffOracle, JournalReplayCatchesATamperedToken)
{
    // replayJournal passes an honest serving journal and flags one
    // whose journaled tokens the engine would not have emitted.
    model::Transformer llm = model::makeLlm(model::llmPreset("tiny"));
    model::Transformer ssm = model::makeEarlyExitSsm(llm, 2);
    EngineConfig cfg = EngineConfig::greedyDefault();
    cfg.maxNewTokens = 12;
    SpecEngine engine(&llm, {&ssm}, cfg);
    runtime::ServingConfig scfg;
    scfg.maxBatchSize = 2;
    runtime::RequestManager manager(&engine, scfg);
    std::stringstream journal;
    runtime::JournalWriter writer(journal);
    manager.attachJournal(&writer);
    util::Rng rng(3);
    for (int i = 0; i < 4; ++i)
        manager.submit(randomPrompt(rng, 4, 64), 0);
    manager.runUntilDrained();

    std::ostringstream log;
    std::stringstream honest(journal.str());
    verify::JournalReplayResult res =
        verify::replayJournal(honest, log);
    EXPECT_TRUE(res.ok) << res.error << log.str();
    EXPECT_EQ(res.requests, 4u);
    EXPECT_EQ(res.checked, 4u);

    std::stringstream tampered;
    runtime::JournalWriter rewriter(tampered);
    runtime::JournalReader reader(journal);
    runtime::JournalRecord rec;
    bool changed = false;
    while (reader.next(rec)) {
        if (!changed && rec.type == runtime::RecordType::Step &&
            !rec.tokens.empty()) {
            rec.tokens[0] ^= 1;
            changed = true;
        }
        rewriter.append(rec);
    }
    ASSERT_TRUE(changed);
    res = verify::replayJournal(tampered, log);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.mismatches, 1u) << log.str();
}

TEST(DiffOracle, MssDistributionMatchesIncremental)
{
    verify::MssCheckConfig cfg;
    cfg.seed = 404;
    cfg.samples = 1500;
    cfg.alpha = 1.0e-3;
    verify::MssCheckResult res =
        verify::runMssDistributionCheck(cfg);
    EXPECT_TRUE(res.ok) << res.detail;
    EXPECT_LT(res.tvd, 0.08);
}

} // namespace
} // namespace core
} // namespace specinfer
