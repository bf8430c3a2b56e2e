/**
 * @file
 * Ablation: KV-cache memory policies under continuous batching.
 *
 * The paper's introduction motivates speculation partly through KV
 * memory pressure: caching keys/values bounds the number of
 * requests a pipeline can serve in parallel. This harness compares
 * worst-case reservation against on-demand (paged) reservation with
 * preemption, across KV pool sizes, on a fixed request stream.
 */

#include <cstdio>

#include "bench_common.h"
#include "runtime/request_manager.h"
#include "util/stats.h"
#include "util/table.h"

int
main()
{
    using namespace specinfer;
    bench::BenchModels models = bench::makeBenchModels();
    core::EngineConfig cfg = bench::benchEngineConfig(
        false, core::ExpansionConfig::paperDefault());
    cfg.maxNewTokens = 48;
    core::SpecEngine engine(&models.llm, {&models.ssm}, cfg);
    workload::PromptDataset dataset = workload::PromptDataset::named(
        "Alpaca", models.llm.config().vocabSize);

    const size_t requests = 12;
    const size_t block_tokens = 16;
    // Worst-case tokens for the longest prompt in the stream.
    size_t worst = 0;
    for (size_t i = 0; i < requests; ++i)
        worst = std::max(worst, dataset.prompt(i).size());
    worst = engine.kvTokensFor(worst + cfg.maxNewTokens);
    runtime::KvBlockAllocator probe(100000, block_tokens);
    const size_t worst_blocks = probe.blocksFor(worst);

    std::printf("== Ablation: KV memory policy (12 requests, batch "
                "8, worst case %zu blocks/request) ==\n",
                worst_blocks);
    util::Table table({"pool (x worst case)", "policy",
                       "makespan (iters)", "avg completion (iters)",
                       "preemptions", "peak blocks",
                       "peak pool frag"});
    for (double scale : {1.2, 2.0, 4.0}) {
        for (int p = 0; p < 2; ++p) {
            runtime::ServingConfig serving;
            serving.maxBatchSize = 8;
            serving.kvBlockTokens = block_tokens;
            serving.kvPoolBlocks = static_cast<size_t>(
                scale * static_cast<double>(worst_blocks));
            serving.kvPolicy =
                p == 0 ? runtime::KvReservationPolicy::WorstCase
                       : runtime::KvReservationPolicy::OnDemand;
            runtime::RequestManager manager(&engine, serving);
            for (size_t i = 0; i < requests; ++i)
                manager.submit(dataset.prompt(i));
            // Drain one iteration at a time, sampling pool-level
            // fragmentation (physical capacity reserved but not yet
            // backed by tokens; each shared block counted once).
            double peak_frag = 0.0;
            while (manager.busy()) {
                manager.runIteration();
                peak_frag = std::max(peak_frag,
                                     manager.kvFragmentation());
            }

            util::RunningStat completion;
            for (const runtime::RequestResult &res :
                 manager.finished())
                completion.add(static_cast<double>(
                    res.finishIteration - res.arrivalIteration + 1));
            char pool_label[32];
            std::snprintf(pool_label, sizeof(pool_label), "%.1fx",
                          scale);
            table.addRow(
                {pool_label,
                 p == 0 ? "worst-case reservation"
                        : "on-demand (paged)",
                 std::to_string(manager.iterationCount()),
                 util::formatDouble(completion.mean(), 1),
                 std::to_string(manager.stats().preemptions),
                 std::to_string(
                     manager.kvPool()->stats().peakUsedBlocks),
                 util::formatDouble(peak_frag, 3)});
        }
    }
    std::printf("%s", table.toAscii().c_str());
    std::printf("\nOn-demand paging admits more concurrent requests "
                "from the same pool (higher peak utilization, lower "
                "completion time); under extreme pressure it pays "
                "with preemptions, the vLLM recompute trade-off. "
                "Worst-case reservation shows up as pool-level "
                "fragmentation: capacity reserved up front that no "
                "token ever backs.\n");
    return 0;
}
