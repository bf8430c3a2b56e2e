/**
 * @file
 * Ablation: prefix-shared, copy-on-write KV blocks under
 * multi-tenant traffic.
 *
 * Thirty-two concurrent requests drawn from two tenants whose chat
 * system prompts are 64 tokens long drain through the request
 * manager twice: once with plain per-request KV reservation, once
 * with hash-consed prefix sharing. Sharing must not change a single
 * output token (asserted before any benchmark runs); what it buys
 * is recorded as counters — peak pool occupancy, prefill tokens the
 * LLM actually computed, prefix hits, and copy-on-write events —
 * which scripts/bench_json.sh appends to BENCH_serving.json next to
 * the timing.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "runtime/kv_memory.h"
#include "runtime/request_manager.h"
#include "workload/datasets.h"

namespace {

using namespace specinfer;

constexpr size_t kRequests = 32;
constexpr size_t kTenants = 2;
constexpr size_t kPrefixTokens = 64;
constexpr size_t kBlockTokens = 16;
/** Batch below the request count so admission staggers: later
 *  waves adopt the prefix blocks earlier waves published, which is
 *  where the prefill-compute saving comes from. */
constexpr size_t kBatch = 8;

struct SharingBench
{
    bench::BenchModels models = bench::makeBenchModels();
    core::EngineConfig engineCfg = bench::benchEngineConfig(
        false, core::ExpansionConfig::paperDefault());
    std::vector<std::vector<int>> prompts;
    size_t promptTokens = 0;
    size_t poolBlocks = 0;

    SharingBench()
    {
        workload::SharedPrefixDataset dataset =
            workload::SharedPrefixDataset::chat(
                models.llm.config().vocabSize, kTenants,
                kPrefixTokens);
        size_t longest = 0;
        for (size_t i = 0; i < kRequests; ++i) {
            prompts.push_back(dataset.prompt(i));
            promptTokens += prompts.back().size();
            longest = std::max(longest, prompts.back().size());
        }
        // Ample pool: every request's worst case fits at once, so
        // the two configurations differ only in sharing, never in
        // preemption behaviour.
        core::SpecEngine probe(&models.llm, {&models.ssm},
                               engineCfg);
        const size_t worst =
            probe.kvTokensFor(longest + engineCfg.maxNewTokens);
        runtime::KvBlockAllocator sizer(100000, kBlockTokens);
        poolBlocks = kRequests * sizer.blocksFor(worst);
    }

    runtime::ServingConfig
    servingConfig(bool sharing) const
    {
        runtime::ServingConfig cfg;
        cfg.maxBatchSize = kBatch;
        cfg.kvBlockTokens = kBlockTokens;
        cfg.kvPoolBlocks = poolBlocks;
        cfg.kvPrefixSharing = sharing;
        return cfg;
    }
};

SharingBench &
fixture()
{
    static SharingBench bench;
    return bench;
}

std::map<uint64_t, std::vector<int>>
drainOnce(core::SpecEngine &engine, const SharingBench &f,
          bool sharing)
{
    runtime::RequestManager manager(&engine,
                                    f.servingConfig(sharing));
    for (const std::vector<int> &p : f.prompts)
        manager.submit(p);
    manager.runUntilDrained();
    std::map<uint64_t, std::vector<int>> out;
    for (const runtime::RequestResult &res : manager.finished())
        out[res.id] = res.tokens;
    return out;
}

/** Sharing is an occupancy/latency optimization only: refuse to
 *  report numbers at all if it perturbs a single output token. */
void
checkTokenIdentity()
{
    SharingBench &f = fixture();
    core::SpecEngine engine(&f.models.llm, {&f.models.ssm},
                            f.engineCfg);
    const auto plain = drainOnce(engine, f, false);
    const auto shared = drainOnce(engine, f, true);
    if (plain.size() != kRequests || plain != shared) {
        std::fprintf(stderr,
                     "ablation_prefix_sharing: prefix sharing "
                     "changed generated tokens; refusing to "
                     "benchmark\n");
        std::abort();
    }
}

void
BM_MultiTenantDrain(benchmark::State &state)
{
    SharingBench &f = fixture();
    const bool sharing = state.range(0) != 0;
    // The process-global context (installed by main() when the
    // metric exporters are requested) wins so the exposition file
    // sees the kv_* metrics; otherwise a private context scopes
    // engine_prefill_skipped_tokens to this benchmark.
    obs::ObsContext local(&obs::SteadyClock::instance(),
                          /*tracing_enabled=*/false);
    obs::ObsContext *ctx =
        obs::globalObs() != nullptr ? obs::globalObs() : &local;
    core::EngineConfig ecfg = f.engineCfg;
    ecfg.obs = ctx;
    core::SpecEngine engine(&f.models.llm, {&f.models.ssm}, ecfg);
    const uint64_t skipped_before =
        ctx->metrics()
            .counter("engine_prefill_skipped_tokens")
            ->value();

    runtime::KvMemoryStats last;
    size_t tokens = 0;
    for (auto _ : state) {
        runtime::ServingConfig scfg = f.servingConfig(sharing);
        scfg.obs = ctx;
        runtime::RequestManager manager(&engine, scfg);
        for (const std::vector<int> &p : f.prompts)
            manager.submit(p);
        manager.runUntilDrained();
        last = manager.kvPool()->stats();
        tokens += manager.stats().tokensGenerated;
    }
    state.SetItemsProcessed(static_cast<int64_t>(tokens));

    const double runs = static_cast<double>(state.iterations());
    const double skipped = static_cast<double>(
        ctx->metrics()
            .counter("engine_prefill_skipped_tokens")
            ->value() -
        skipped_before);
    state.counters["peak_kv_blocks"] =
        static_cast<double>(last.peakUsedBlocks);
    // Prompt tokens the LLM prefilled per drain (total minus the
    // rows adopted from the shared-prefix payload store).
    state.counters["prefill_tokens"] =
        static_cast<double>(f.promptTokens) - skipped / runs;
    state.counters["prefix_hits"] =
        static_cast<double>(last.prefixHits);
    state.counters["cow_copies"] =
        static_cast<double>(last.cowCopies);
}
BENCHMARK(BM_MultiTenantDrain)
    ->ArgName("sharing")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    const char *metrics_path = std::getenv("SPECINFER_METRICS_OUT");
    const char *trace_path = std::getenv("SPECINFER_TRACE_OUT");
    std::unique_ptr<obs::ObsContext> ctx;
    if (metrics_path != nullptr || trace_path != nullptr) {
        ctx = std::make_unique<obs::ObsContext>(
            &obs::SteadyClock::instance(),
            /*tracing_enabled=*/trace_path != nullptr);
        obs::setGlobalObs(ctx.get());
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    checkTokenIdentity();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (ctx != nullptr) {
        if (metrics_path != nullptr) {
            std::ofstream out(metrics_path);
            obs::writePrometheus(ctx->metrics().snapshot(), out);
        }
        if (trace_path != nullptr) {
            std::ofstream out(trace_path);
            ctx->tracer().writeChromeTrace(out);
        }
        obs::setGlobalObs(nullptr);
    }
    return 0;
}
