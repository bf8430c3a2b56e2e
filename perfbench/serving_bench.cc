/**
 * @file
 * The serving benchmark. One process runs one named workload through
 * the program's public serving entry points — runtime::RequestManager
 * in process, or ipc::Daemon driven by ipc::Client over shared-memory
 * rings — checks every output against greedy incremental decoding,
 * and prints its metrics.
 *
 *   perfbench_serving --workload <name> --seed <n> --seconds <s>
 *                     --trace <0|1> [--out <dir>] [--git-rev <rev>]
 *                     [--git-dirty <0|1>]
 *
 * A run starts with a few seconds of untimed load, then times
 * repeated set-ups. --trace 0 then measures the end-to-end metrics
 * with observability off, in rounds on fresh set-ups. --trace 1 runs
 * three arms on the same requests: the untraced speculative arm
 * again, a traced speculative arm in one continuous run that yields
 * the per-layer metrics, and an untraced incremental arm (empty
 * expansion) as the reference. The traced arm's Chrome trace and
 * Prometheus snapshot are written under --out.
 *
 * Nothing here instruments the program: the benchmark times its own
 * calls into each layer (spans in category "bench" on the program's
 * tracer, request id as the track) and reads the counters and spans
 * the program already records through an obs::ObsContext.
 *
 * The last line of stdout is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}. Every earlier line is for people.
 */

#include <cpuid.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/spec_engine.h"
#include "ipc/client.h"
#include "ipc/daemon.h"
#include "metrics.h"
#include "model/model_factory.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "runtime/request_manager.h"
#include "util/rng.h"
#include "util/threadpool.h"
#include "workload/datasets.h"

namespace {

using namespace specinfer;
using perfbench::Percentile;
using perfbench::TokenBurst;

// --- Workloads --------------------------------------------------------

enum class Loop
{
    Open,            ///< Poisson arrivals into an in-process manager
    ClosedInProcess, ///< callers into an in-process manager
    ClosedDaemon,    ///< ipc::Clients into an in-process ipc::Daemon
};

struct Workload
{
    const char *name;
    const char *why;
    Loop loop;
    double ratePerS;     ///< open loop only
    size_t callers;      ///< closed loops: concurrent callers
    size_t maxNewTokens;
    size_t maxBatch;
    size_t poolThreads;
    bool ragPrompts;     ///< SharedPrefixDataset::rag, else Alpaca
    bool memoryBound;    ///< synthetic LLM larger than the L3
    /** Closed loops: prompts in the fixed corpus (0 = none); the open
     *  loop's corpus is its scheduled requests. */
    size_t corpus;
};

// All three: greedy verification, the paper's 8-level expansion, a
// 2-layer early-exit fp32 SSM, tensor parallelism 1.
//
// chat-sim offers 2 req/s: about a quarter of the ~8 req/s the sim
// model serves at batch 8 on the reference host (4-core Xeon, Release
// build). Nearer saturation the open loop turns the host's +-20%
// second-to-second speed noise into queueing: at 6 req/s (74%) TPOT
// p50 swung 2x between runs of one seed. At 2 req/s most requests
// decode alone and a quarter overlap, so queueing still shows in the
// tails while the medians agree from run to run.
//
// decode-mem is an extra, not one of BENCHMARK.json's gated workloads
// and not run by default: its rate follows the host's memory
// bandwidth, which other tenants of the reference host moved from 27
// to 5 tok/s within an hour. Run it by name until a steadier
// memory-bound host or model preset lets it be gated.
const Workload kWorkloads[] = {
    {"chat-sim",
     "open-loop Poisson chat traffic on the cache-resident sim model; "
     "decode and speculation dominate, IPC, journal and KV pool are "
     "bypassed",
     Loop::Open, 2.0, 0, 64, 8, 1, false, false, 0},
    {"rag-daemon",
     "4 closed-loop ipc clients into the daemon with journal, KV pool "
     "and prefix sharing; prefill, admission and ring traffic dominate",
     Loop::ClosedDaemon, 0.0, 4, 8, 4, 1, true, false, 64},
    {"decode-mem",
     "4 closed-loop callers on a 120 MB synthetic LLM larger than L3; "
     "weight streaming dominates, where the paper's premise can hold",
     Loop::ClosedInProcess, 0.0, 4, 32, 4, 4, false, true, 16},
};

constexpr size_t kSsmLayers = 2;
constexpr size_t kRagTenants = 4;
constexpr size_t kRagContextTokens = 128;
constexpr size_t kKvBlockTokens = 16;
/**
 * rag-daemon's KV pool holds every tenant's shared prefix and this
 * many blocks for the requests' own KV. A request's own blocks peak
 * at 3 (a 128-token prefix ends on a block boundary; its suffix,
 * mean 9 tokens, 8 output tokens and a 20-node tree follow), so four
 * concurrent requests would need 12. With 8 — under three requests'
 * peaks — admission held back 4-10% of requests, and OnDemand growth
 * preempted 2-5%, over seeds 1-3 on the reference host (10 held back
 * none). The traced run prints the count and fails if it is zero.
 */
constexpr size_t kRagPrivateBlocks = 8;
constexpr size_t kJournalSnapshotEvery = 64;
/** Set-ups per run: at least kMinSetups, and more until kSetupBudgetS
 *  has been spent, so the cheap set-ups get a steady median. */
constexpr size_t kMinSetups = 3;
/**
 * Each untraced arm serves its run in this many rounds of equal
 * length, each on a fresh set-up, and pools their requests. In
 * single-thread probes on the reference host, models built one after
 * another in a process each ran at a steady speed, but up to 16%
 * apart; pooling rounds averages that within a run. Eight
 * consecutive rag-daemon runs agreed within 5% on output_tok_s.
 */
constexpr size_t kRounds = 10;
constexpr size_t kMaxSetups = 50;
constexpr double kSetupBudgetS = 1.0;
/** decode-mem checks a seeded one in this many of its requests
 *  against the oracle, since incremental decoding of the large model
 *  costs a large share of the run; the other workloads check all. */
constexpr uint64_t kMemOracleStride = 4;
/** The incremental reference arm is checked against the speculative
 *  arm where both ran a request, and this sample beyond. */
constexpr uint64_t kReferenceOracleStride = 8;
constexpr size_t kOracleThreads = 4;

/** The decode-mem LLM: ~30 M parameters, ~120 MB of fp32 weights —
 *  more than the 105 MB L3 of the reference host. Built from public
 *  ModelConfig fields so a memory-bound preset can replace it
 *  without touching the benchmark. */
model::ModelConfig
memoryBoundLlmConfig()
{
    model::ModelConfig cfg;
    cfg.name = "decode-mem-synthetic";
    cfg.dModel = 512;
    cfg.nHeads = 8;
    cfg.dFf = 1408;
    cfg.nLayers = 8;
    cfg.vocabSize = 4096;
    return cfg;
}

// --- Small utilities --------------------------------------------------

uint64_t
nowNs()
{
    return obs::SteadyClock::instance().nowNanos();
}

double
seconds(uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t x = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Full-precision JSON number. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

[[noreturn]] void
fail(const std::string &message)
{
    std::fprintf(stderr, "perfbench: %s\n", message.c_str());
    std::exit(2);
}

// --- Prompts ----------------------------------------------------------

/** Requests still unfinished this long after the load stops count as
 *  failed, and the run ends. */
constexpr uint64_t kDrainLimitNs = 60'000'000'000ULL;

constexpr uint64_t kWarmupStream = 1;
constexpr size_t kWarmupTokens = 4;
/** A run starts with this much untimed load: in three of eight
 *  single-thread probes on the reference host, a process's first 2-6 s
 *  of load ran about a third slower than the rest of it. */
constexpr double kHostWarmupS = 5.0;
constexpr uint64_t kMeasuredStream = 2;

/**
 * Seeded prompts. With a corpus of K > 0, the measured stream serves
 * dataset entries 0..K-1 in a seeded order (cycling): every seed
 * serves the same prompts, so the per-prompt spread of acceptance —
 * which sets each request's TPOT — does not move the run's median
 * from seed to seed; seeds differ in order and arrival times. With
 * K = 0, and on the warm-up stream, the k-th request uses a seeded
 * random entry.
 */
class Prompts
{
  public:
    Prompts(const Workload &w, size_t vocab, uint64_t seed, size_t corpus)
        : seed_(seed), order_(corpus)
    {
        if (w.ragPrompts)
            rag_.emplace(workload::SharedPrefixDataset::rag(
                vocab, kRagTenants, kRagContextTokens));
        else
            alpaca_.emplace(workload::PromptDataset::named("Alpaca", vocab));
        for (size_t i = 0; i < corpus; ++i)
            order_[i] = i;
        util::Rng rng(mix(seed, 0xc0));
        rng.shuffle(order_);
    }

    uint64_t index(uint64_t stream, size_t seq) const
    {
        if (stream == kMeasuredStream && !order_.empty())
            return order_[seq % order_.size()];
        return mix(mix(seed_, stream), seq) % (1u << 24);
    }

    const std::vector<int> &prompt(uint64_t index)
    {
        auto it = cache_.find(index);
        if (it == cache_.end())
            it = cache_
                     .emplace(index, rag_ ? rag_->prompt(index)
                                          : alpaca_->prompt(index))
                     .first;
        return it->second;
    }

  private:
    uint64_t seed_;
    std::vector<uint64_t> order_;
    std::optional<workload::SharedPrefixDataset> rag_;
    std::optional<workload::PromptDataset> alpaca_;
    std::unordered_map<uint64_t, std::vector<int>> cache_;
};

// --- The program under test -------------------------------------------

struct Models
{
    model::Transformer llm;
    model::Transformer ssm;
};

std::unique_ptr<Models>
buildModels(const Workload &w)
{
    model::Transformer llm = model::makeLlm(
        w.memoryBound ? memoryBoundLlmConfig()
                      : model::llmPreset("llama-7b-sim"));
    model::Transformer ssm = model::makeEarlyExitSsm(llm, kSsmLayers);
    return std::make_unique<Models>(Models{std::move(llm), std::move(ssm)});
}

core::EngineConfig
engineConfig(const Workload &w, bool speculative, obs::ObsContext *ctx)
{
    core::EngineConfig cfg = core::EngineConfig::greedyDefault();
    if (!speculative)
        cfg.spec.expansion = core::ExpansionConfig::none();
    cfg.maxNewTokens = w.maxNewTokens;
    cfg.stopAtEos = false;
    cfg.obs = ctx;
    return cfg;
}

size_t
blocksFor(size_t tokens)
{
    return (tokens + kKvBlockTokens - 1) / kKvBlockTokens;
}

/**
 * rag-daemon's KV pool: every tenant's shared prefix blocks plus
 * `private_blocks` for the requests' own blocks.
 */
size_t
ragPoolBlocks(size_t private_blocks)
{
    const size_t slice = kRagContextTokens / 4;
    const size_t shared = blocksFor(kRagContextTokens - slice) +
                          kRagTenants * blocksFor(slice);
    return shared + private_blocks;
}

/** One serving stack: an engine plus an in-process manager, or a
 *  daemon with its connected clients. */
struct Target
{
    std::unique_ptr<core::SpecEngine> engine;
    std::unique_ptr<runtime::RequestManager> manager;
    std::string dir;
    std::unique_ptr<ipc::Daemon> daemon;
    std::vector<std::unique_ptr<ipc::Client>> clients;

    runtime::RequestManager &serving()
    {
        return daemon ? daemon->manager() : *manager;
    }

    Target() = default;
    Target(const Target &) = delete;
    Target &operator=(const Target &) = delete;

    ~Target()
    {
        for (auto &client : clients)
            client->disconnect();
        clients.clear();
        if (daemon)
            daemon->drain();
        daemon.reset();
        if (!dir.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
    }
};

std::unique_ptr<Target>
makeTarget(const Workload &w, const Models &models, bool speculative,
           obs::ObsContext *ctx, const std::string &dir)
{
    auto t = std::make_unique<Target>();
    std::vector<const model::Transformer *> ssms;
    if (speculative)
        ssms.push_back(&models.ssm);
    t->engine = std::make_unique<core::SpecEngine>(
        &models.llm, ssms, engineConfig(w, speculative, ctx));

    runtime::ServingConfig scfg;
    scfg.maxBatchSize = w.maxBatch;
    scfg.obs = ctx;
    if (w.loop != Loop::ClosedDaemon) {
        t->manager = std::make_unique<runtime::RequestManager>(
            t->engine.get(), scfg);
        return t;
    }

    scfg.kvBlockTokens = kKvBlockTokens;
    scfg.kvPoolBlocks = ragPoolBlocks(kRagPrivateBlocks);
    scfg.kvPolicy = runtime::KvReservationPolicy::OnDemand;
    scfg.kvPrefixSharing = true;
    t->dir = dir;
    std::filesystem::create_directories(dir);
    ipc::DaemonConfig dcfg;
    dcfg.dir = dir;
    dcfg.journalPath = dir + "/journal";
    dcfg.snapshotEvery = kJournalSnapshotEvery;
    dcfg.obs = ctx;
    t->daemon =
        std::make_unique<ipc::Daemon>(t->engine.get(), scfg, dcfg);
    if (!t->daemon->start())
        fail("daemon failed to start in " + dir);
    for (size_t c = 0; c < w.callers; ++c) {
        ipc::ClientConfig ccfg;
        ccfg.dir = dir;
        ccfg.nonce = c + 1; // clients of one process share its pid
        ccfg.obs = ctx;
        t->clients.push_back(std::make_unique<ipc::Client>(ccfg));
        if (t->clients.back()->connect() != ipc::ClientStatus::Pending)
            fail("client could not find the daemon board");
    }
    for (size_t round = 0; round < 10000; ++round) {
        bool all = true;
        for (auto &client : t->clients) {
            client->poll();
            all = all && client->connected();
        }
        if (all)
            return t;
        t->daemon->tick();
    }
    fail("clients did not connect to the daemon");
}

// --- Driving load -----------------------------------------------------

struct Request
{
    size_t seq = 0;
    uint64_t promptIndex = 0;
    uint64_t id = 0;  ///< the program's request id
    uint64_t tag = 0; ///< client tag (daemon workloads)
    /** When the request was due: its scheduled time on the open
     *  loop, its submit time on the closed loops. */
    uint64_t dueNs = 0;
    uint64_t submitNs = 0;
    std::vector<TokenBurst> bursts;
    size_t tokensSeen = 0;
    /** The program returned a result. A request sent but never
     *  finished was rejected or outlived the drain limit. */
    bool finished = false;
    bool ok = false; ///< finished, MaxTokens, with every token seen
    std::vector<int> output;
};

struct Run
{
    std::vector<Request> reqs;
    uint64_t startNs = 0;
    std::vector<double> latenessMs; ///< open loop only
    size_t clientErrors = 0;
    /** KV pool workloads: the pool's size and peak use (which counts
     *  resident prefix blocks no request holds, so it reaches the
     *  size once every tenant's prefix is resident), the requests
     *  admission held back for want of blocks, and preemptions. */
    size_t kvTotalBlocks = 0;
    size_t kvPeakBlocks = 0;
    size_t kvHeldBack = 0;
    size_t preemptions = 0;
};

/** Observability for the traced arm. */
struct Probe
{
    obs::ObsContext ctx{&obs::SteadyClock::instance(), true};
    std::vector<double> fragmentation; ///< kvFragmentation per iteration
};

void
noteBurst(Request &q, uint64_t t_ns, size_t tokens)
{
    q.bursts.push_back({seconds(t_ns), tokens});
    q.tokensSeen += tokens;
}

/**
 * Drive an in-process manager. With a schedule, requests are sent at
 * start + schedule[i] (open loop); otherwise `callers` requests are
 * kept in flight until `run_s` has passed (closed loop). Either way
 * the run ends when every sent request has finished.
 */
Run
runInProcess(Target &t, Prompts &prompts, uint64_t stream,
             size_t first_seq, size_t max_new, double run_s,
             size_t callers, const std::vector<double> *schedule,
             Probe *probe)
{
    runtime::RequestManager &m = *t.manager;
    obs::Tracer *tr = probe ? &probe->ctx.tracer() : nullptr;
    Run r;
    std::unordered_map<uint64_t, size_t> by_id;
    m.setStepObserver([&](uint64_t id, size_t,
                          const std::vector<int> &tokens) {
        auto it = by_id.find(id);
        if (it != by_id.end())
            noteBurst(r.reqs[it->second], nowNs(), tokens.size());
    });
    auto submit = [&](std::optional<uint64_t> due_ns) {
        Request q;
        q.seq = first_seq + r.reqs.size();
        q.promptIndex = prompts.index(stream, q.seq);
        const std::vector<int> &prompt = prompts.prompt(q.promptIndex);
        const uint64_t t0 = nowNs();
        runtime::SubmitResult s = m.submit(prompt, max_new);
        const uint64_t t1 = nowNs();
        q.submitNs = t0;
        q.dueNs = due_ns.value_or(t0);
        if (s.accepted()) {
            q.id = s.id;
            by_id[s.id] = r.reqs.size();
            if (tr)
                tr->span(s.id, "bench", "submit", t0, t1);
        } else {
            std::fprintf(stderr, "request %zu rejected: %s\n", q.seq,
                         runtime::rejectReasonName(s.reject));
        }
        r.reqs.push_back(std::move(q));
    };

    r.startNs = nowNs();
    const uint64_t end_ns =
        r.startNs + static_cast<uint64_t>(run_s * 1e9);
    const size_t n_due = schedule ? schedule->size() : 0;
    size_t next = 0;
    auto due_at = [&](size_t i) {
        return r.startNs + static_cast<uint64_t>((*schedule)[i] * 1e9);
    };
    if (!schedule)
        for (size_t c = 0; c < callers; ++c)
            submit(std::nullopt);
    while (nowNs() < end_ns + kDrainLimitNs) {
        const uint64_t now = nowNs();
        while (next < n_due && due_at(next) <= now) {
            submit(due_at(next));
            const Request &q = r.reqs.back();
            r.latenessMs.push_back(
                static_cast<double>(q.submitNs - q.dueNs) * 1e-6);
            ++next;
        }
        if (m.busy()) {
            const uint64_t t0 = nowNs();
            m.runIteration();
            if (tr)
                tr->span(0, "bench", "run_iteration", t0, nowNs());
            for (runtime::RequestResult &res : m.takeFinished()) {
                Request &q = r.reqs[by_id.at(res.id)];
                q.finished = true;
                q.ok = res.stopReason ==
                           core::SpecSession::StopReason::MaxTokens &&
                       res.tokens.size() == max_new &&
                       q.tokensSeen == max_new;
                q.output = std::move(res.tokens);
                if (tr && !q.bursts.empty())
                    tr->span(q.id, "bench", "request", q.dueNs,
                             static_cast<uint64_t>(
                                 q.bursts.back().timeS * 1e9));
                if (!schedule && nowNs() < end_ns)
                    submit(std::nullopt);
            }
        } else if (next == n_due) {
            break;
        }
        // Otherwise idle until the next arrival, spinning rather than
        // sleeping so it is not sent late by a wake-up (median
        // lateness 0.2 ms sleeping, 0.03 ms spinning, reference host).
    }
    m.setStepObserver(nullptr);
    return r;
}

/**
 * Drive the daemon through its clients, closed loop: each client
 * sends its next request when the previous one finishes, until
 * `run_s` has passed.
 *
 * A tick reads the rings, then runs one iteration, which admits what
 * it can. Four clients with one request each never fill the batch of
 * four, so a request still pending after a tick was held back by the
 * KV pool (or is waiting out a preemption backoff).
 */
Run
runDaemon(Target &t, Prompts &prompts, uint64_t stream, size_t first_seq,
          size_t max_new, double run_s, Probe *probe)
{
    obs::Tracer *tr = probe ? &probe->ctx.tracer() : nullptr;
    runtime::RequestManager &m = t.serving();
    Run r;
    std::vector<std::optional<size_t>> slot(t.clients.size());
    std::unordered_set<uint64_t> held_back;
    const size_t preemptions = m.stats().preemptions;
    auto submit = [&](size_t c) {
        Request q;
        q.seq = first_seq + r.reqs.size();
        q.promptIndex = prompts.index(stream, q.seq);
        q.submitNs = q.dueNs = nowNs();
        q.tag = t.clients[c]->submit(prompts.prompt(q.promptIndex),
                                     max_new);
        slot[c] = r.reqs.size();
        r.reqs.push_back(std::move(q));
    };

    r.startNs = nowNs();
    const uint64_t end_ns =
        r.startNs + static_cast<uint64_t>(run_s * 1e9);
    for (size_t c = 0; c < t.clients.size(); ++c)
        submit(c);
    while (nowNs() < end_ns + kDrainLimitNs &&
           std::any_of(slot.begin(), slot.end(),
                       [](const auto &s) { return s.has_value(); })) {
        for (size_t c = 0; c < t.clients.size(); ++c) {
            ipc::Client &client = *t.clients[c];
            const uint64_t t0 = nowNs();
            const ipc::ClientStatus st = client.poll();
            const uint64_t t1 = nowNs();
            if (tr)
                tr->span(0, "bench", "poll", t0, t1);
            if (st != ipc::ClientStatus::Ok &&
                st != ipc::ClientStatus::Pending) {
                ++r.clientErrors;
                std::fprintf(stderr, "client %zu: %s\n", c,
                             ipc::clientStatusName(st));
            }
            if (!slot[c])
                continue;
            Request &q = r.reqs[*slot[c]];
            const ipc::ClientRequest *cr = client.request(q.tag);
            if (cr->tokens.size() > q.tokensSeen)
                noteBurst(q, t1, cr->tokens.size() - q.tokensSeen);
            if (!client.done(q.tag))
                continue;
            q.id = cr->id;
            q.finished = cr->reject == ipc::WireReject::None;
            q.ok = q.finished &&
                   cr->stopReason ==
                       static_cast<uint8_t>(
                           core::SpecSession::StopReason::MaxTokens) &&
                   cr->tokens.size() == max_new;
            q.output = cr->tokens;
            if (tr && !q.bursts.empty())
                tr->span(q.id, "bench", "request", q.dueNs,
                         static_cast<uint64_t>(
                             q.bursts.back().timeS * 1e9));
            slot[c].reset();
            if (nowNs() < end_ns)
                submit(c);
        }
        const size_t iterations = m.iterationCount();
        const uint64_t t0 = nowNs();
        t.daemon->tick();
        if (tr)
            tr->span(0, "bench", "tick", t0, nowNs());
        if (probe && m.iterationCount() != iterations)
            probe->fragmentation.push_back(m.kvFragmentation());
        if (m.pendingCount() > 0)
            for (const auto &info : m.inflight())
                if (m.phase(info.id) ==
                    runtime::RequestManager::RequestPhase::Pending)
                    held_back.insert(info.id);
    }
    r.kvHeldBack = held_back.size();
    r.preemptions = m.stats().preemptions - preemptions;
    if (const runtime::KvBlockAllocator *pool = m.kvPool()) {
        r.kvTotalBlocks = pool->totalBlocks();
        r.kvPeakBlocks = pool->stats().peakUsedBlocks;
    }
    return r;
}

/** Chat-sim arrivals: a Poisson process at `rate` conditioned on
 *  round(rate * run_s) arrivals in [0, run_s) — sorted uniform times —
 *  so every seed offers the same number of requests. */
std::vector<double>
arrivalSchedule(double rate, double run_s, uint64_t seed)
{
    util::Rng rng(mix(seed, 0x5c4ed));
    std::vector<double> times(
        static_cast<size_t>(std::llround(rate * run_s)));
    for (double &t : times)
        t = rng.uniform(0.0, run_s);
    std::sort(times.begin(), times.end());
    return times;
}

/** The arrivals at or after `from_s` and before `to_s`, as times
 *  from `from_s`. */
std::vector<double>
scheduleSlice(const std::vector<double> &times, double from_s, double to_s)
{
    std::vector<double> out;
    for (double t : times)
        if (t >= from_s && t < to_s)
            out.push_back(t - from_s);
    return out;
}

/** Serve the measured stream from request `first_seq` on for `run_s`
 *  seconds: arrivals at `schedule` on the open loop, closed-loop
 *  callers otherwise. */
Run
runLoad(const Workload &w, Target &t, Prompts &prompts, size_t first_seq,
        double run_s, const std::vector<double> &schedule, Probe *probe)
{
    if (w.loop == Loop::ClosedDaemon)
        return runDaemon(t, prompts, kMeasuredStream, first_seq,
                         w.maxNewTokens, run_s, probe);
    return runInProcess(t, prompts, kMeasuredStream, first_seq,
                        w.maxNewTokens, run_s, w.callers,
                        w.loop == Loop::Open ? &schedule : nullptr, probe);
}

/** Untimed closed-loop waves of a full batch of short requests for
 *  `run_s` (one wave for 0), so lazy allocation and the thread pool's
 *  first wake-up stay out of the measured window. */
void
warmUp(const Workload &w, Target &t, Prompts &prompts, double run_s = 0.0)
{
    if (w.loop == Loop::ClosedDaemon)
        runDaemon(t, prompts, kWarmupStream, 0, kWarmupTokens, run_s,
                  nullptr);
    else
        runInProcess(t, prompts, kWarmupStream, 0, kWarmupTokens, run_s,
                     w.maxBatch, nullptr, nullptr);
}

// --- Correctness ------------------------------------------------------

/**
 * Greedy incremental decoding of the same LLM (core::incrementalGenerate,
 * independent of the speculative path): the reference every served
 * output must equal token for token. Runs after the measured arms.
 */
class Oracle
{
  public:
    Oracle(const Workload &w, const Models &models, Prompts &prompts,
           uint64_t seed)
        : w_(w), models_(models), prompts_(prompts), seed_(seed)
    {
    }

    /**
     * Check the run's finished requests. One that stopped early or
     * with the wrong number of tokens differs from the oracle by
     * definition; the tokens of those in the seeded 1-in-`stride`
     * sample (stride 1 checks all) are compared with it. Returns
     * false, after printing the seed and request index, on the first
     * mismatch.
     */
    bool verify(const char *arm, const Run &run, uint64_t stride)
    {
        std::vector<const Request *> sample;
        for (const Request &q : run.reqs) {
            if (!q.finished)
                continue;
            if (!q.ok) {
                report(arm, q, "finished short or stopped early");
                return false;
            }
            if (mix(seed_, q.seq) % stride == 0)
                sample.push_back(&q);
        }
        std::vector<uint64_t> todo;
        for (const Request *q : sample)
            if (!cache_.count(q->promptIndex)) {
                cache_[q->promptIndex];
                todo.push_back(q->promptIndex);
            }
        generate(todo);
        for (const Request *q : sample) {
            ++checked;
            if (q->output != cache_.at(q->promptIndex)) {
                report(arm, *q, "tokens differ");
                return false;
            }
        }
        return true;
    }

    size_t checked = 0;

  private:
    void report(const char *arm, const Request &q, const char *what) const
    {
        std::printf("ORACLE MISMATCH arm=%s seed=%llu request=%zu id=%llu "
                    "tokens=%zu: %s\n",
                    arm, static_cast<unsigned long long>(seed_), q.seq,
                    static_cast<unsigned long long>(q.id), q.output.size(),
                    what);
    }

    /** Decode the given prompts on kOracleThreads threads. The pool is
     *  shrunk to one thread meanwhile, so each forward runs inline on
     *  its caller and the threads share no pool state; outputs do not
     *  depend on the pool size. */
    void generate(const std::vector<uint64_t> &indices)
    {
        std::vector<std::vector<int>> inputs;
        for (uint64_t index : indices)
            inputs.push_back(prompts_.prompt(index));
        util::ThreadPool &pool = util::ThreadPool::global();
        const size_t pool_threads = pool.threads();
        pool.setThreads(1);
        std::atomic<size_t> next{0};
        auto work = [&] {
            for (size_t i; (i = next++) < inputs.size();) {
                util::Rng rng(1);
                cache_.at(indices[i]) =
                    core::incrementalGenerate(
                        models_.llm, inputs[i],
                        core::EngineConfig::greedyDefault().llmSampling,
                        w_.maxNewTokens, rng, /*stop_at_eos=*/false)
                        .tokens;
            }
        };
        std::vector<std::thread> helpers;
        for (size_t t = 1; t < kOracleThreads; ++t)
            helpers.emplace_back(work);
        work();
        for (std::thread &t : helpers)
            t.join();
        pool.setThreads(pool_threads);
    }

    const Workload &w_;
    const Models &models_;
    Prompts &prompts_;
    uint64_t seed_;
    /** Expected output by prompt index; entries exist before the
     *  threads start, so they only write distinct mapped values. */
    std::unordered_map<uint64_t, std::vector<int>> cache_;
};

/** Arms send the same request sequence; where both finished the same
 *  request its outputs must agree. */
bool
crossCheck(const char *arm, const Run &a, const Run &b, uint64_t seed)
{
    const size_t n = std::min(a.reqs.size(), b.reqs.size());
    for (size_t i = 0; i < n; ++i) {
        if (!a.reqs[i].ok || !b.reqs[i].ok)
            continue;
        if (a.reqs[i].output != b.reqs[i].output) {
            std::printf("ARM MISMATCH arm=%s seed=%llu request=%zu\n",
                        arm, static_cast<unsigned long long>(seed), i);
            return false;
        }
    }
    return true;
}

// --- Metrics ----------------------------------------------------------

/** The end-to-end metrics of BENCHMARK.json, in the result line of
 *  every untraced run. The p90s are printed beside them where a run
 *  completes the 100 requests they need, which decode-mem does not
 *  within a run. */
const char *const kEndToEnd[] = {
    "ttft_p50_ms", "tpot_p50_ms", "output_tok_s", "setup_s", "peak_rss_mb",
};

/** The arms of a traced run, in the order they are reported. */
const char *const kArmNames[] = {"spec", "traced", "incremental"};

/** A metric value with its unit and the sample count behind it. */
struct Value
{
    double value = 0.0;
    std::string unit;
    size_t samples = 0;
};

using MetricMap = std::map<std::string, Value>;

void
putPercentile(MetricMap &out, const std::string &name,
              const std::string &unit, const std::vector<double> &v,
              double q)
{
    Percentile p = perfbench::percentile(v, q);
    if (p.value)
        out[name] = {*p.value, unit, p.samples};
}

void
putMean(MetricMap &out, const std::string &name, const std::string &unit,
        const std::vector<double> &v)
{
    if (auto m = perfbench::mean(v))
        out[name] = {*m, unit, v.size()};
}

struct Counts
{
    size_t sent = 0;
    size_t succeeded = 0;
};

Counts
countRun(const Run &run)
{
    Counts c;
    c.sent = run.reqs.size();
    for (const Request &q : run.reqs)
        c.succeeded += q.ok ? 1 : 0;
    return c;
}

/**
 * TTFT, TPOT and output tokens/s of an arm's rounds, each `round_s`
 * of load. TTFT and TPOT pool the requests of every round. Output
 * tokens/s counts the tokens of completed requests delivered within
 * the rounds' windows, over the windows' total length. A window
 * starts with its round's load. On a closed loop it ends `round_s`
 * later, or at the last token if the round drained sooner, so the
 * drain — the last requests finishing at a falling batch size — does
 * not dilute the steady-state rate. On the open loop, whose rate is
 * the offered load, it ends at the last token.
 */
MetricMap
endToEnd(const std::vector<Run> &rounds, double round_s, bool open_loop)
{
    std::vector<double> ttft, tpot;
    size_t tokens = 0;
    double window_s = 0.0;
    for (const Run &run : rounds) {
        const double start_s = seconds(run.startNs);
        double last_s = start_s;
        for (const Request &q : run.reqs) {
            if (!q.ok || q.bursts.empty())
                continue;
            ttft.push_back(perfbench::ttftMs(seconds(q.dueNs),
                                             q.bursts.front().timeS));
            if (auto v = perfbench::tpotMs(q.bursts))
                tpot.push_back(*v);
            last_s = std::max(last_s, q.bursts.back().timeS);
        }
        const double end_s =
            open_loop ? std::max(last_s, start_s + round_s)
                      : std::min(last_s, start_s + round_s);
        for (const Request &q : run.reqs)
            for (const TokenBurst &b : q.bursts)
                tokens += q.ok && b.timeS <= end_s ? b.tokens : 0;
        window_s += end_s - start_s;
    }
    MetricMap out;
    putPercentile(out, "ttft_p50_ms", "ms", ttft, 0.5);
    putPercentile(out, "ttft_p90_ms", "ms", ttft, 0.9);
    putPercentile(out, "tpot_p50_ms", "ms", tpot, 0.5);
    putPercentile(out, "tpot_p90_ms", "ms", tpot, 0.9);
    if (window_s > 0.0)
        out["output_tok_s"] = {static_cast<double>(tokens) / window_s,
                               "tok/s", tokens};
    return out;
}

/** An arm's rounds as one run: requests in sequence order, lateness
 *  and error counts summed, the KV pool's peak at its largest. */
Run
merge(const std::vector<Run> &rounds)
{
    Run all;
    for (const Run &run : rounds) {
        all.reqs.insert(all.reqs.end(), run.reqs.begin(), run.reqs.end());
        all.latenessMs.insert(all.latenessMs.end(), run.latenessMs.begin(),
                              run.latenessMs.end());
        all.clientErrors += run.clientErrors;
        all.kvTotalBlocks = std::max(all.kvTotalBlocks, run.kvTotalBlocks);
        all.kvPeakBlocks = std::max(all.kvPeakBlocks, run.kvPeakBlocks);
        all.kvHeldBack += run.kvHeldBack;
        all.preemptions += run.preemptions;
    }
    return all;
}

/** Everything the traced arm leaves behind. */
struct TracedArm
{
    std::vector<obs::TraceEvent> events;
    obs::MetricsSnapshot before, after;
    uint64_t llmLaunches = 0, ssmLaunches = 0, poolJobs = 0;
    std::vector<double> fragmentation;
};

double
delta(const TracedArm &a, const std::string &name)
{
    auto read = [&](const obs::MetricsSnapshot &s) -> double {
        if (const auto *c = s.findCounter(name))
            return static_cast<double>(c->value);
        if (const auto *g = s.findGauge(name))
            return static_cast<double>(g->value);
        return 0.0;
    };
    return read(a.after) - read(a.before);
}

/** One per-layer metric: where it comes from is in perLayer(); what it
 *  should move, and on which workload, is here. */
struct LayerMetric
{
    const char *name;
    const char *unit;
    /** True when no workload bypasses the layer and every workload
     *  has the samples for it: the per-layer metrics of
     *  BENCHMARK.json, in the result line of every traced run. The
     *  others are printed where their layer runs. */
    bool everyWorkload;
    const char *moves;
};

const LayerMetric kLayerMetrics[] = {
    {"core.speculate_ms_per_step", "ms", true,
     "tpot_p50_ms on chat-sim, decode-mem"},
    {"core.verify_ms_per_step", "ms", true,
     "tpot_p50_ms on chat-sim, decode-mem"},
    {"core.tree_nodes_per_step", "count", true,
     "tpot_p50_ms on chat-sim, decode-mem"},
    {"core.emitted_per_step", "count", true,
     "tpot_p50_ms on chat-sim, decode-mem"},
    {"core.accept_ratio", "ratio", true,
     "tpot_p50_ms on chat-sim, decode-mem"},
    {"core.llm_tokens_per_emitted", "ratio", true,
     "output_tok_s on decode-mem; tpot_p50_ms on chat-sim"},
    {"core.ssm_tokens_per_emitted", "ratio", true,
     "output_tok_s on decode-mem; tpot_p50_ms on chat-sim"},
    {"core.first_step_ms_p50", "ms", true,
     "ttft_p50_ms on rag-daemon"},
    {"model.tree_decode_ms_per_step", "ms", true,
     "tpot_p50_ms on chat-sim, decode-mem"},
    {"model.ms_per_llm_token", "ms", true,
     "tpot_p50_ms on chat-sim, decode-mem"},
    {"model.phase_ms_per_emitted.kv_gemm", "ms", true,
     "tpot_p50_ms on chat-sim; output_tok_s on decode-mem"},
    {"model.phase_ms_per_emitted.q_gemm", "ms", true,
     "tpot_p50_ms on chat-sim; output_tok_s on decode-mem"},
    {"model.phase_ms_per_emitted.attention", "ms", true,
     "tpot_p50_ms on chat-sim; output_tok_s on decode-mem; "
     "ttft_p50_ms on rag-daemon"},
    {"model.phase_ms_per_emitted.out_proj", "ms", true,
     "tpot_p50_ms on chat-sim; output_tok_s on decode-mem"},
    {"model.phase_ms_per_emitted.mlp_gemm", "ms", true,
     "tpot_p50_ms on chat-sim; output_tok_s on decode-mem"},
    {"model.phase_ms_per_emitted.lm_head", "ms", true,
     "tpot_p50_ms on chat-sim; output_tok_s on decode-mem"},
    {"model.kernel_launches_per_emitted", "count", true,
     "tpot_p50_ms on chat-sim"},
    {"model.prefix_adopted_share", "ratio", false,
     "ttft_p50_ms on rag-daemon"},
    {"tensor.gemm_gflops", "GFLOP/s", true,
     "tpot_p50_ms on chat-sim; output_tok_s on decode-mem"},
    {"tensor.weight_gb_s", "GB/s", true,
     "tpot_p50_ms on chat-sim; output_tok_s on decode-mem"},
    {"tensor.weight_bytes_per_emitted", "B", true,
     "tpot_p50_ms on chat-sim; output_tok_s on decode-mem"},
    {"util.pool_jobs_per_emitted", "count", true,
     "output_tok_s on decode-mem"},
    {"runtime.iteration_ms_p50", "ms", true,
     "tpot_p50_ms on all"},
    {"runtime.iteration_ms_p90", "ms", false,
     "tpot_p90_ms on all"},
    {"runtime.iteration_self_ms_mean", "ms", true,
     "tpot_p50_ms on rag-daemon"},
    {"runtime.batch_size_mean", "count", true,
     "output_tok_s on decode-mem, rag-daemon"},
    {"runtime.queue_wait_ms_p50", "ms", true,
     "ttft_p90_ms on chat-sim, rag-daemon"},
    {"runtime.queue_wait_ms_p90", "ms", false,
     "ttft_p90_ms on chat-sim, rag-daemon"},
    {"runtime.submit_us_p50", "us", false,
     "ttft_p50_ms on chat-sim"},
    {"runtime.kv_blocks_in_use_peak", "count", false,
     "output_tok_s, ttft_p90_ms on rag-daemon"},
    {"runtime.kv_held_back_requests", "count", false,
     "ttft_p50_ms, output_tok_s on rag-daemon"},
    {"runtime.kv_fragmentation_mean", "ratio", false,
     "output_tok_s, ttft_p90_ms on rag-daemon"},
    {"runtime.preemptions", "count", false,
     "output_tok_s, ttft_p90_ms on rag-daemon"},
    {"runtime.prefix_hit_ratio", "ratio", false,
     "ttft_p50_ms on rag-daemon"},
    {"runtime.journal_bytes_per_token", "B", false,
     "tpot_p50_ms on rag-daemon"},
    {"runtime.journal_appends_per_iteration", "count", false,
     "tpot_p50_ms on rag-daemon"},
    {"ipc.tick_ms_p50", "ms", false,
     "tpot_p50_ms, ttft_p50_ms on rag-daemon"},
    {"ipc.tick_self_ms_mean", "ms", false,
     "tpot_p50_ms, ttft_p50_ms on rag-daemon"},
    {"ipc.poll_us_p50", "us", false,
     "ttft_p50_ms on rag-daemon"},
    {"ipc.frames_per_request", "count", false,
     "tpot_p50_ms on rag-daemon"},
    {"ipc.bytes_per_token", "B", false,
     "tpot_p50_ms on rag-daemon"},
    {"ipc.ring_full_retries", "count", false,
     "tpot_p50_ms on rag-daemon"},
    {"ref.incr_tpot_p50_ms", "ms", true,
     "printed, not gated"},
    {"ref.incr_output_tok_s", "tok/s", true,
     "printed, not gated"},
    {"ref.spec_speedup", "x", true,
     "printed, not gated"},
    {"trace.tpot_overhead", "x", true,
     "tracing cost; traced over untraced tpot_p50_ms"},
};

/** GEMM FLOPs per token and weight bytes per forward of one model,
 *  computed from the tensor shapes: per layer the q/k/v/o
 *  projections (4 d^2) and the SwiGLU MLP (3 d ff), plus the LM
 *  head (d V). */
struct Shape
{
    double flopsPerToken;
    double weightBytes;
};

Shape
shapeOf(const model::ModelConfig &c)
{
    const double d = static_cast<double>(c.dModel);
    const double params =
        static_cast<double>(c.nLayers) *
            (4.0 * d * d + 3.0 * d * static_cast<double>(c.dFf)) +
        d * static_cast<double>(c.vocabSize);
    return {2.0 * params, 4.0 * params};
}

MetricMap
perLayer(const Models &models, const TracedArm &a,
         const Run &traced, bool in_process)
{
    using perfbench::Coverage;
    using perfbench::Interval;
    MetricMap out;
    const double emitted = delta(a, "engine_tokens_verified");

    std::vector<Interval> engine_spans, iteration_spans;
    std::vector<double> iteration_ms, batch, tick_ms, poll_us, submit_us;
    std::vector<Interval> ticks;
    std::map<uint64_t, double> queue_ms;
    struct FirstStep
    {
        uint64_t start = UINT64_MAX;
        uint64_t verifyEnd = 0;
    };
    std::map<uint64_t, FirstStep> first_step;
    double speculate_ns = 0, verify_ns = 0, decode_ns = 0;
    double steps = 0, decodes = 0, llm_tokens = 0;
    for (const obs::TraceEvent &e : a.events) {
        if (e.phase != 'X')
            continue;
        const Interval iv{e.startNanos, e.startNanos + e.durNanos};
        const std::string cat = e.category;
        if (cat == "engine") {
            engine_spans.push_back(iv);
            FirstStep &f = first_step[e.track];
            if (f.verifyEnd == 0)
                f.start = std::min(f.start, iv.start);
            if (e.name == "speculate")
                speculate_ns += static_cast<double>(e.durNanos);
            if (e.name == "verify") {
                verify_ns += static_cast<double>(e.durNanos);
                steps += 1;
                if (f.verifyEnd == 0)
                    f.verifyEnd = iv.end;
            }
            if (e.name == "tree_decode") {
                decode_ns += static_cast<double>(e.durNanos);
                decodes += 1;
                for (const auto &arg : e.args)
                    if (arg.first == "chunk")
                        llm_tokens += static_cast<double>(arg.second);
            }
        } else if (cat == "serving" && e.name == "iteration") {
            iteration_spans.push_back(iv);
            iteration_ms.push_back(static_cast<double>(e.durNanos) * 1e-6);
            for (const auto &arg : e.args)
                if (arg.first == "batch")
                    batch.push_back(static_cast<double>(arg.second));
        } else if (cat == "serving" && e.name == "queue") {
            queue_ms[e.track] += static_cast<double>(e.durNanos) * 1e-6;
        } else if (cat == "bench" && e.name == "tick") {
            ticks.push_back(iv);
            tick_ms.push_back(static_cast<double>(e.durNanos) * 1e-6);
        } else if (cat == "bench" && e.name == "poll") {
            poll_us.push_back(static_cast<double>(e.durNanos) * 1e-3);
        } else if (cat == "bench" && e.name == "submit") {
            submit_us.push_back(static_cast<double>(e.durNanos) * 1e-3);
        }
    }
    auto put = [&](const char *name, const char *unit, double v,
                   size_t n) { out[name] = {v, unit, n}; };
    const size_t n_steps = static_cast<size_t>(steps);

    if (steps > 0) {
        put("core.speculate_ms_per_step", "ms", speculate_ns * 1e-6 / steps,
            n_steps);
        put("core.verify_ms_per_step", "ms", verify_ns * 1e-6 / steps,
            n_steps);
        put("core.tree_nodes_per_step", "count",
            delta(a, "engine_tokens_proposed") / steps, n_steps);
        put("core.emitted_per_step", "count", emitted / steps, n_steps);
    }
    if (delta(a, "engine_tokens_proposed") > 0)
        put("core.accept_ratio", "ratio",
            delta(a, "engine_tokens_accepted") /
                delta(a, "engine_tokens_proposed"),
            n_steps);
    std::vector<double> first_ms;
    for (const auto &[track, f] : first_step)
        if (track != 0 && f.verifyEnd != 0)
            first_ms.push_back(
                static_cast<double>(f.verifyEnd - f.start) * 1e-6);
    putPercentile(out, "core.first_step_ms_p50", "ms", first_ms, 0.5);
    if (decodes > 0) {
        put("model.tree_decode_ms_per_step", "ms",
            decode_ns * 1e-6 / decodes, static_cast<size_t>(decodes));
        put("model.ms_per_llm_token", "ms", decode_ns * 1e-6 / llm_tokens,
            static_cast<size_t>(decodes));
    }

    const double ssm_tokens = delta(a, "engine_ssm_tokens");
    const double gemm_ns = delta(a, "model_kv_gemm_nanos") +
                           delta(a, "model_q_gemm_nanos") +
                           delta(a, "model_out_proj_nanos") +
                           delta(a, "model_mlp_gemm_nanos") +
                           delta(a, "model_lm_head_nanos");
    const Shape llm = shapeOf(models.llm.config());
    const Shape ssm = shapeOf(models.ssm.config());
    const double weight_bytes =
        static_cast<double>(a.llmLaunches) * llm.weightBytes +
        static_cast<double>(a.ssmLaunches) * ssm.weightBytes;
    const size_t n_emitted = static_cast<size_t>(emitted);
    if (emitted > 0) {
        put("core.llm_tokens_per_emitted", "ratio", llm_tokens / emitted,
            n_emitted);
        put("core.ssm_tokens_per_emitted", "ratio", ssm_tokens / emitted,
            n_emitted);
        static const std::pair<const char *, const char *> kPhases[] = {
            {"model.phase_ms_per_emitted.kv_gemm", "model_kv_gemm_nanos"},
            {"model.phase_ms_per_emitted.q_gemm", "model_q_gemm_nanos"},
            {"model.phase_ms_per_emitted.attention",
             "model_attention_nanos"},
            {"model.phase_ms_per_emitted.out_proj", "model_out_proj_nanos"},
            {"model.phase_ms_per_emitted.mlp_gemm", "model_mlp_gemm_nanos"},
            {"model.phase_ms_per_emitted.lm_head", "model_lm_head_nanos"},
        };
        for (const auto &[name, counter] : kPhases)
            put(name, "ms", delta(a, counter) * 1e-6 / emitted, n_emitted);
        put("model.kernel_launches_per_emitted", "count",
            delta(a, "model_kernel_launches") / emitted, n_emitted);
        put("tensor.weight_bytes_per_emitted", "B", weight_bytes / emitted,
            n_emitted);
        put("util.pool_jobs_per_emitted", "count",
            static_cast<double>(a.poolJobs) / emitted, n_emitted);
    }
    if (gemm_ns > 0) {
        const double flops = llm_tokens * llm.flopsPerToken +
                             ssm_tokens * ssm.flopsPerToken;
        put("tensor.gemm_gflops", "GFLOP/s", flops / gemm_ns,
            static_cast<size_t>(a.llmLaunches + a.ssmLaunches));
        put("tensor.weight_gb_s", "GB/s", weight_bytes / gemm_ns,
            static_cast<size_t>(a.llmLaunches + a.ssmLaunches));
    }

    putPercentile(out, "runtime.iteration_ms_p50", "ms", iteration_ms, 0.5);
    putPercentile(out, "runtime.iteration_ms_p90", "ms", iteration_ms, 0.9);
    {
        const Coverage engine(engine_spans);
        std::vector<double> self_ms;
        for (const Interval &iv : iteration_spans)
            self_ms.push_back(
                static_cast<double>(perfbench::selfNanos(iv, engine)) *
                1e-6);
        putMean(out, "runtime.iteration_self_ms_mean", "ms", self_ms);
    }
    putMean(out, "runtime.batch_size_mean", "count", batch);
    std::vector<double> queue;
    for (const auto &entry : queue_ms)
        queue.push_back(entry.second);
    putPercentile(out, "runtime.queue_wait_ms_p50", "ms", queue, 0.5);
    putPercentile(out, "runtime.queue_wait_ms_p90", "ms", queue, 0.9);
    if (in_process)
        putPercentile(out, "runtime.submit_us_p50", "us", submit_us, 0.5);

    if (traced.kvTotalBlocks > 0) {
        put("runtime.kv_blocks_in_use_peak", "count",
            static_cast<double>(traced.kvPeakBlocks), 1);
        put("runtime.kv_held_back_requests", "count",
            static_cast<double>(traced.kvHeldBack), traced.reqs.size());
        putMean(out, "runtime.kv_fragmentation_mean", "ratio",
                a.fragmentation);
        put("runtime.preemptions", "count",
            static_cast<double>(traced.preemptions), 1);
        const double hits = delta(a, "kv_prefix_hits");
        const double misses = delta(a, "kv_prefix_misses");
        if (hits + misses > 0)
            put("runtime.prefix_hit_ratio", "ratio",
                hits / (hits + misses), static_cast<size_t>(hits + misses));
    }
    if (!in_process) {
        if (emitted > 0)
            put("runtime.journal_bytes_per_token", "B",
                delta(a, "journal_bytes_written") / emitted, n_emitted);
        if (!iteration_spans.empty())
            put("runtime.journal_appends_per_iteration", "count",
                delta(a, "journal_appends") /
                    static_cast<double>(iteration_spans.size()),
                iteration_spans.size());
        putPercentile(out, "ipc.tick_ms_p50", "ms", tick_ms, 0.5);
        const Coverage iterations(iteration_spans);
        std::vector<double> self_ms;
        for (const Interval &iv : ticks)
            self_ms.push_back(static_cast<double>(
                                  perfbench::selfNanos(iv, iterations)) *
                              1e-6);
        putMean(out, "ipc.tick_self_ms_mean", "ms", self_ms);
        putPercentile(out, "ipc.poll_us_p50", "us", poll_us, 0.5);
        const Counts c = countRun(traced);
        if (c.succeeded > 0)
            put("ipc.frames_per_request", "count",
                delta(a, "ipc_frames_sent") /
                    static_cast<double>(c.succeeded),
                c.succeeded);
        if (emitted > 0)
            put("ipc.bytes_per_token", "B",
                delta(a, "ipc_bytes_sent") / emitted, n_emitted);
        put("ipc.ring_full_retries", "count",
            delta(a, "ipc_ring_full_retries"), 1);
    }
    return out;
}

// --- Fingerprint ------------------------------------------------------

std::string
cpuModel()
{
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    s.erase(0, s.find_first_not_of(' '));
    s.erase(s.find_last_not_of(' ') + 1);
    return s;
}

std::string
marchFlag()
{
    const std::string flags = PERFBENCH_CXX_FLAGS;
    const size_t at = flags.find("-march=");
    if (at == std::string::npos)
        return "none";
    return flags.substr(at, flags.find(' ', at) - at);
}

std::string
fingerprint(const Workload &w, const std::string &git_rev, bool dirty)
{
    auto kb = [](int name) {
        const long v = sysconf(name);
        return v > 0 ? v / 1024 : 0;
    };
    return std::string("{\"cpu\": ") + jsonString(cpuModel()) +
           ", \"cores\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"l2_kb\": " + std::to_string(kb(_SC_LEVEL2_CACHE_SIZE)) +
           ", \"l3_kb\": " + std::to_string(kb(_SC_LEVEL3_CACHE_SIZE)) +
           ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
           ", \"march\": " + jsonString(marchFlag()) +
           ", \"pool_threads\": " + std::to_string(w.poolThreads) +
           ", \"git_rev\": " + jsonString(git_rev) +
           ", \"git_dirty\": " + (dirty ? "true" : "false") + "}";
}

// --- Output -----------------------------------------------------------

void
printMetric(const char *kind, const std::string &name, const Value &v,
            const char *note = nullptr)
{
    std::printf("%s %-40s %14.6g %-8s (n=%zu)%s%s\n", kind, name.c_str(),
                v.value, v.unit.c_str(), v.samples, note ? "  moves " : "",
                note ? note : "");
}

std::string
resultLine(bool correct, size_t attempted, size_t failed,
           const MetricMap &metrics)
{
    std::string s = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, v] : metrics) {
        s += (first ? "" : ", ") + jsonString(name) + ": {\"value\": " +
             num(v.value) + ", \"unit\": " + jsonString(v.unit) + "}";
        first = false;
    }
    return s + "}}";
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out = ".bench_build/perfbench";
    std::string gitRev = "unknown";
    bool gitDirty = false;
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            fail("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = std::stoull(value);
        else if (flag == "--seconds")
            o.seconds = std::stod(value);
        else if (flag == "--trace")
            o.trace = value != "0";
        else if (flag == "--out")
            o.out = value;
        else if (flag == "--git-rev")
            o.gitRev = value;
        else if (flag == "--git-dirty")
            o.gitDirty = value != "0";
        else
            fail("unknown flag " + flag);
    }
    if (o.seconds <= 0.0)
        fail("--seconds must be positive");
    return o;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    const Workload *found = nullptr;
    for (const Workload &w : kWorkloads)
        if (opt.workload == w.name)
            found = &w;
    if (found == nullptr)
        fail("unknown --workload '" + opt.workload +
             "' (chat-sim, rag-daemon, decode-mem)");
    const Workload &w = *found;
    const std::string work =
        opt.out + "/run-" + std::to_string(::getpid());
    int dirs = 0;
    auto next_dir = [&] { return work + "/" + std::to_string(dirs++); };

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                w.name, static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0);
    std::printf("why %s\n", w.why);
    std::printf("fingerprint %s\n",
                fingerprint(w, opt.gitRev, opt.gitDirty).c_str());

    const std::vector<double> schedule =
        arrivalSchedule(w.ratePerS, opt.seconds, opt.seed);
    util::ThreadPool::global().setThreads(w.poolThreads);
    std::unique_ptr<Models> models = buildModels(w);
    Prompts prompts(w, models->llm.config().vocabSize, opt.seed,
                    w.loop == Loop::Open ? schedule.size() : w.corpus);
    std::unique_ptr<Target> target =
        makeTarget(w, *models, true, nullptr, next_dir());
    warmUp(w, *target, prompts, kHostWarmupS);

    // Set-up: pool, weight synthesis, engine, manager or daemon and
    // connected clients — everything before the first request can be
    // sent. Every speculative set-up is timed; setup_s is their median.
    // Memory freed by the last set-up goes back to the system first,
    // so each set-up's weights land on pages of their own.
    std::vector<double> setup_s;
    auto set_up = [&](bool speculative) {
        target.reset();
        models.reset();
        ::malloc_trim(0);
        const uint64_t t0 = nowNs();
        util::ThreadPool::global().setThreads(w.poolThreads);
        models = buildModels(w);
        target = makeTarget(w, *models, speculative, nullptr, next_dir());
        if (speculative)
            setup_s.push_back(seconds(nowNs() - t0));
    };
    double setup_total_s = 0.0;
    while (setup_s.size() < kMinSetups ||
           (setup_total_s < kSetupBudgetS && setup_s.size() < kMaxSetups)) {
        set_up(true);
        setup_total_s += setup_s.back();
    }

    // An untraced arm: kRounds rounds, each on a fresh set-up with its
    // own warm-up, serving the next stretch of the measured stream
    // (the next slice of the arrival schedule on the open loop).
    const double round_s = opt.seconds / static_cast<double>(kRounds);
    auto measure = [&](bool speculative) {
        std::vector<Run> rounds;
        size_t seq = 0;
        for (size_t k = 0; k < kRounds; ++k) {
            set_up(speculative);
            warmUp(w, *target, prompts);
            const std::vector<double> slice = scheduleSlice(
                schedule, static_cast<double>(k) * round_s,
                static_cast<double>(k + 1) * round_s);
            rounds.push_back(
                runLoad(w, *target, prompts, seq, round_s, slice, nullptr));
            seq += rounds.back().reqs.size();
        }
        target.reset();
        return rounds;
    };

    const std::vector<Run> spec_rounds = measure(true);
    const double rss_mb = peakRssMb();
    const bool open_loop = w.loop == Loop::Open;
    const MetricMap spec_e2e = endToEnd(spec_rounds, round_s, open_loop);
    const Run spec = merge(spec_rounds);
    // The last round's models serve the oracle and the traced arm.
    const std::unique_ptr<Models> reference = std::move(models);
    Oracle oracle(w, *reference, prompts, opt.seed);
    const uint64_t stride = w.memoryBound ? kMemOracleStride : 1;
    Run traced, incremental;
    std::vector<const Run *> runs = {&spec};
    bool correct = oracle.verify("spec", spec, stride);
    if (spec.kvTotalBlocks > 0)
        std::printf("kv arm=spec pool_blocks=%zu peak_blocks=%zu "
                    "held_back_requests=%zu preemptions=%zu (n=%zu)\n",
                    spec.kvTotalBlocks, spec.kvPeakBlocks, spec.kvHeldBack,
                    spec.preemptions, spec.reqs.size());
    MetricMap result;

    if (!opt.trace) {
        MetricMap m = spec_e2e;
        const Percentile setup = perfbench::percentile(setup_s, 0.5);
        m["setup_s"] = {*setup.value, "s", setup.samples};
        m["peak_rss_mb"] = {rss_mb, "MB", 1};
        for (const auto &[name, v] : m)
            printMetric("e2e", name, v);
        for (const char *name : kEndToEnd)
            if (m.count(name))
                result[name] = m.at(name);
    } else {
        // Traced pass: the untraced speculative arm above, a traced
        // speculative arm and an untraced incremental arm, over the
        // same request sequence.
        Probe probe;
        TracedArm arm;
        {
            obs::setGlobalObs(&probe.ctx);
            auto t =
                makeTarget(w, *reference, true, &probe.ctx, next_dir());
            warmUp(w, *t, prompts);
            probe.ctx.tracer().clear();
            arm.before = probe.ctx.metrics().snapshot();
            const uint64_t llm0 = reference->llm.kernelLaunches();
            const uint64_t ssm0 = reference->ssm.kernelLaunches();
            const uint64_t jobs0 =
                util::ThreadPool::global().jobsDispatched();
            traced =
                runLoad(w, *t, prompts, 0, opt.seconds, schedule, &probe);
            arm.after = probe.ctx.metrics().snapshot();
            arm.llmLaunches = reference->llm.kernelLaunches() - llm0;
            arm.ssmLaunches = reference->ssm.kernelLaunches() - ssm0;
            arm.poolJobs =
                util::ThreadPool::global().jobsDispatched() - jobs0;
            arm.fragmentation = probe.fragmentation;
            arm.events = probe.ctx.tracer().events();
            t.reset();
            obs::setGlobalObs(nullptr);
        }
        const std::vector<Run> incr_rounds = measure(false);
        incremental = merge(incr_rounds);
        runs.push_back(&traced);
        runs.push_back(&incremental);
        correct = correct && oracle.verify("traced", traced, stride) &&
                  oracle.verify("incremental", incremental,
                                kReferenceOracleStride) &&
                  crossCheck("traced", spec, traced, opt.seed) &&
                  crossCheck("incremental", spec, incremental, opt.seed);
        if (traced.kvTotalBlocks > 0) {
            std::printf("kv arm=traced pool_blocks=%zu peak_blocks=%zu "
                        "held_back_requests=%zu preemptions=%zu (n=%zu)\n",
                        traced.kvTotalBlocks, traced.kvPeakBlocks,
                        traced.kvHeldBack, traced.preemptions,
                        traced.reqs.size());
            // The pool is sized so admission waits for blocks at peak;
            // a run where it never did measured another workload.
            if (traced.kvHeldBack == 0) {
                std::printf("KV ADMISSION NEVER WAITED seed=%llu\n",
                            static_cast<unsigned long long>(opt.seed));
                correct = false;
            }
        }

        MetricMap layers =
            perLayer(*reference, arm, traced, w.loop != Loop::ClosedDaemon);
        if (traced.kvTotalBlocks > 0) {
            size_t prompt_tokens = 0;
            for (const Request &q : traced.reqs)
                if (q.ok)
                    prompt_tokens += prompts.prompt(q.promptIndex).size();
            layers["model.prefix_adopted_share"] = {
                delta(arm, "engine_prefill_skipped_tokens") /
                    static_cast<double>(prompt_tokens),
                "ratio", countRun(traced).succeeded};
        }
        const MetricMap traced_e2e =
            endToEnd({traced}, opt.seconds, open_loop);
        const MetricMap incr_e2e =
            endToEnd(incr_rounds, round_s, open_loop);
        // Each arm needs a successful request of two or more tokens.
        const MetricMap *const arm_e2e[] = {&spec_e2e, &traced_e2e,
                                            &incr_e2e};
        for (size_t i = 0; i < 3; ++i)
            if (!arm_e2e[i]->count("tpot_p50_ms") ||
                !arm_e2e[i]->count("output_tok_s")) {
                std::printf("NO TPOT arm=%s seed=%llu: no successful "
                            "request of two or more tokens\n",
                            kArmNames[i],
                            static_cast<unsigned long long>(opt.seed));
                correct = false;
            }
        if (correct) {
            const Value &spec_tpot = spec_e2e.at("tpot_p50_ms");
            const Value &incr_tpot = incr_e2e.at("tpot_p50_ms");
            const Value &traced_tpot = traced_e2e.at("tpot_p50_ms");
            layers["ref.incr_tpot_p50_ms"] = incr_tpot;
            layers["ref.incr_output_tok_s"] = incr_e2e.at("output_tok_s");
            layers["ref.spec_speedup"] = {incr_tpot.value / spec_tpot.value,
                                          "x", spec_tpot.samples};
            layers["trace.tpot_overhead"] = {
                traced_tpot.value / spec_tpot.value, "x",
                traced_tpot.samples};
        }

        const std::string artifacts = opt.out + "/" + w.name;
        std::filesystem::create_directories(artifacts);
        std::ofstream trace_out(artifacts + "/trace.json");
        probe.ctx.tracer().writeChromeTrace(trace_out);
        std::ofstream prom_out(artifacts + "/metrics.prom");
        obs::writePrometheus(arm.after, prom_out);
        std::printf("artifacts %s/trace.json %s/metrics.prom\n",
                    artifacts.c_str(), artifacts.c_str());

        for (const LayerMetric &lm : kLayerMetrics) {
            auto it = layers.find(lm.name);
            if (it == layers.end()) {
                std::printf("layer %-40s %14s %-8s (absent)\n", lm.name,
                            "-", lm.unit);
                continue;
            }
            printMetric("layer", lm.name, it->second, lm.moves);
            if (lm.everyWorkload)
                result[lm.name] = it->second;
        }
        for (const auto &[name, v] : spec_e2e)
            printMetric("untraced", name, v);
        for (const auto &[name, v] : traced_e2e)
            printMetric("traced", name, v);
    }

    size_t attempted = 0, failed = 0, client_errors = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
        const Counts c = countRun(*runs[i]);
        attempted += c.sent;
        failed += c.sent - c.succeeded;
        client_errors += runs[i]->clientErrors;
        std::printf("requests arm=%s sent=%zu succeeded=%zu failed=%zu "
                    "error_rate=%.6g\n",
                    kArmNames[i], c.sent, c.succeeded, c.sent - c.succeeded,
                    static_cast<double>(c.sent - c.succeeded) /
                        static_cast<double>(c.sent));
        const std::vector<double> &late = runs[i]->latenessMs;
        if (!late.empty())
            std::printf("generator arm=%s lateness_ms p50=%.6g max=%.6g "
                        "(n=%zu)\n",
                        kArmNames[i],
                        *perfbench::percentile(late, 0.5).value,
                        *std::max_element(late.begin(), late.end()),
                        late.size());
    }
    correct = correct && client_errors == 0;
    std::printf("oracle checked=%zu correct=%d\n", oracle.checked,
                correct ? 1 : 0);
    std::printf("%s\n",
                resultLine(correct, attempted, failed, result).c_str());
    std::fflush(stdout);
    std::filesystem::remove_all(work);
    return correct ? 0 : 3;
}
