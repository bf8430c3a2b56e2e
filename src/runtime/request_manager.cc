#include "runtime/request_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <tuple>
#include <type_traits>

#include "obs/obs.h"
#include "util/bytes.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace specinfer {
namespace runtime {

namespace {

// Serving-snapshot framing: magic, version, then the fields in
// writeSnapshot() order. The snapshot holds scheduler state and
// token-level sessions; KV rows are rebuilt from the tokens on load
// (SpecEngine::loadSession), and the journal holds the per-event
// records after it.
constexpr uint32_t kSnapMagic = 0x4e535053; // "SPSN", little-endian
constexpr uint32_t kSnapVersion = 9;
constexpr const char *kCorruptSnapshot = "corrupt serving snapshot";

void
writeRequest(util::ByteWriter &w, const Request &req)
{
    w.pod<uint64_t>(req.id);
    w.podVector<int>(req.prompt);
    w.pod<uint64_t>(req.arrivalIteration);
    w.pod<uint64_t>(req.maxNewTokens);
    w.pod<uint64_t>(req.deadlineIterations);
    w.pod<uint64_t>(req.deadlineNanos);
    w.pod<uint8_t>(static_cast<uint8_t>(req.priority));
    w.pod<uint64_t>(req.preemptionCount);
    w.pod<uint64_t>(req.earliestRestart);
}

Request
readRequest(util::ByteReader &r)
{
    Request req;
    req.id = r.pod<uint64_t>();
    req.prompt = r.podVector<int>();
    req.arrivalIteration = r.pod<uint64_t>();
    req.maxNewTokens = r.pod<uint64_t>();
    req.deadlineIterations = r.pod<uint64_t>();
    req.deadlineNanos = r.pod<uint64_t>();
    const uint8_t priority = r.pod<uint8_t>();
    SPECINFER_CHECK(priority < kPriorityCount, kCorruptSnapshot);
    req.priority = static_cast<Priority>(priority);
    req.preemptionCount = r.pod<uint64_t>();
    req.earliestRestart = r.pod<uint64_t>();
    return req;
}

void
writeResult(util::ByteWriter &w, const RequestResult &res)
{
    w.pod<uint64_t>(res.id);
    w.podVector<int>(res.tokens);
    core::writeSpecStats(w, res.stats);
    w.pod<uint8_t>(static_cast<uint8_t>(res.stopReason));
    w.pod<uint64_t>(res.arrivalIteration);
    w.pod<uint64_t>(res.startIteration);
    w.pod<uint64_t>(res.finishIteration);
    w.pod<uint64_t>(res.preemptions);
    w.pod<uint8_t>(static_cast<uint8_t>(res.priority));
}

RequestResult
readResult(util::ByteReader &r)
{
    RequestResult res;
    res.id = r.pod<uint64_t>();
    res.tokens = r.podVector<int>();
    res.stats = core::readSpecStats(r);
    const uint8_t stop = r.pod<uint8_t>();
    res.stopReason = static_cast<core::SpecSession::StopReason>(stop);
    res.arrivalIteration = r.pod<uint64_t>();
    res.startIteration = r.pod<uint64_t>();
    res.finishIteration = r.pod<uint64_t>();
    res.preemptions = r.pod<uint64_t>();
    const uint8_t priority = r.pod<uint8_t>();
    SPECINFER_CHECK(stop <= static_cast<uint8_t>(
                                core::SpecSession::StopReason::Shed) &&
                        priority < kPriorityCount,
                    kCorruptSnapshot);
    res.priority = static_cast<Priority>(priority);
    return res;
}

/**
 * The one victim order, for shedding a pending request and for
 * preempting an active one: the victim is the request with the
 * largest (class, id) key — lowest QoS class first (Batch before
 * Standard before Interactive), latest arrival within a class. Ids
 * grow with submission order, so the order is total, and a request
 * may only preempt one after it in this order: two requests never
 * evict each other forever.
 */
bool
victimLess(const Request &a, const Request &b)
{
    return std::tie(a.priority, a.id) < std::tie(b.priority, b.id);
}

} // namespace

RequestManager::RequestManager(const core::SpecEngine *engine,
                               ServingConfig cfg)
    : engine_(engine), cfg_(cfg), obs_(obs::resolveObs(cfg.obs)),
      backoffRng_(cfg.backoffJitterSeed)
{
    SPECINFER_CHECK(engine_ != nullptr, "null engine");
    SPECINFER_CHECK(cfg_.maxBatchSize > 0, "batch size must be >= 1");
    if (cfg_.kvPoolBlocks > 0)
        kvPool_ = std::make_unique<KvBlockAllocator>(
            cfg_.kvPoolBlocks, cfg_.kvBlockTokens, obs_);
    if (kvPool_ && cfg_.kvPrefixSharing) {
        const model::ModelConfig &mc = engine_->llm().config();
        prefixStore_ = std::make_unique<model::PrefixKvStore>(
            mc.nLayers, mc.dModel, cfg_.kvBlockTokens);
        // Accounting eviction drops the payload too — residency in
        // the store never outlives residency in the block table.
        kvPool_->setEvictionHook([this](uint64_t hash) {
            prefixStore_->evict(hash);
        });
    }
    if (obs_ != nullptr)
        // Millisecond buckets spanning sub-kernel ticks (ManualClock
        // tests) through multi-second straggler iterations.
        hIterMillis_ = obs_->metrics().histogram(
            "serving_iteration_millis",
            {0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
             500.0, 1000.0});
    // Baseline for pool_jobs_dispatched: the shared pool predates
    // the manager (and outlives it), so publish jobs dispatched
    // *during this serving run* rather than process lifetime —
    // keeping the gauge reproducible for identical workloads.
    poolJobsBaseline_ = util::ThreadPool::global().jobsDispatched();
    for (size_t cls = 0; cls < kPriorityCount; ++cls) {
        SPECINFER_CHECK(cfg_.classRefillEveryIterations[cls] > 0,
                        "class refill period must be >= 1");
        bucketLevel_[cls] = cfg_.classBucketCapacity[cls];
    }
}

RequestManager::IngressBucket
RequestManager::ingressBucket(size_t cls) const
{
    // Whole refill periods only, so chunked refills compose to
    // exactly the single-shot refill (replay at arbitrary points
    // lands on the same level).
    const uint64_t every = cfg_.classRefillEveryIterations[cls];
    const uint64_t periods =
        (stats_.iterations - bucketRefillIteration_[cls]) / every;
    return {std::min<uint64_t>(bucketLevel_[cls] + periods,
                               cfg_.classBucketCapacity[cls]),
            bucketRefillIteration_[cls] + periods * every};
}

SubmitResult
RequestManager::submit(std::vector<int> prompt,
                       size_t max_new_tokens,
                       size_t deadline_iterations,
                       Priority priority,
                       uint64_t deadline_nanos)
{
    SubmitResult out;
    // Unserveable requests are typed rejections, not aborts: an
    // overloaded or misused serving pipeline must shed, never die.
    if (!engine_->promptFits(prompt.size())) {
        out.reject = RejectReason::InvalidPrompt;
        ++stats_.rejectedNeverFits;
        return out;
    }
    // Per-class ingress metering (0 capacity = unmetered): an empty
    // bucket is overload for this class specifically — other
    // classes keep their own budget, so a Batch burst cannot drain
    // Interactive ingress. Only apply(Submit) takes the token:
    // rejected submits are not journaled, so they leave the bucket
    // as replay will find it.
    const size_t cls = static_cast<size_t>(priority);
    const IngressBucket bucket = ingressBucket(cls);
    if (cfg_.classBucketCapacity[cls] > 0 && bucket.level == 0) {
        out.retryAfterIterations = bucket.refillIteration +
                                   cfg_.classRefillEveryIterations[cls] -
                                   stats_.iterations;
        out.reject = RejectReason::Overloaded;
        ++stats_.rejectedOverloaded;
        return out;
    }
    Request req;
    req.prompt = std::move(prompt);
    req.maxNewTokens = max_new_tokens;
    // Consistent with the active policy: OnDemand admits with
    // one iteration's footprint, so judge feasibility by that,
    // not the worst case — under prefix sharing this is what
    // keeps a request with a large shared prefix and a small
    // unique suffix serveable. No resident-prefix credit
    // beyond that: a sequence of T tokens needs ceil(T/block)
    // *distinct* resident blocks no matter how many holders
    // share them, so anything past totalBlocks() can never be
    // admitted and crediting it would strand it in pending.
    const bool never_fits =
        kvPool_ != nullptr &&
        kvPool_->blocksFor(admissionTokens(req)) >
            kvPool_->totalBlocks();
    if (cfg_.maxPendingRequests > 0 &&
        pending_.size() >= cfg_.maxPendingRequests) {
        // Shed-under-pressure: a full queue yields to an arrival of
        // a strictly higher class than its victim by shedding the
        // victim; other arrivals (and unserveable ones — no point
        // displacing a viable request for them) are rejected.
        const auto victim =
            std::max_element(pending_.begin(), pending_.end(), victimLess);
        if (never_fits || victim->priority <= priority) {
            out.reject = RejectReason::QueueFull;
            ++stats_.rejectedQueueFull;
            return out;
        }
        commitFinish(victim->id, core::SpecSession::StopReason::Shed);
    }
    if (never_fits) {
        out.reject = RejectReason::NeverFits;
        ++stats_.rejectedNeverFits;
        return out;
    }
    JournalRecord rec;
    rec.type = RecordType::Submit;
    rec.id = nextId_;
    rec.arrivalIteration = stats_.iterations;
    rec.maxNewTokens = max_new_tokens;
    rec.deadlineIterations = deadline_iterations > 0
                                 ? deadline_iterations
                                 : cfg_.defaultDeadlineIterations;
    rec.deadlineNanos = deadline_nanos;
    if (rec.deadlineNanos == 0 &&
        cfg_.defaultWallDeadlineNanos > 0 && obs_ != nullptr)
        rec.deadlineNanos =
            obs_->nowNanos() + cfg_.defaultWallDeadlineNanos;
    rec.priority = static_cast<uint8_t>(priority);
    rec.prompt = std::move(req.prompt);
    commit(rec);
    out.id = rec.id;
    if (obs_ != nullptr && obs_->tracer().enabled()) {
        Request &queued = pending_.back();
        queued.submitNanos = obs_->nowNanos();
        obs_->tracer().instant(
            queued.id, "serving", "submit", queued.submitNanos,
            {{"prompt_tokens",
              static_cast<int64_t>(queued.prompt.size())}});
    }
    return out;
}

bool
RequestManager::busy() const
{
    return iter_.open || !pending_.empty() || !active_.empty();
}

double
RequestManager::kvFragmentation() const
{
    if (kvPool_ == nullptr)
        return 0.0;
    const size_t bt = cfg_.kvBlockTokens;
    size_t actual_private = 0;
    for (const ActiveRequest &ar : active_) {
        const size_t total = ar.session.sequence().size();
        const size_t shared =
            kvPool_->requestSharedHashes(ar.request.id).size() * bt;
        actual_private += total > shared ? total - shared : 0;
    }
    return kvPool_->fragmentation(actual_private);
}

size_t
RequestManager::admissionTokens(const Request &req) const
{
    if (cfg_.kvPolicy == KvReservationPolicy::OnDemand)
        return engine_->kvTokensFor(req.prompt.size());
    const size_t budget = req.maxNewTokens > 0
                              ? req.maxNewTokens
                              : engine_->config().maxNewTokens;
    return engine_->kvTokensFor(req.prompt.size() + budget);
}

uint64_t
RequestManager::admitKv(const Request &req,
                        core::SpecSession *session)
{
    PrefixMatch match;
    SPECINFER_CHECK(kvPool_->admit(req.id, req.prompt,
                                   admissionTokens(req),
                                   cfg_.kvPrefixSharing, &match),
                    "KV admission failed after canAdmit for "
                        << req.id);
    if (!prefixStore_)
        return 0;
    // Declare every own block so whichever session first has the
    // rows resident captures the payload (declare is idempotent).
    for (uint64_t hash : match.ownHashes)
        prefixStore_->declare(hash);
    session->enablePrefixSharing(prefixStore_.get());
    session->adoptPrefix(match.hashes, match.partialHash,
                         match.partialTokens);
    return match.partialHash;
}

void
RequestManager::settleCow(ActiveRequest &ar)
{
    if (ar.cowPending == 0 || !kvPool_)
        return;
    kvPool_->cowShared(ar.request.id, ar.cowPending);
    ar.cowPending = 0;
}

size_t
RequestManager::activeIndex(uint64_t id) const
{
    size_t i = 0;
    while (i < active_.size() && active_[i].request.id != id)
        ++i;
    return i;
}

size_t
RequestManager::pendingIndex(uint64_t id) const
{
    size_t j = 0;
    while (j < pending_.size() && pending_[j].id != id)
        ++j;
    return j;
}

RequestManager::RequestPhase
RequestManager::phase(uint64_t id) const
{
    if (activeIndex(id) < active_.size())
        return RequestPhase::Active;
    if (pendingIndex(id) < pending_.size())
        return RequestPhase::Pending;
    for (const RequestResult &res : finished_)
        if (res.id == id)
            return RequestPhase::Finished;
    return RequestPhase::Unknown;
}

std::vector<int>
RequestManager::generatedSoFar(uint64_t id) const
{
    for (const ActiveRequest &ar : active_)
        if (ar.request.id == id)
            return ar.session.generated();
    for (const RequestResult &res : finished_)
        if (res.id == id)
            return res.tokens;
    return {};
}

std::vector<RequestManager::InflightInfo>
RequestManager::inflight() const
{
    std::vector<InflightInfo> out;
    out.reserve(pending_.size() + active_.size());
    for (const Request &req : pending_)
        out.push_back({req.id, req.prompt, req.maxNewTokens,
                       req.priority});
    for (const ActiveRequest &ar : active_)
        out.push_back({ar.request.id, ar.request.prompt,
                       ar.request.maxNewTokens,
                       ar.request.priority});
    return out;
}

namespace {

/** KvAlloc fault key: one decision window per (request, iteration).
 *  Keyed (not stream-drawn) so the schedule is replay-stable — a
 *  recovered process re-running a torn step re-consults the same
 *  (id, iteration) and gets the same answer, and replayed steps
 *  that skip the consult cannot shift later decisions. Repeats
 *  within one iteration deliberately agree: allocation pressure is
 *  temporally correlated, not per-call coin flips. */
uint64_t
kvFaultKey(uint64_t id, uint64_t iteration)
{
    return (id + 1) * 0x9e3779b97f4a7c15ULL + iteration;
}

} // namespace

void
RequestManager::commit(const JournalRecord &rec)
{
    if (journal_)
        journal_->append(rec);
    apply(rec);
}

void
RequestManager::commitFinish(uint64_t id,
                             core::SpecSession::StopReason reason)
{
    JournalRecord rec;
    rec.type = RecordType::Finish;
    rec.id = id;
    rec.stopReason = static_cast<uint8_t>(reason);
    commit(rec);
    if (obs_ != nullptr && obs_->tracer().enabled()) {
        const RequestResult &res = finished_.back();
        obs_->tracer().instant(
            res.id, "serving", "finish", obs_->nowNanos(),
            {{"stop", static_cast<int64_t>(res.stopReason)},
             {"tokens", static_cast<int64_t>(res.tokens.size())}});
    }
}

void
RequestManager::retire(const Request &req,
                       const core::SpecSession *session,
                       size_t start_iteration,
                       core::SpecSession::StopReason reason)
{
    RequestResult res;
    res.id = req.id;
    if (session != nullptr) {
        // An aborted request keeps its partial output: with
        // deterministic per-request seeds this is always a prefix of
        // its full output.
        res.tokens = session->generated();
        res.stats = session->stats();
    }
    res.stopReason = reason;
    res.arrivalIteration = req.arrivalIteration;
    res.startIteration = start_iteration;
    res.finishIteration = stats_.iterations;
    res.preemptions = req.preemptionCount;
    res.priority = req.priority;
    stats_.tokensGenerated += res.tokens.size();
    ++stats_.requestsFinished;
    switch (reason) {
      case core::SpecSession::StopReason::Cancelled:
        ++stats_.cancellations;
        break;
      case core::SpecSession::StopReason::Deadline:
        ++stats_.deadlineExpiries;
        break;
      case core::SpecSession::StopReason::Shed:
        ++stats_.shedRequests;
        ++stats_.shedByClass[static_cast<size_t>(req.priority)];
        break;
      case core::SpecSession::StopReason::Preempted:
        // The preemption that exhausted the retry budget.
        ++res.preemptions;
        ++stats_.preemptions;
        ++stats_.preemptionAborts;
        break;
      default:
        break;
    }
    finished_.push_back(std::move(res));
}

void
RequestManager::preempt(size_t index)
{
    const uint64_t id = active_[index].request.id;
    if (cfg_.maxPreemptions > 0 &&
        active_[index].request.preemptionCount >= cfg_.maxPreemptions) {
        // Retry budget exhausted: fail cleanly instead of cycling
        // through the pool forever.
        commitFinish(id, core::SpecSession::StopReason::Preempted);
        return;
    }
    JournalRecord rec;
    rec.type = RecordType::Preempt;
    rec.id = id;
    commit(rec);
    if (obs_ != nullptr && obs_->tracer().enabled()) {
        // Restart the queue-wait clock: the next queue span covers
        // the backoff wait, not the request's whole lifetime.
        Request &req = pending_.front();
        req.submitNanos = obs_->nowNanos();
        obs_->tracer().instant(
            req.id, "serving", "preempt", req.submitNanos,
            {{"count", static_cast<int64_t>(req.preemptionCount)},
             {"backoff", static_cast<int64_t>(req.earliestRestart -
                                              stats_.iterations)}});
    }
    if (cfg_.maxPendingRequests > 0 &&
        pending_.size() > cfg_.maxPendingRequests) {
        // The requeue overflowed the bounded queue: shed the pending
        // victim to restore the bound.
        const auto victim =
            std::max_element(pending_.begin(), pending_.end(), victimLess);
        commitFinish(victim->id, core::SpecSession::StopReason::Shed);
    }
}

bool
RequestManager::deadlineExpired(const Request &req,
                                uint64_t now_nanos) const
{
    if (req.deadlineIterations > 0 &&
        stats_.iterations >=
            req.arrivalIteration + req.deadlineIterations)
        return true;
    // Wall-clock budget on the injectable clock, checked against
    // the once-per-iteration reading: real stalls consume it even
    // while the iteration clock stands still.
    return req.deadlineNanos > 0 && obs_ != nullptr &&
           now_nanos >= req.deadlineNanos;
}

bool
RequestManager::cancel(uint64_t id)
{
    if (activeIndex(id) == active_.size() &&
        pendingIndex(id) == pending_.size())
        return false;
    commitFinish(id, core::SpecSession::StopReason::Cancelled);
    return true;
}

DegradationState
RequestManager::updateDegradation(size_t iteration) const
{
    DegradationState next = degr_;
    if (cfg_.degradeAfterConsecutiveFaults == 0 ||
        !iter_.speculationRan)
        return next;
    if (iter_.faultSeen) {
        next.cleanIterations = 0;
        if (++next.consecutiveFaults <
            cfg_.degradeAfterConsecutiveFaults)
            return next;
        next.currentBackoff =
            next.currentBackoff == 0
                ? cfg_.degradeBackoffIterations
                : std::min(next.currentBackoff * 2,
                           kDegradeBackoffMax);
        next.reenableIteration = iteration + next.currentBackoff;
        next.speculationDisabled = true;
        ++next.disableEpisodes;
        next.consecutiveFaults = 0;
        SPECINFER_WARN("degradation: speculation disabled for "
                       << next.currentBackoff
                       << " iterations after repeated SSM faults");
    } else {
        next.consecutiveFaults = 0;
        // A fault-free stretch as long as the trigger resets the
        // backoff ladder.
        if (++next.cleanIterations >=
            cfg_.degradeAfterConsecutiveFaults)
            next.currentBackoff = 0;
    }
    return next;
}

void
RequestManager::forceDegrade(size_t backoff_iterations)
{
    if (backoff_iterations == 0 || crashed_)
        return;
    JournalRecord rec;
    rec.type = RecordType::Degrade;
    rec.degradeBackoff = backoff_iterations;
    commit(rec);
}

void
RequestManager::admitPending()
{
    // Static batching only admits into an idle engine; continuous
    // batching admits whenever a slot is free. With a KV pool,
    // admission additionally requires a memory reservation.
    if (cfg_.policy == SchedulingPolicy::Static && !active_.empty())
        return;
    while (active_.size() < cfg_.maxBatchSize) {
        // Priority-aware head-of-line: the highest class admits
        // first (queue order within a class), so an Interactive
        // arrival overtakes queued Batch work. Preempted requests
        // in their backoff window are skipped (later arrivals may
        // overtake them) but keep their eviction priority; with
        // every request in the default class this degenerates to
        // the original FCFS scan.
        size_t j = pending_.size();
        for (size_t k = 0; k < pending_.size(); ++k) {
            if (pending_[k].earliestRestart > stats_.iterations)
                continue;
            if (j == pending_.size() ||
                pending_[k].priority < pending_[j].priority)
                j = k;
        }
        if (j == pending_.size())
            break;
        const Request &cand = pending_[j];
        if (kvPool_) {
            // A full pool at the admission probe is routine
            // backpressure, not an allocation failure: gate on the
            // read-only check so kv_alloc_failures counts genuine
            // exhaustion events (see the on-demand growth path),
            // never head-of-line waiting.
            if (!kvPool_->canAdmit(cand.id, cand.prompt,
                                   admissionTokens(cand),
                                   cfg_.kvPrefixSharing))
                break; // pool full; retry next iteration
            // An injected allocation fault still delays admission
            // exactly like pool pressure would.
            if (util::faultAtKeyed(
                    util::FaultPoint::KvAlloc,
                    kvFaultKey(cand.id, stats_.iterations)))
                break;
        }
        if (obs_ != nullptr && obs_->tracer().enabled() &&
            cand.submitNanos != 0)
            // Queue wait ends at admission; re-admissions after a
            // preemption produce a second queue span.
            obs_->tracer().span(
                cand.id, "serving", "queue", cand.submitNanos,
                obs_->nowNanos(),
                {{"preemptions",
                  static_cast<int64_t>(cand.preemptionCount)}});
        // Admit is the one record completed by applying it: the
        // prefix rows the new session adopts come from the live
        // payload store, which a recovering manager does not have,
        // so the adopted level is journaled for replay to recompute
        // up to (see recover()).
        JournalRecord rec;
        rec.type = RecordType::Admit;
        rec.id = cand.id;
        apply(rec);
        rec.adoptedTokens = active_.back().session.cachedTokens();
        if (journal_)
            journal_->append(rec);
        if (rec.adoptedTokens > 0 && obs_ != nullptr &&
            obs_->tracer().enabled())
            obs_->tracer().instant(
                rec.id, "serving", "prefix_adopt", obs_->nowNanos(),
                {{"tokens", static_cast<int64_t>(rec.adoptedTokens)}});
    }
}

void
RequestManager::beginIteration()
{
    // One wall-clock reading per iteration, which apply(Begin)
    // stores: every wall-deadline decision this iteration compares
    // against it, keeping the number of clock reads independent of
    // queue contents (a ManualClock schedule stays aligned across
    // recovery).
    const uint64_t now = obs_ != nullptr ? obs_->nowNanos() : 0;
    // Requests whose deadline expired while queued fail before
    // consuming a batch slot.
    for (size_t j = 0; j < pending_.size();) {
        if (deadlineExpired(pending_[j], now))
            commitFinish(pending_[j].id,
                         core::SpecSession::StopReason::Deadline);
        else
            ++j;
    }
    admitPending();
    JournalRecord rec;
    rec.type = RecordType::Begin;
    rec.iteration = stats_.iterations;
    rec.iterNanos = now;
    // Injected straggler: the iteration clock jumps forward,
    // consuming deadline budget exactly as a slow iteration would.
    rec.iterSlow = !active_.empty() &&
                   util::faultAt(util::FaultPoint::SlowIteration);
    commit(rec);
}

bool
RequestManager::stepActive(size_t index, bool allow_speculation)
{
    core::SpecSession &session = active_[index].session;
    const size_t seq_before = session.sequence().size();
    const size_t generated_before = session.logProbs().size();
    session.step(allow_speculation);
    const std::vector<int> &seq = session.sequence();
    const std::vector<float> &lps = session.logProbs();
    JournalRecord rec;
    rec.type = RecordType::Step;
    rec.id = active_[index].request.id;
    rec.tokens.assign(seq.begin() + static_cast<ptrdiff_t>(seq_before),
                      seq.end());
    rec.logProbs.assign(
        lps.begin() + static_cast<ptrdiff_t>(generated_before),
        lps.end());
    rec.step = session.stats().steps.back();
    rec.rngAfter = session.rngCursor();
    rec.sessionDone = session.done();
    rec.stopReason = static_cast<uint8_t>(session.stopReason());
    // Crash points around the write-ahead append. Before: the
    // process dies *during* the append, leaving a torn record (the
    // step is lost and will recompute deterministically after
    // recovery). After: the record is durable but nothing past it
    // is — the worst case for replay, the step committed to the
    // journal only.
    const bool torn = journal_ && util::faultAt(util::FaultPoint::Crash);
    if (torn)
        journal_->tearNextAppend();
    commit(rec);
    if (stepObserver_ && !rec.tokens.empty())
        stepObserver_(rec.id, generated_before, rec.tokens);
    if (torn || (journal_ && util::faultAt(util::FaultPoint::Crash))) {
        noteCrash();
        return false;
    }
    return true;
}

void
RequestManager::commitIteration()
{
    JournalRecord rec;
    rec.type = RecordType::Iteration;
    rec.iteration = stats_.iterations + 1;
    commit(rec);
    // Opt-in durability: harden the whole iteration's records at
    // the commit boundary (one fdatasync per iteration, not per
    // record — see ServingConfig::journalFsync).
    if (journal_ && cfg_.journalFsync)
        journal_->sync();
}

void
RequestManager::runIteration()
{
    if (crashed_)
        return;
    // Crash point: a clean crash at an iteration boundary (all
    // journal records of the previous iteration committed). Only
    // live with a journal attached — a crash without one is
    // unrecoverable and outside the model.
    if (journal_ && util::faultAt(util::FaultPoint::Crash)) {
        noteCrash();
        return;
    }
    // An iteration is already open only when recovery applied its
    // Begin but not its commit: resume it instead of beginning a
    // new one.
    if (!iter_.open)
        beginIteration();
    const uint64_t iter_start = nowNanos_;

    // One decoding iteration per active request (iteration-level
    // scheduling: requests at different progress advance together).
    // Under on-demand paging a request's growth may exhaust the
    // pool mid-flight; the active victim is then preempted and
    // restarted later (vLLM-style recompute), within its retry
    // budget.
    const bool allow_spec = !degr_.speculationDisabled;
    for (size_t i = 0; i < active_.size();) {
        // Already stepped in this (resumed) iteration.
        if (active_[i].steppedThisIteration) {
            ++i;
            continue;
        }
        const uint64_t id = active_[i].request.id;
        if (deadlineExpired(active_[i].request, nowNanos_)) {
            commitFinish(id, core::SpecSession::StopReason::Deadline);
            continue;
        }
        if (kvPool_ &&
            cfg_.kvPolicy == KvReservationPolicy::OnDemand) {
            const size_t need =
                engine_->kvTokensFor(active_[i].session.sequence().size());
            // canReserve gates the growth so backpressure resolved
            // by preemption never counts as an allocation failure;
            // an injected allocation fault is indistinguishable from
            // pool pressure. apply(Step) makes the reservation.
            auto can_grow = [&] {
                return kvPool_->canReserve(id, need) &&
                       !util::faultAtKeyed(
                           util::FaultPoint::KvAlloc,
                           kvFaultKey(id, stats_.iterations));
            };
            bool ok = can_grow();
            while (!ok) {
                // Only a victim after this request in victim order
                // may go; the largest key is one whenever any is.
                const auto victim = std::max_element(
                    active_.begin(), active_.end(),
                    [](const ActiveRequest &a, const ActiveRequest &b) {
                        return victimLess(a.request, b.request);
                    });
                if (!victimLess(active_[i].request, victim->request))
                    break;
                // Release its memory and requeue it for a fresh
                // (recomputed) start; seeding by request id keeps
                // its eventual output identical.
                const size_t erased =
                    static_cast<size_t>(victim - active_.begin());
                preempt(erased);
                if (erased < i)
                    --i; // our element shifted left
                ok = can_grow();
            }
            if (!ok) {
                // Genuine exhaustion: no victim left to preempt and
                // the pool still cannot grow this request. Count the
                // failure exactly once (an injected fault with a
                // non-exhausted pool counts nothing).
                if (!kvPool_->canReserve(id, need))
                    (void)kvPool_->reserve(id, need);
                // Last resort: preempt this request itself (it will
                // restart when memory frees, or fail cleanly once
                // its retry budget runs out).
                preempt(i);
                continue;
            }
        }
        if (!stepActive(i, allow_spec))
            return;
        ++i;
    }

    // Retire finished requests; their slots free up immediately.
    for (size_t i = 0; i < active_.size();) {
        if (active_[i].session.done())
            commitFinish(active_[i].request.id,
                         active_[i].session.stopReason());
        else
            ++i;
    }

    // Crash point: everything this iteration journaled but its
    // commit — recovery leaves the iteration open, the next
    // runIteration resumes and commits it, so even wall-clock
    // deadlines land at the same session progress as the
    // uninterrupted run.
    if (journal_ && util::faultAt(util::FaultPoint::Crash)) {
        noteCrash();
        return;
    }
    const size_t batch = iter_.batch;
    commitIteration();
    if (obs_ == nullptr)
        return;
    const uint64_t end = obs_->nowNanos();
    hIterMillis_->observe(static_cast<double>(end - iter_start) /
                          1.0e6);
    if (obs_->tracer().enabled())
        obs_->tracer().span(
            0, "serving", "iteration", iter_start, end,
            {{"batch", static_cast<int64_t>(batch)},
             {"iteration", static_cast<int64_t>(stats_.iterations)}});
    publishMetrics();
}

void
RequestManager::runUntilDrained()
{
    while (busy() && !crashed_)
        runIteration();
}

std::vector<RequestResult>
RequestManager::takeFinished()
{
    std::vector<RequestResult> out = std::move(finished_);
    finished_.clear();
    return out;
}

void
RequestManager::noteCrash()
{
    crashed_ = true;
    if (obs_ == nullptr)
        return;
    // Crashes are event-time counters, never gauge-synced: a
    // recovered manager has no memory of dying, so the count must
    // survive in the registry, not in ServingStats.
    obs_->metrics().counter("serving_crashes")->inc();
    if (obs_->tracer().enabled())
        obs_->tracer().instant(0, "serving", "crash",
                               obs_->nowNanos());
    publishMetrics();
}

void
RequestManager::publishMetrics()
{
    if (obs_ == nullptr)
        return;
    obs::MetricsRegistry &reg = obs_->metrics();
    auto set = [&reg](const char *name, size_t value) {
        reg.gauge(name)->set(static_cast<int64_t>(value));
    };
    set("serving_pending_requests", pending_.size());
    set("serving_active_requests", active_.size());
    set("serving_iterations", stats_.iterations);
    set("serving_requests_submitted", stats_.requestsSubmitted);
    set("serving_requests_finished", stats_.requestsFinished);
    set("serving_tokens_generated", stats_.tokensGenerated);
    set("serving_request_iterations", stats_.requestIterations);
    set("serving_preemptions", stats_.preemptions);
    set("serving_preemption_retries", stats_.preemptionRetries);
    set("serving_preemption_aborts", stats_.preemptionAborts);
    set("serving_rejected_queue_full", stats_.rejectedQueueFull);
    set("serving_rejected_never_fits", stats_.rejectedNeverFits);
    set("serving_shed_requests", stats_.shedRequests);
    set("serving_rejected_overloaded", stats_.rejectedOverloaded);
    set("serving_shed_by_class_interactive",
        stats_.shedByClass[static_cast<size_t>(
            Priority::Interactive)]);
    set("serving_shed_by_class_standard",
        stats_.shedByClass[static_cast<size_t>(Priority::Standard)]);
    set("serving_shed_by_class_batch",
        stats_.shedByClass[static_cast<size_t>(Priority::Batch)]);
    set("serving_deadline_expiries", stats_.deadlineExpiries);
    set("serving_cancellations", stats_.cancellations);
    set("serving_fallback_steps", stats_.fallbackSteps);
    set("serving_degraded_iterations", stats_.degradedIterations);
    set("serving_slow_iterations", stats_.slowIterations);
    set("serving_speculation_disabled",
        degr_.speculationDisabled ? 1 : 0);
    // The util layer is obs-free by design; the pool self-counts
    // its jobs and the manager publishes the count here.
    util::ThreadPool &pool = util::ThreadPool::global();
    set("pool_threads", pool.threads());
    set("pool_jobs_dispatched",
        static_cast<size_t>(pool.jobsDispatched() -
                            poolJobsBaseline_));
    if (kvPool_)
        kvPool_->publishUsage();
}

uint8_t
RequestManager::ssmPrecision() const
{
    const std::vector<const model::Transformer *> ssms =
        engine_->ssms();
    return static_cast<uint8_t>(ssms.empty()
                                    ? model::Precision::Fp32
                                    : ssms.front()->config().precision);
}

uint8_t
RequestManager::tpDegree() const
{
    return static_cast<uint8_t>(engine_->llm().config().tensorParallel);
}

void
RequestManager::attachJournal(JournalWriter *journal)
{
    journal_ = journal;
    if (journal_ == nullptr)
        return;
    const core::EngineConfig &ecfg = engine_->config();
    const std::vector<const model::Transformer *> ssms =
        engine_->ssms();
    JournalRecord rec;
    rec.type = RecordType::Header;
    rec.llm = engine_->llm().config().name;
    rec.ssmLayers = ssms.empty() ? 0 : ssms.front()->config().nLayers;
    rec.ssmPrecision = ssmPrecision();
    rec.expansion = ecfg.spec.expansion.toString();
    rec.seed = ecfg.seed;
    rec.engineMaxNewTokens = ecfg.maxNewTokens;
    rec.temperature = ecfg.llmSampling.temperature;
    rec.maxBatchSize = cfg_.maxBatchSize;
    rec.tpDegree = tpDegree();
    journal_->append(rec);
}

template <typename Self, typename Visit>
void
RequestManager::visitSnapshotScalars(Self &self, Visit &&visit)
{
    visit(self.nextId_);
    auto &st = self.stats_;
    for (auto *field :
         {&st.iterations, &st.requestsSubmitted, &st.requestsFinished,
          &st.tokensGenerated, &st.requestIterations, &st.preemptions,
          &st.lastBatchSize, &st.rejectedQueueFull,
          &st.rejectedNeverFits, &st.shedRequests,
          &st.deadlineExpiries, &st.cancellations, &st.fallbackSteps,
          &st.degradedIterations, &st.preemptionRetries,
          &st.preemptionAborts, &st.slowIterations,
          &st.rejectedOverloaded})
        visit(*field);
    // Per-class ingress buckets: levels and refill cursors, so a
    // recovered manager meters exactly where the crashed one left
    // off (replayed Submits then re-consume on top).
    for (size_t cls = 0; cls < kPriorityCount; ++cls) {
        visit(st.shedByClass[cls]);
        visit(self.bucketLevel_[cls]);
        visit(self.bucketRefillIteration_[cls]);
    }
    auto &degr = self.degr_;
    visit(degr.speculationDisabled);
    for (auto *field :
         {&degr.consecutiveFaults, &degr.cleanIterations,
          &degr.currentBackoff, &degr.reenableIteration,
          &degr.disableEpisodes})
        visit(*field);
    // Open iteration: a snapshot taken between a mid-iteration
    // recovery and the next runIteration must hand the resumed
    // iteration its journaled clock reading and step evidence.
    visit(self.iter_.open);
    visit(self.iter_.batch);
    visit(self.iter_.speculationRan);
    visit(self.iter_.faultSeen);
    visit(self.nowNanos_);
}

void
RequestManager::writeSnapshot(std::ostream &out) const
{
    util::ByteWriter w;
    w.pod<uint32_t>(kSnapMagic);
    w.pod<uint32_t>(kSnapVersion);
    w.pod<uint64_t>(journal_ ? journal_->bytesWritten() : 0);
    w.pod<uint8_t>(ssmPrecision());
    w.pod<uint8_t>(tpDegree());
    visitSnapshotScalars(*this, [&w](const auto &field) {
        w.pod<uint64_t>(field);
    });
    // Backoff-jitter RNG cursor: recovery must resume with the same
    // draw sequence an uninterrupted run would have used, or
    // post-crash preemption windows (and thus token-identity)
    // diverge.
    util::writeRngState(w, backoffRng_.state());

    w.pod<uint64_t>(pending_.size());
    for (const Request &req : pending_)
        writeRequest(w, req);

    // Resident shared-block table, in hash order. Chain depth is
    // persisted (not re-derived) so restore order never matters —
    // eviction gaps can leave a child resident without its parent.
    if (kvPool_) {
        const auto &table = kvPool_->sharedTable();
        w.pod<uint64_t>(table.size());
        for (const auto &entry : table) {
            w.pod<uint64_t>(entry.first);
            w.pod<uint64_t>(entry.second.parent);
            w.pod<uint64_t>(entry.second.depth);
            w.podVector<int>(entry.second.tokens);
        }
    } else {
        w.pod<uint64_t>(0);
    }

    w.pod<uint64_t>(active_.size());
    for (const ActiveRequest &ar : active_) {
        const uint64_t id = ar.request.id;
        writeRequest(w, ar.request);
        w.pod<uint64_t>(ar.startIteration);
        // Exact pool holding, not a recomputed need: the restore
        // must reproduce live occupancy block-for-block.
        w.pod<uint64_t>(kvPool_ ? kvPool_->requestBlocks(id) : 0);
        w.podVector<uint64_t>(kvPool_
                                  ? kvPool_->requestSharedHashes(id)
                                  : std::vector<uint64_t>{});
        w.pod<uint64_t>(kvPool_ ? kvPool_->requestPartial(id) : 0);
        w.pod<uint64_t>(ar.cowPending);
        w.pod<uint8_t>(ar.steppedThisIteration ? 1 : 0);
        ar.session.save(w);
    }

    w.pod<uint64_t>(finished_.size());
    for (const RequestResult &res : finished_)
        writeResult(w, res);
    out.write(reinterpret_cast<const char *>(w.bytes().data()),
              static_cast<std::streamsize>(w.bytes().size()));
    SPECINFER_CHECK(out.good(), "snapshot write failed");
}

void
RequestManager::apply(const JournalRecord &rec)
{
    switch (rec.type) {
      case RecordType::Submit: {
        Request req;
        req.id = rec.id;
        req.prompt = rec.prompt;
        req.arrivalIteration = rec.arrivalIteration;
        req.maxNewTokens = rec.maxNewTokens;
        req.deadlineIterations = rec.deadlineIterations;
        req.deadlineNanos = rec.deadlineNanos;
        req.priority = static_cast<Priority>(rec.priority);
        // The iteration clock is the same on both paths, so the
        // refill lands on the same bucket level.
        const size_t cls = rec.priority;
        if (cfg_.classBucketCapacity[cls] > 0) {
            const IngressBucket bucket = ingressBucket(cls);
            bucketLevel_[cls] = bucket.level - (bucket.level > 0 ? 1 : 0);
            bucketRefillIteration_[cls] = bucket.refillIteration;
        }
        nextId_ = std::max(nextId_, rec.id + 1);
        pending_.push_back(std::move(req));
        ++stats_.requestsSubmitted;
        break;
      }

      case RecordType::Admit: {
        const size_t j = pendingIndex(rec.id);
        SPECINFER_CHECK(j < pending_.size(),
                        "journal admit for non-pending request "
                            << rec.id);
        Request req = std::move(pending_[j]);
        pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(j));
        if (req.preemptionCount > 0)
            ++stats_.preemptionRetries;
        core::SpecSession session = engine_->makeSession(
            req.prompt, req.id, req.maxNewTokens);
        // Deterministic eviction means the admit cannot fail in
        // replay where it succeeded live. Adoption is best-effort:
        // a cold store leaves the rows to recompute.
        const uint64_t cow_pending =
            kvPool_ ? admitKv(req, &session) : 0;
        active_.push_back({std::move(req), std::move(session),
                           stats_.iterations, cow_pending});
        break;
      }

      case RecordType::Begin:
        SPECINFER_CHECK(!iter_.open && rec.iteration == stats_.iterations,
                        "journal begins iteration " << rec.iteration
                                                    << " out of order");
        // Re-enable speculation once the backoff window has elapsed.
        if (degr_.speculationDisabled &&
            stats_.iterations >= degr_.reenableIteration) {
            degr_.speculationDisabled = false;
            SPECINFER_INFO("degradation: speculation re-enabled");
        }
        iter_.open = true;
        iter_.batch = active_.size();
        nowNanos_ = rec.iterNanos;
        if (rec.iterSlow) {
            ++stats_.slowIterations;
            stats_.iterations += cfg_.slowIterationPenalty;
        }
        break;

      case RecordType::Step: {
        const size_t idx = activeIndex(rec.id);
        SPECINFER_CHECK(idx < active_.size(),
                        "journal step for non-active request "
                            << rec.id);
        ActiveRequest &ar = active_[idx];
        if (kvPool_ &&
            cfg_.kvPolicy == KvReservationPolicy::OnDemand) {
            // The step's growth: its pre-step sequence's footprint.
            const size_t need = engine_->kvTokensFor(
                ar.session.sequence().size() - rec.tokens.size());
            SPECINFER_CHECK(kvPool_->reserve(rec.id, need),
                            "KV growth failed for " << rec.id);
        }
        // First write past the divergence point of a partially
        // shared block: release the shared reference — the private
        // block charged at admission owns those positions now.
        settleCow(ar);
        ar.steppedThisIteration = true;
        ++stats_.requestIterations;
        if (!rec.step.prefill && !degr_.speculationDisabled) {
            iter_.speculationRan = true;
            if (rec.step.fallback) {
                iter_.faultSeen = true;
                ++stats_.fallbackSteps;
            }
        }
        break;
      }

      case RecordType::Preempt: {
        const size_t idx = activeIndex(rec.id);
        SPECINFER_CHECK(idx < active_.size(),
                        "journal preempt for non-active request "
                            << rec.id);
        Request req = std::move(active_[idx].request);
        active_.erase(active_.begin() + static_cast<ptrdiff_t>(idx));
        if (kvPool_)
            kvPool_->release(req.id);
        ++stats_.preemptions;
        // Jittered exponential backoff on re-admission: a request
        // that keeps losing its memory waits out the contention
        // instead of immediately re-stealing what it just lost, and
        // the seeded jitter keeps a cohort of preempted requests
        // from re-colliding in lockstep.
        // One draw per preemption, here on both paths, keeps the RNG
        // cursor aligned across recovery.
        ++req.preemptionCount;
        req.earliestRestart =
            stats_.iterations +
            util::jitteredBackoff(backoffRng_, 1, req.preemptionCount,
                                  kPreemptBackoffCap);
        pending_.push_front(std::move(req));
        break;
      }

      case RecordType::Finish: {
        const auto reason =
            static_cast<core::SpecSession::StopReason>(rec.stopReason);
        const size_t idx = activeIndex(rec.id);
        if (idx < active_.size()) {
            const ActiveRequest &ar = active_[idx];
            if (kvPool_)
                kvPool_->release(rec.id);
            retire(ar.request, &ar.session, ar.startIteration, reason);
            active_.erase(active_.begin() +
                          static_cast<ptrdiff_t>(idx));
            break;
        }
        const size_t j = pendingIndex(rec.id);
        SPECINFER_CHECK(j < pending_.size(),
                        "journal finish for unknown request " << rec.id);
        retire(pending_[j], nullptr, stats_.iterations, reason);
        pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(j));
        break;
      }

      case RecordType::Iteration:
        SPECINFER_CHECK(iter_.open, "journal commits iteration "
                                        << rec.iteration
                                        << " that never began");
        if (iter_.batch > 0 && degr_.speculationDisabled)
            ++stats_.degradedIterations;
        degr_ = updateDegradation(rec.iteration);
        stats_.iterations = rec.iteration;
        stats_.lastBatchSize = iter_.batch;
        iter_ = OpenIteration{};
        for (ActiveRequest &ar : active_)
            ar.steppedThisIteration = false;
        break;

      case RecordType::Degrade:
        degr_.speculationDisabled = true;
        degr_.reenableIteration =
            std::max(degr_.reenableIteration,
                     stats_.iterations + rec.degradeBackoff);
        ++degr_.disableEpisodes;
        degr_.consecutiveFaults = 0;
        degr_.cleanIterations = 0;
        break;

      case RecordType::Header:
        break; // engine identity, for offline replay only
    }
}

uint64_t
RequestManager::recover(std::istream *snapshot, std::istream *journal)
{
    SPECINFER_CHECK(!crashed_ && stats_.iterations == 0 &&
                    pending_.empty() && active_.empty() &&
                    finished_.empty() && nextId_ == 1,
                    "recover() requires a freshly constructed "
                    "manager");
    uint64_t skip = 0;
    if (snapshot != nullptr) {
        const std::vector<uint8_t> bytes(
            (std::istreambuf_iterator<char>(*snapshot)),
            std::istreambuf_iterator<char>());
        // A short read or a count the bytes cannot hold fails the
        // reader, which then yields zeros and empty lists, so a
        // truncated or corrupted snapshot reaches a "corrupt serving
        // snapshot" check before anything loops or allocates on it.
        util::ByteReader r(bytes);
        const uint32_t magic = r.pod<uint32_t>();
        const uint32_t version = r.pod<uint32_t>();
        skip = r.pod<uint64_t>();
        const uint8_t snap_precision = r.pod<uint8_t>();
        const uint8_t snap_tp = r.pod<uint8_t>();
        SPECINFER_CHECK(r.ok() && magic == kSnapMagic, kCorruptSnapshot);
        SPECINFER_CHECK(version == kSnapVersion,
                        "unsupported snapshot version " << version);
        SPECINFER_CHECK(snap_precision == ssmPrecision(),
                        "snapshot was taken with SSM precision "
                            << unsigned(snap_precision)
                            << " but this manager's engine runs "
                            << unsigned(ssmPrecision())
                            << "; recovery must replay under the "
                               "same draft-model numerics");
        SPECINFER_CHECK(snap_tp == tpDegree(),
                        "snapshot was taken with tensor-parallel "
                        "degree "
                            << unsigned(snap_tp)
                            << " but this manager's engine runs "
                            << unsigned(tpDegree())
                            << "; recovery must replay under the "
                               "same sharded execution shape");
        visitSnapshotScalars(*this, [&r](auto &field) {
            field = static_cast<std::remove_reference_t<decltype(field)>>(
                r.pod<uint64_t>());
        });
        backoffRng_.setState(util::readRngState(r));

        // Every list element starts with at least one u64.
        const uint64_t n_pending = r.count(sizeof(uint64_t));
        for (uint64_t i = 0; i < n_pending; ++i)
            pending_.push_back(readRequest(r));

        const uint64_t n_shared = r.count(sizeof(uint64_t));
        SPECINFER_CHECK(n_shared == 0 || kvPool_ != nullptr,
                        "snapshot has shared blocks but this "
                        "manager has no KV pool");
        for (uint64_t i = 0; i < n_shared; ++i) {
            const uint64_t hash = r.pod<uint64_t>();
            const uint64_t parent = r.pod<uint64_t>();
            const uint64_t depth = r.pod<uint64_t>();
            std::vector<int> tokens = r.podVector<int>();
            SPECINFER_CHECK(r.ok(), kCorruptSnapshot);
            kvPool_->restoreSharedBlock(hash, parent, depth,
                                        std::move(tokens));
            // Declared but cold: payload rows are not persisted, so
            // adoption misses until some session republishes them.
            if (prefixStore_)
                prefixStore_->declare(hash);
        }

        const uint64_t n_active = r.count(sizeof(uint64_t));
        for (uint64_t i = 0; i < n_active; ++i) {
            Request req = readRequest(r);
            const uint64_t start_iter = r.pod<uint64_t>();
            const uint64_t held_blocks = r.pod<uint64_t>();
            const std::vector<uint64_t> shared_hashes =
                r.podVector<uint64_t>();
            const uint64_t partial = r.pod<uint64_t>();
            const uint64_t cow_pending = r.pod<uint64_t>();
            const bool stepped = r.pod<uint8_t>() != 0;
            // Checks the reader before it rebuilds any KV row.
            core::SpecSession session = engine_->loadSession(r);
            if (kvPool_) {
                for (uint64_t hash : shared_hashes)
                    kvPool_->restoreAcquire(req.id, hash, false);
                if (partial != 0)
                    kvPool_->restoreAcquire(req.id, partial, true);
                // reserve() counts the re-acquired shared blocks
                // toward the total, so this grows the holding by
                // exactly the snapshotted private blocks.
                if (held_blocks > 0)
                    SPECINFER_CHECK(
                        kvPool_->reserve(req.id,
                                         held_blocks *
                                             kvPool_->blockTokens()),
                        "snapshot KV restore failed for " << req.id);
            }
            if (prefixStore_)
                session.enablePrefixSharing(prefixStore_.get());
            active_.push_back({std::move(req), std::move(session),
                               start_iter, cow_pending, stepped});
        }

        const uint64_t n_finished = r.count(sizeof(uint64_t));
        for (uint64_t i = 0; i < n_finished; ++i)
            finished_.push_back(readResult(r));
        SPECINFER_CHECK(r.ok() && r.exhausted(), kCorruptSnapshot);
    }

    uint64_t replayed = 0;
    if (journal != nullptr) {
        if (skip > 0)
            journal->seekg(static_cast<std::streamoff>(skip),
                           std::ios::cur);
        JournalReader reader(*journal);
        JournalRecord rec;
        while (reader.next(rec)) {
            // The effect prelude, replay's only code of its own: the
            // crashed process executed this step, so restore its
            // tokens and RNG cursor instead of re-running the model,
            // and bring the KV cache to the level the live run held
            // after it, so the session does not repeat prefill
            // iterations (wall-clock deadlines would observe the
            // delay). A prefill chunk re-absorbs the same chunk; a
            // decode step leaves exactly the last token uncached
            // (the next step's tree root).
            if (rec.type == RecordType::Step) {
                const size_t idx = activeIndex(rec.id);
                SPECINFER_CHECK(idx < active_.size(),
                                "journal step for non-active request "
                                    << rec.id);
                core::SpecSession &session = active_[idx].session;
                session.restoreStep(
                    rec.tokens, rec.logProbs, rec.step, rec.rngAfter,
                    rec.sessionDone,
                    static_cast<core::SpecSession::StopReason>(
                        rec.stopReason));
                if (!rec.sessionDone)
                    session.hydrateKv(
                        rec.step.prefill
                            ? session.cachedTokens() +
                                  rec.step.llmChunkTokens
                            : session.sequence().size() - 1);
            }
            apply(rec);
            // The crashed process may have adopted shared prefix
            // rows from its warm store; the recovering store is
            // cold, so recompute up to the journaled adoption level
            // — identical rows, identical remaining prefill
            // iterations.
            if (rec.type == RecordType::Admit)
                active_.back().session.hydrateKv(rec.adoptedTokens);
        }
        replayed = reader.bytesConsumed();
    }

    if (obs_ != nullptr) {
        obs_->metrics().counter("serving_recoveries")->inc();
        if (obs_->tracer().enabled())
            obs_->tracer().instant(
                0, "serving", "recovered", obs_->nowNanos(),
                {{"snapshot_bytes", static_cast<int64_t>(skip)},
                 {"replayed_bytes",
                  static_cast<int64_t>(replayed)}});
        publishMetrics();
    }
    return skip + replayed;
}

JournalFile::JournalFile(RequestManager &manager, std::string path)
    : manager_(&manager), path_(std::move(path))
{
}

JournalFile::~JournalFile()
{
    if (syncFd_ >= 0)
        ::close(syncFd_);
}

bool
JournalFile::open(bool resume)
{
    std::ifstream in(path_, std::ios::binary);
    if (resume && in.good()) {
        std::stringstream journal;
        journal << in.rdbuf();
        const uint64_t size = journal.str().size();
        std::ifstream snap(path_ + ".snap", std::ios::binary);
        // A snapshot offset past the end (journal bytes lost with
        // the page cache) leaves nothing to cut.
        recovered_ = std::min(
            manager_->recover(snap.good() ? &snap : nullptr, &journal),
            size);
    }
    in.close();
    if (::truncate(path_.c_str(), static_cast<off_t>(recovered_)) !=
            0 &&
        errno != ENOENT)
        return false;
    out_.open(path_, std::ios::binary | std::ios::app);
    if (!out_.good())
        return false;
    writer_ = std::make_unique<JournalWriter>(out_, recovered_);
    if (manager_->config().journalFsync) {
        // Second descriptor on the same file: appends flush the
        // stream per record, so fdatasync here makes every
        // committed frame power-loss durable (DESIGN.md §5d).
        syncFd_ = ::open(path_.c_str(), O_WRONLY);
        if (syncFd_ >= 0)
            writer_->setSyncFd(syncFd_);
    }
    manager_->attachJournal(writer_.get());
    snapshot();
    return true;
}

void
JournalFile::snapshot()
{
    // Every record the snapshot's offset covers must be on disk
    // before the snapshot replaces the previous one.
    out_.flush();
    writer_->sync();
    const std::string snap = path_ + ".snap";
    const std::string tmp = snap + ".tmp";
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    manager_->writeSnapshot(out);
    out.close();
    SPECINFER_CHECK(!out.fail(), "cannot write snapshot '" << tmp << "'");
    if (manager_->config().journalFsync) {
        const int fd = ::open(tmp.c_str(), O_WRONLY);
        if (fd >= 0) {
            ::fdatasync(fd);
            ::close(fd);
        }
    }
    SPECINFER_CHECK(std::rename(tmp.c_str(), snap.c_str()) == 0,
                    "cannot replace snapshot '" << snap << "'");
}

} // namespace runtime
} // namespace specinfer
