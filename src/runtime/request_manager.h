/**
 * @file
 * Request manager with Orca-style continuous batching (paper §5.1).
 *
 * Scheduling is at *iteration* granularity: every call to
 * runIteration() admits pending requests into the active batch (up
 * to maxBatchSize), runs one speculate+verify iteration for every
 * active request, and retires requests that finished — so new
 * requests start decoding without waiting for the current batch to
 * drain, and finished requests leave immediately.
 *
 * The manager is event-sourced: every state change of an accepted
 * request — submit, admit, iteration begin, decode step, preempt,
 * finish, iteration commit — is a JournalRecord, and one transition
 * function, apply(), turns records into state. Live serving decides
 * with its policies, builds the record, appends it to the journal
 * (when one is attached) and applies it; recovery restores a
 * snapshot and only applies.
 */

#ifndef SPECINFER_RUNTIME_REQUEST_MANAGER_H
#define SPECINFER_RUNTIME_REQUEST_MANAGER_H

#include <cstddef>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/spec_engine.h"
#include "model/prefix_store.h"
#include "runtime/journal.h"
#include "runtime/kv_memory.h"
#include "runtime/request.h"

namespace specinfer {
namespace obs {
class HistogramMetric;
class ObsContext;
}
namespace runtime {

/** Batch admission policy. */
enum class SchedulingPolicy
{
    /** Orca-style continuous batching (paper §5.1): requests join
     *  and leave the batch at iteration granularity. */
    Continuous,

    /** Request-level static batching, the pre-Orca baseline: a
     *  batch is formed when the engine is idle and no request joins
     *  until the whole batch drains. */
    Static,
};

/** How KV memory is reserved for admitted requests. */
enum class KvReservationPolicy
{
    /** Reserve the worst-case footprint (prompt + full generation
     *  budget + one token tree) at admission; never preempts but
     *  wastes capacity (internal over-reservation). */
    WorstCase,

    /** Reserve blocks on demand as sequences grow (vLLM-style
     *  paging); admits more requests but may have to preempt and
     *  restart a victim (lowest class, latest arrival) on pool
     *  exhaustion. */
    OnDemand,
};

/** Cap on the exponential re-admission backoff after a preemption
 *  (iterations). */
inline constexpr size_t kPreemptBackoffCap = 64;

/** Cap on the degradation ladder's speculation-disable window
 *  (iterations). */
inline constexpr size_t kDegradeBackoffMax = 256;

/** Request manager configuration. */
struct ServingConfig
{
    /** Maximum number of requests decoded concurrently. */
    size_t maxBatchSize = 8;

    /** Admission policy. */
    SchedulingPolicy policy = SchedulingPolicy::Continuous;

    /** KV memory pool size in blocks; 0 disables memory-based
     *  admission control. */
    size_t kvPoolBlocks = 0;

    /** Tokens per KV block. */
    size_t kvBlockTokens = 16;

    /** Reservation policy when a pool is configured. */
    KvReservationPolicy kvPolicy = KvReservationPolicy::WorstCase;

    /**
     * Prefix sharing: intern full prompt blocks in the KV pool so
     * requests with a common prefix (system prompt, RAG context)
     * hold one physical block many times, and adopt already-computed
     * KV rows at admission instead of re-running prefill. Purely an
     * occupancy/latency optimization — outputs stay bit-identical
     * (chunk-layout invariance). Requires a KV pool.
     */
    bool kvPrefixSharing = false;

    // --- Robustness / graceful-degradation knobs ------------------

    /** Bounded pending queue: submit() rejects with
     *  RejectReason::QueueFull beyond this depth (0 = unbounded). */
    size_t maxPendingRequests = 0;

    /** Deadline applied to requests submitted without one
     *  (iterations since arrival; 0 = no default deadline). */
    size_t defaultDeadlineIterations = 0;

    /** Preemption/retry budget: a request preempted more than this
     *  many times fails cleanly with StopReason::Preempted instead
     *  of retrying forever (0 = unlimited retries). */
    size_t maxPreemptions = 0;

    /**
     * Seed of the RNG that jitters the preemption re-admission
     * backoff. Deterministic backoff makes every preempted request
     * re-collide in lockstep (they all wait exactly 2^k and storm
     * the pool together); a seeded jitter of up to half the base
     * window de-synchronizes them while keeping every test and
     * journal replay reproducible from the seed.
     */
    uint64_t backoffJitterSeed = 0x6a177e5ULL;

    /** Disable speculation after this many consecutive iterations
     *  with an injected speculator fault (0 = never degrade). */
    size_t degradeAfterConsecutiveFaults = 3;

    /** Initial speculation-disable window (iterations); doubles on
     *  each repeated degradation up to kDegradeBackoffMax. */
    size_t degradeBackoffIterations = 8;

    /** Iteration-clock penalty applied when an injected straggler
     *  (FaultPoint::SlowIteration) fires: the clock advances this
     *  many extra ticks, consuming deadline budget. */
    size_t slowIterationPenalty = 4;

    // --- QoS / overload knobs -------------------------------------

    /**
     * Per-class token-bucket ingress, indexed by runtime::Priority.
     * A submission consumes one token from its class bucket; an
     * empty bucket is a typed RejectReason::Overloaded with a
     * retry-after hint. 0 = class unmetered (the default). Buckets
     * refill on the iteration clock, so bucket state is a pure
     * function of journaled events and recovery replays admissions
     * identically.
     */
    size_t classBucketCapacity[kPriorityCount] = {0, 0, 0};

    /** Refill cadence per class: one token every this many
     *  iterations (>= 1). */
    size_t classRefillEveryIterations[kPriorityCount] = {1, 1, 1};

    /**
     * Wall-clock deadline applied to requests submitted without one,
     * relative to the submit-time clock reading (nanoseconds on the
     * injectable obs::Clock; 0 = none). Requires an ObsContext —
     * without a clock source wall-clock deadlines are inert.
     */
    uint64_t defaultWallDeadlineNanos = 0;

    /**
     * Opt-in durability: fdatasync the journal at iteration commit
     * (and snapshot) boundaries. Without it the write-ahead journal
     * survives process crashes — the kernel page cache holds every
     * flushed byte — but not power loss (DESIGN.md §5d). Requires
     * the journal writer to carry a sync fd (JournalWriter::
     * setSyncFd); a writer without one makes this a no-op.
     */
    bool journalFsync = false;

    /**
     * Observability context (non-owning). Resolved against the
     * process-global context at construction (obs::resolveObs); when
     * both are null the manager runs fully uninstrumented — no
     * clock reads, no atomics — and its outputs are bit-identical
     * to earlier PRs.
     */
    obs::ObsContext *obs = nullptr;
};

/** Aggregate serving metrics. */
struct ServingStats
{
    size_t iterations = 0;
    size_t requestsSubmitted = 0;
    size_t requestsFinished = 0;
    size_t tokensGenerated = 0;
    /** Sum over iterations of the active batch size. */
    size_t requestIterations = 0;
    /** Requests preempted and restarted due to KV pool pressure. */
    size_t preemptions = 0;
    /** Active batch size of the last committed iteration (0 = idle
     *  tick); lets callers price each iteration through a hardware
     *  model. */
    size_t lastBatchSize = 0;

    // --- Failure / degradation observability ----------------------

    /** submit() rejections: bounded queue at capacity. */
    size_t rejectedQueueFull = 0;
    /** submit() rejections: request can never be served (pool too
     *  small or invalid prompt). */
    size_t rejectedNeverFits = 0;
    /** Accepted-then-dropped pending requests (StopReason::Shed):
     *  a preemption requeue overflowed the bounded queue. */
    size_t shedRequests = 0;
    /** Requests that failed their iteration deadline. */
    size_t deadlineExpiries = 0;
    /** Client cancellations honored. */
    size_t cancellations = 0;
    /** Decode steps degraded to incremental by an injected
     *  speculator/verifier fault. */
    size_t fallbackSteps = 0;
    /** Iterations run with speculation disabled by the degradation
     *  ladder. */
    size_t degradedIterations = 0;
    /** Re-admissions of previously preempted requests. */
    size_t preemptionRetries = 0;
    /** Requests that exhausted their preemption budget and failed
     *  with StopReason::Preempted. */
    size_t preemptionAborts = 0;
    /** Injected straggler iterations (clock jumped forward). */
    size_t slowIterations = 0;
    /** submit() rejections: class token bucket empty (overload). */
    size_t rejectedOverloaded = 0;
    /** Shed requests broken down by QoS class (indexed by
     *  runtime::Priority); sums to shedRequests. */
    size_t shedByClass[kPriorityCount] = {0, 0, 0};

    double avgBatchSize() const
    {
        return iterations == 0
                   ? 0.0
                   : static_cast<double>(requestIterations) /
                         static_cast<double>(iterations);
    }
};

/**
 * Speculation-health state for the degradation ladder: repeated
 * consecutive SSM faults disable speculation for a backoff window
 * (doubling on each repeat); every iteration then decodes
 * incrementally — slower, never wrong. A fault-free stretch of the
 * same length resets the backoff to its initial value.
 */
struct DegradationState
{
    /** Speculation currently disabled (engine steps run with
     *  allow_speculation = false). */
    bool speculationDisabled = false;
    /** Consecutive speculation-enabled iterations with a fault. */
    size_t consecutiveFaults = 0;
    /** Consecutive speculation-enabled iterations without one. */
    size_t cleanIterations = 0;
    /** Current disable window; doubles each repeated degradation. */
    size_t currentBackoff = 0;
    /** Iteration at which speculation re-enables. */
    size_t reenableIteration = 0;
    /** Times the ladder has disabled speculation. */
    size_t disableEpisodes = 0;

    bool operator==(const DegradationState &) const = default;
};

/**
 * Schedules requests onto a SpecEngine with continuous batching.
 * Single-threaded by design: one manager models one serving
 * pipeline, matching the paper's per-pipeline latency experiments.
 */
class RequestManager
{
  public:
    /**
     * @param engine Non-owning engine shared by all requests.
     * @param cfg Scheduling configuration.
     */
    RequestManager(const core::SpecEngine *engine, ServingConfig cfg);

    const ServingConfig &config() const { return cfg_; }

    /**
     * Submit a request.
     *
     * Never aborts on a bad or unserveable request: load shedding
     * and unsatisfiable requests come back as a typed rejection
     * (SubmitResult::reject) so clients can retry elsewhere.
     *
     * @param max_new_tokens Per-request generation budget; 0 uses
     *        the engine default.
     * @param deadline_iterations Iteration-budget deadline; 0 uses
     *        ServingConfig::defaultDeadlineIterations (which may
     *        itself be 0 = no deadline).
     * @param priority QoS class: scheduling, shedding, and
     *        preemption order (Interactive > Standard > Batch).
     * @param deadline_nanos Absolute wall-clock deadline on the
     *        manager's obs::Clock (0 applies
     *        ServingConfig::defaultWallDeadlineNanos relative to
     *        now, when a clock is available).
     */
    SubmitResult submit(std::vector<int> prompt,
                        size_t max_new_tokens = 0,
                        size_t deadline_iterations = 0,
                        Priority priority = Priority::Standard,
                        uint64_t deadline_nanos = 0);

    /**
     * Cancel a pending or active request. The request finishes
     * immediately with StopReason::Cancelled and whatever tokens it
     * had generated (a prefix of its full output).
     * @return false when the id is unknown (already finished).
     */
    bool cancel(uint64_t id);

    /** True while any request is pending or running, or an
     *  iteration is open (recovery ended mid-iteration and its
     *  commit is still owed). */
    bool busy() const;

    /**
     * One iteration-level scheduling step: admit, decode one
     * iteration for each active request, retire finished requests.
     */
    void runIteration();

    /** Drive iterations until no request is pending or running. */
    void runUntilDrained();

    size_t pendingCount() const { return pending_.size(); }
    size_t activeCount() const { return active_.size(); }
    size_t iterationCount() const { return stats_.iterations; }
    const ServingStats &stats() const { return stats_; }

    /** Speculation-health state of the degradation ladder. */
    const DegradationState &degradation() const { return degr_; }

    /**
     * Externally push the degradation ladder: disable speculation
     * for `backoff_iterations` starting now. The daemon's watchdog
     * calls this on an iteration stall — a stall is evidence the
     * speculative path is sick even when no SSM fault fired, and
     * incremental decoding is the safe gear. Extends (never
     * shortens) an active disable window. Committed as a Degrade
     * record, so the window survives a crash.
     */
    void forceDegrade(size_t backoff_iterations);

    /** Results completed so far, in finish order. */
    const std::vector<RequestResult> &finished() const
    {
        return finished_;
    }

    /** Move out the finished results (clients draining output). */
    std::vector<RequestResult> takeFinished();

    // --- Streaming / daemon integration ---------------------------

    /**
     * Per-step token stream observer: called once per committed
     * decode step that produced tokens, with the request id, the
     * index of the first new generated token, and the new tokens
     * themselves (the Step record's tokens) — the hook the serving
     * daemon streams responses from. Fires only for live decode
     * steps, never during journal replay (a recovering daemon
     * re-streams from generatedSoFar() instead, which keeps the
     * stream idempotent). Pass nullptr to detach.
     */
    using StepObserver = std::function<void(
        uint64_t id, size_t start, const std::vector<int> &tokens)>;
    void setStepObserver(StepObserver observer)
    {
        stepObserver_ = std::move(observer);
    }

    /** Where a request currently lives. */
    enum class RequestPhase
    {
        Unknown,  ///< never submitted or already taken out
        Pending,  ///< queued
        Active,   ///< decoding
        Finished, ///< result available in finished()
    };
    RequestPhase phase(uint64_t id) const;

    /** Generated tokens so far for an active or finished request
     *  (empty for pending/unknown) — the resume path for clients
     *  reconnecting after a daemon restart. */
    std::vector<int> generatedSoFar(uint64_t id) const;

    /** Identity of every pending or active request. */
    struct InflightInfo
    {
        uint64_t id = 0;
        std::vector<int> prompt;
        size_t maxNewTokens = 0;
        Priority priority = Priority::Standard;
    };
    std::vector<InflightInfo> inflight() const;

    /**
     * Sync ServingStats, queue depths, and thread-pool job counts
     * into the serving_* / pool_* gauges. Gauge-sync (rather than
     * event-time increments) keeps metrics idempotent under journal
     * replay: a recovered manager republishes the same values an
     * uninterrupted run would. Called automatically at the end of
     * every runIteration() and recover(); safe to call any time.
     * No-op without an ObsContext.
     */
    void publishMetrics();

    /** KV memory pool, or nullptr when admission is unbounded. */
    const KvBlockAllocator *kvPool() const { return kvPool_.get(); }

    /**
     * Pool-level internal fragmentation right now: the fraction of
     * physical block capacity (each shared block counted once) not
     * backed by materialized tokens. Tokens covered by a request's
     * fully-shared blocks are excluded from its private total —
     * partial-match tokens are not, since their positions live in
     * private blocks. 0 without a pool.
     */
    double kvFragmentation() const;

    /** Prefix-block payload store, or nullptr when sharing is off. */
    const model::PrefixKvStore *prefixStore() const
    {
        return prefixStore_.get();
    }

    // --- Crash safety: write-ahead journal + snapshot/recover -----

    /**
     * Attach a write-ahead journal (non-owning; nullptr detaches).
     * Once attached, every record the manager applies — accepted
     * submit, admission, iteration begin, committed decode step
     * (verified tokens + post-step RNG cursor), preemption, finish,
     * committed iteration — is appended first, and the Crash fault
     * point becomes live inside runIteration() (see crashed()).
     * Attaching appends a Header record naming the engine and
     * serving shape, so every process generation's records are
     * preceded by the identity verify::replayJournal rebuilds.
     */
    void attachJournal(JournalWriter *journal);

    /**
     * Serialize the full scheduling state: iteration clock, stats,
     * degradation ladder, pending queue, active requests with their
     * token-level sessions (sequence, RNG, LLM cache level — no KV
     * rows), per-request KV pool holdings, and finished results.
     * The snapshot records the attached journal's current byte
     * offset, so recover() replays exactly the journal tail written
     * after this snapshot.
     */
    void writeSnapshot(std::ostream &out) const;

    /**
     * Rebuild pre-crash state on a *fresh* manager (same engine and
     * config as the crashed one — the caller's responsibility):
     * load the snapshot (if any), then apply the journal tail on
     * top of it through the same transition function live serving
     * uses. Replay re-runs no decode step: a Step record's tokens
     * and RNG cursor are restored into the session before it is
     * applied, and KV rows are recomputed to the level the live
     * run held, so recovered outputs are bit-identical to an
     * uninterrupted run. A torn tail record (crash mid-append) is
     * discarded, and the lost step simply recomputes
     * deterministically. When the journal ends inside an iteration,
     * that iteration stays open and the next runIteration() resumes
     * it. Replay appends nothing: snapshot right after recovering
     * (or keep appending to the same journal) before serving on.
     *
     * @param snapshot Snapshot stream, or nullptr to replay the
     *        whole journal from an empty manager. A truncated or
     *        corrupted snapshot fails one "corrupt serving
     *        snapshot" check.
     * @param journal Journal stream positioned at its first record,
     *        or nullptr to restore the snapshot alone.
     * @return Length in bytes of the valid journal prefix (skip +
     *         replayed records); callers resuming appends into the
     *         same file should truncate it to this length first.
     */
    uint64_t recover(std::istream *snapshot, std::istream *journal);

    /** True once an injected Crash fault halted runIteration();
     *  the manager must be abandoned and rebuilt via recover(). */
    bool crashed() const { return crashed_; }

  private:
    /** Tokens the active reservation policy requires at admission:
     *  the whole lifetime (prompt + generation budget) under
     *  WorstCase, the prompt's next iteration under OnDemand. */
    size_t admissionTokens(const Request &req) const;

    /** Admit the request's KV holding (shared chain + private
     *  blocks) and wire prefix adoption into the session. The
     *  caller must have checked canAdmit; aborts on failure. Returns
     *  the partial-match hash to release at first write (0 = none). */
    uint64_t admitKv(const Request &req, core::SpecSession *session);

    struct ActiveRequest
    {
        Request request;
        core::SpecSession session;
        size_t startIteration;
        /** Partial-match block awaiting copy-on-write: released after
         *  the request's first step writes past the divergence
         *  point (0 = none pending). */
        uint64_t cowPending = 0;
        /** Stepped in the open iteration (set by apply(Step),
         *  cleared by apply(Iteration)); a resumed iteration skips
         *  it. */
        bool steppedThisIteration = false;
    };

    /** Release a pending copy-on-write reference after the
     *  request's first step wrote past its divergence point. */
    void settleCow(ActiveRequest &ar);

    /** Preempt active_[index]: requeue it with backoff, or fail it
     *  cleanly when its retry budget is exhausted; sheds the pending
     *  victim if the requeue overflows a bounded queue. */
    void preempt(size_t index);

    /** Commit the Finish of a pending or active request. */
    void commitFinish(uint64_t id,
                      core::SpecSession::StopReason reason);

    /** Build the result of a request leaving the manager (output
     *  from its session, when it has one) and count its outcome. */
    void retire(const Request &req, const core::SpecSession *session,
                size_t start_iteration,
                core::SpecSession::StopReason reason);

    /** True when the request's iteration-budget deadline, or its
     *  wall-clock deadline at the iteration's clock reading
     *  `now_nanos`, has passed. */
    bool deadlineExpired(const Request &req, uint64_t now_nanos) const;

    /** A class's ingress bucket refilled to the current iteration:
     *  its token level and refill cursor. */
    struct IngressBucket
    {
        uint64_t level;
        uint64_t refillIteration;
    };
    IngressBucket ingressBucket(size_t cls) const;

    /** The degradation ladder after the open iteration commits as
     *  `iteration`, fed by its step evidence. */
    DegradationState updateDegradation(size_t iteration) const;

    /** Start a fresh iteration: read the clock, fail queued
     *  requests whose deadline expired, admit into free slots,
     *  commit Begin. */
    void beginIteration();

    /** Admit pending requests into the free batch slots. */
    void admitPending();

    /** Step active_[index] once and commit its Step record; false
     *  when an injected crash halted the manager. */
    bool stepActive(size_t index, bool allow_speculation);

    /** Commit the open iteration (its apply advances the clock and
     *  the degradation ladder). */
    void commitIteration();

    /** Live path: append `rec` to the attached journal, then apply
     *  it. */
    void commit(const JournalRecord &rec);

    /**
     * The transition function: the only code that moves requests
     * between pending, active and finished, reserves and releases
     * KV, consumes ingress tokens, advances the iteration and wall
     * clocks and counts accepted requests in ServingStats. Live
     * serving and recovery both run it, record by record; every
     * scheduling decision is a read of the state it maintains.
     */
    void apply(const JournalRecord &rec);

    /** Visit every fixed-width scheduler field the snapshot holds,
     *  in format order: writeSnapshot() and recover() share this
     *  one list. */
    template <typename Self, typename Visit>
    static void visitSnapshotScalars(Self &self, Visit &&visit);

    /** Index of the active / pending request with this id, or the
     *  container size when there is none. */
    size_t activeIndex(uint64_t id) const;
    size_t pendingIndex(uint64_t id) const;

    /** Record an injected crash: serving_crashes counter plus a
     *  scheduler-track instant annotation. */
    void noteCrash();

    /**
     * The engine's execution shape, read from its models: the first
     * SSM's model::Precision (fp32 without an SSM) and the LLM's
     * tensor-parallel degree. The journal Header and snapshots
     * record both, and recover() refuses a snapshot taken under a
     * different shape: greedy verification makes final tokens
     * independent of SSM precision and the sharded forward is
     * bit-identical across degrees, but recovery is defined as
     * reproducing the crashed process's exact execution, not a near
     * miss of it.
     */
    uint8_t ssmPrecision() const;
    uint8_t tpDegree() const;

    const core::SpecEngine *engine_;
    ServingConfig cfg_;
    obs::ObsContext *obs_;             ///< resolved; may be null
    obs::HistogramMetric *hIterMillis_ = nullptr;
    /** Shared-pool job count at construction; pool_jobs_dispatched
     *  publishes the delta (jobs during this serving run). */
    uint64_t poolJobsBaseline_ = 0;
    uint64_t nextId_ = 1;
    std::deque<Request> pending_;
    std::vector<ActiveRequest> active_;
    std::vector<RequestResult> finished_;
    ServingStats stats_;
    DegradationState degr_;
    std::unique_ptr<KvBlockAllocator> kvPool_;
    /** Payload rows for shared prefix blocks (see model/
     *  prefix_store.h); non-null iff pool + kvPrefixSharing. */
    std::unique_ptr<model::PrefixKvStore> prefixStore_;
    JournalWriter *journal_ = nullptr;
    bool crashed_ = false;
    StepObserver stepObserver_;
    /** Preemption-backoff jitter source; state is snapshotted and
     *  apply(Preempt) draws on both paths, so recovery stays
     *  bit-identical. */
    util::Rng backoffRng_;
    /** Per-class ingress token buckets (see classBucketCapacity),
     *  as of their last refill. Snapshotted; apply(Submit) refills
     *  and consumes on both paths, so recovery sees the same
     *  admission decisions. */
    uint64_t bucketLevel_[kPriorityCount] = {0, 0, 0};
    uint64_t bucketRefillIteration_[kPriorityCount] = {0, 0, 0};
    /** Wall-clock reading of the open iteration, stored by
     *  apply(Begin); all wall-deadline decisions in the iteration
     *  compare against it, never a fresh read, so a ManualClock
     *  drives them exactly. */
    uint64_t nowNanos_ = 0;

    /**
     * The iteration between its Begin and Iteration records, opened,
     * fed and closed by apply() on both paths. Open outside
     * runIteration() only when recovery ended mid-iteration: the
     * next runIteration() then resumes it — journaled clock reading,
     * no admission, already-stepped sessions skipped — so its
     * decisions land at exactly the session progress of the
     * uninterrupted run.
     */
    struct OpenIteration
    {
        bool open = false;
        /** Active requests when the iteration began. */
        size_t batch = 0;
        /** Step evidence for the degradation ladder: a
         *  speculation-enabled decode step ran / fell back. */
        bool speculationRan = false;
        bool faultSeen = false;
    };
    OpenIteration iter_;
};

/**
 * The on-disk persistence of one serving process: the write-ahead
 * journal at `path` and its latest snapshot at `path.snap`. The
 * daemon and `spec_infer --journal` both serve through it.
 *
 * open() recovers the manager from both files, cuts the journal to
 * the valid prefix recover() reports (dropping a torn tail), and
 * appends from there: one journal spans every process generation,
 * and a snapshot's skip offset is always an offset into that file.
 * snapshot() replaces `.snap` atomically — written to `.snap.tmp`,
 * synced when ServingConfig::journalFsync is set, then renamed over
 * the old one — so a crash mid-snapshot leaves the previous
 * snapshot in place, still pointing into the same journal.
 */
class JournalFile
{
  public:
    /** @param manager Freshly constructed manager (non-owning). */
    JournalFile(RequestManager &manager, std::string path);
    ~JournalFile();

    JournalFile(const JournalFile &) = delete;
    JournalFile &operator=(const JournalFile &) = delete;

    /**
     * Recover (when `resume` and the journal exists), cut the
     * journal to its valid prefix — to empty when not resuming —
     * attach it for appending, and write the first snapshot.
     * @return false when the journal cannot be opened for writing.
     */
    bool open(bool resume);

    /** Write a snapshot and atomically replace `.snap` with it. */
    void snapshot();

    /** Push buffered journal bytes to the file (signal paths). */
    void flush() { out_.flush(); }

    /** Valid journal bytes open() recovered (0 when it did not). */
    uint64_t recoveredBytes() const { return recovered_; }

  private:
    RequestManager *manager_;
    std::string path_;
    std::ofstream out_;
    std::unique_ptr<JournalWriter> writer_;
    /** Descriptor for fdatasync when journalFsync is on. */
    int syncFd_ = -1;
    uint64_t recovered_ = 0;
};

} // namespace runtime
} // namespace specinfer

#endif // SPECINFER_RUNTIME_REQUEST_MANAGER_H
