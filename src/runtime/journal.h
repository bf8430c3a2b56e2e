/**
 * @file
 * Write-ahead token journal for crash-safe serving.
 *
 * Every state change of an accepted request is one record, and
 * RequestManager::apply() is the only code that turns a record into
 * state. Live serving decides (admission, preemption, deadlines),
 * builds the record, appends it here, then applies it; recovery
 * (RequestManager::recover) loads the most recent snapshot and
 * applies the journal tail on top of it. Both paths run the same
 * transition function, so the recovered scheduling state is the
 * pre-crash state by construction; the KV caches rebuild through
 * the engine's output-invariant catch-up path.
 *
 * On-disk format: a bare stream of records, each framed as
 *
 *   u32 payloadLength | u32 crc32(payload) | payload bytes
 *
 * little-endian, no file header. The reader is truncation-tolerant
 * by design: a torn tail (short header, short payload, or CRC
 * mismatch — what a crash mid-append leaves behind) terminates the
 * stream cleanly at the last fully valid record, and
 * bytesConsumed() reports the valid prefix length so the caller can
 * truncate the file before resuming appends.
 *
 * Records deliberately carry *events*, not state: a Step record
 * holds the tokens the verifier committed and the RNG cursor after
 * the step, never model activations or KV rows, and a Preempt or
 * Finish record names only the request (and the stop reason) —
 * apply() derives everything else from the state it transitions.
 * The snapshot (RequestManager::writeSnapshot) follows the same
 * rule: scheduler state and token-level sessions, no KV rows, which
 * recovery recomputes from the tokens. Both stay small, and replay
 * re-runs no decode step.
 *
 * One journal spans every process generation: a restart cuts the
 * torn tail and appends after it (runtime::JournalFile), opening
 * with a Header record that names the engine, so the whole serving
 * history can be re-driven offline (verify::replayJournal).
 */

#ifndef SPECINFER_RUNTIME_JOURNAL_H
#define SPECINFER_RUNTIME_JOURNAL_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/spec_engine.h"
#include "util/rng.h"

namespace specinfer {
namespace runtime {

/** CRC-32 (IEEE 802.3 polynomial) over a byte range. */
uint32_t crc32(const void *data, size_t size);

/** Journal record kinds, in the order the manager emits them. */
enum class RecordType : uint8_t
{
    /** A request was accepted into the pending queue. */
    Submit = 1,
    /** One decode step committed for an active request. */
    Step = 2,
    /** An active request was preempted: KV released, requeued with
     *  a jittered backoff window (apply() makes the jitter draw). */
    Preempt = 3,
    /** A request finished (normally or aborted). */
    Finish = 4,
    /** One scheduling iteration committed; apply() advances the
     *  clock and the degradation ladder from the iteration's step
     *  evidence. */
    Iteration = 5,
    /**
     * An iteration's batch is formed and stepping begins: the
     * iteration index, the wall-clock reading every deadline decision
     * inside it uses, and whether an injected straggler advanced the
     * clock. Written after the iteration's admissions and before any
     * step, so a crash anywhere inside the iteration leaves recovery
     * an open iteration to *resume* (skipping already-applied steps)
     * with exactly the clock the crashed process used, instead of
     * re-running it one clock tick out of phase.
     */
    Begin = 6,
    /**
     * A pending request was admitted into a batch slot. Replay
     * re-admits exactly the crashed process's batch, so resuming a
     * half-journaled iteration never admits into slots that only
     * freed up mid-iteration (which would let a request start one
     * clock tick earlier than the uninterrupted run).
     */
    Admit = 7,
    /**
     * Engine identity, written whenever a journal is attached: the
     * fields verify::replayJournal rebuilds the serving engine
     * from. Recovery ignores it.
     */
    Header = 8,
    /**
     * Speculation was disabled from outside the scheduler
     * (RequestManager::forceDegrade, the daemon watchdog's hook) for
     * `degradeBackoff` iterations, so the forced window survives a
     * crash before the next Iteration record.
     */
    Degrade = 9,
};

/** Printable record type name (logs and tests). */
const char *recordTypeName(RecordType type);

/**
 * One journal record. A flat union-of-fields struct: `type` selects
 * which fields are meaningful (listed per type below); the rest stay
 * default-initialized and are not serialized.
 */
struct JournalRecord
{
    RecordType type = RecordType::Submit;

    /** Request id (Submit, Step, Preempt, Finish, Admit). */
    uint64_t id = 0;

    // --- Submit ---------------------------------------------------
    uint64_t arrivalIteration = 0;
    uint64_t maxNewTokens = 0;
    uint64_t deadlineIterations = 0;
    /** Absolute wall-clock deadline in obs::Clock nanos (0 = none). */
    uint64_t deadlineNanos = 0;
    /** runtime::Priority, flattened (< kPriorityCount). */
    uint8_t priority = 1;
    std::vector<int> prompt;

    // --- Step -----------------------------------------------------
    /** Tokens the verifier committed this step (possibly empty for
     *  a chunked-prefill iteration). */
    std::vector<int> tokens;
    std::vector<float> logProbs;
    core::StepRecord step;
    /** Sampler/RNG cursor *after* the step — replay jumps straight
     *  to it instead of recomputing the step. */
    util::RngState rngAfter;
    bool sessionDone = false;
    /** core::SpecSession::StopReason, flattened (Step and Finish;
     *  at most StopReason::Shed). */
    uint8_t stopReason = 0;

    // --- Iteration / Begin / Admit --------------------------------
    /** Manager iteration clock after the iteration committed
     *  (Iteration) or when it began (Begin). */
    uint64_t iteration = 0;
    /** Wall-clock reading (obs::Clock nanos) the iteration's
     *  deadline checks use (Begin). */
    uint64_t iterNanos = 0;
    /** An injected straggler advanced the clock by
     *  ServingConfig::slowIterationPenalty (Begin). */
    uint8_t iterSlow = 0;
    /** KV rows resident right after admission — the prefix-store
     *  adoption level (Admit). The crashed process's store was warm
     *  with blocks a cold recovering store cannot adopt; replay
     *  re-hydrates to this level so the recovered session spends
     *  exactly as many prefill iterations as the live one did. */
    uint64_t adoptedTokens = 0;

    // --- Degrade --------------------------------------------------
    /** Iterations speculation stays disabled, counted from the
     *  manager's iteration clock when the record applies. */
    uint64_t degradeBackoff = 0;

    // --- Header ---------------------------------------------------
    /** LLM preset name (model::llmPreset). */
    std::string llm;
    /** Early-exit SSM depth (0 = incremental, no SSM). */
    uint64_t ssmLayers = 0;
    /** model::Precision of the SSM, flattened. */
    uint8_t ssmPrecision = 0;
    /** Expansion in ExpansionConfig::toString() form. */
    std::string expansion;
    uint64_t seed = 0;
    uint64_t engineMaxNewTokens = 0;
    /** LLM sampling temperature (0 = greedy). */
    double temperature = 0.0;
    uint64_t maxBatchSize = 0;
    uint8_t tpDegree = 1;
};

/**
 * Appends CRC-framed records to a stream. Not thread-safe: the
 * RequestManager journals from its single scheduling thread.
 */
class JournalWriter
{
  public:
    /** @param out Destination stream (non-owning; must outlive the
     *         writer). Appends start at the current position.
     *  @param offset File offset of that position: bytesWritten()
     *         counts from here, so snapshot offsets stay file
     *         offsets when a journal is appended to. */
    explicit JournalWriter(std::ostream &out, uint64_t offset = 0);

    /** Append one record (no-op once closed()). */
    void append(const JournalRecord &record);

    /** Offset just past the last fully written record (a torn
     *  tail is not counted). */
    uint64_t bytesWritten() const { return bytes_; }

    /**
     * Crash-simulation hook: the next append() writes the frame
     * header but only about half of the payload, then closes the
     * writer — exactly the torn record a process crash mid-append
     * leaves on disk. Subsequent appends are dropped.
     */
    void tearNextAppend() { tearNext_ = true; }

    /** True once a torn append has been simulated. */
    bool closed() const { return closed_; }

    /**
     * Durability hook (opt-in, see ServingConfig::journalFsync):
     * hand the writer a file descriptor open on the same file as
     * the output stream; sync() then issues fdatasync on it. The
     * stream is flushed per append, so the descriptor sees every
     * framed byte; without this the journal survives process
     * crashes (the kernel holds the pages) but not power loss.
     */
    void setSyncFd(int fd) { syncFd_ = fd; }

    /** fdatasync the journal file (no-op without setSyncFd). */
    void sync() const;

  private:
    std::ostream *out_;
    uint64_t bytes_ = 0;
    bool tearNext_ = false;
    bool closed_ = false;
    int syncFd_ = -1;
};

/**
 * Truncation-tolerant journal reader: yields records until clean
 * EOF or the first damaged frame (short header, short payload, CRC
 * mismatch, or unparseable payload), which it treats as the torn
 * tail of a crash — never an error. A payload whose priority or
 * stop-reason byte is out of range is damage too.
 */
class JournalReader
{
  public:
    /** @param in Source stream (non-owning), positioned at the
     *         first record to read. */
    explicit JournalReader(std::istream &in);

    /** Read the next record into `record`.
     *  @return false at clean EOF or at a damaged tail (check
     *          tornTail() to distinguish). */
    bool next(JournalRecord &record);

    /** True when reading stopped at a damaged frame rather than
     *  clean EOF. */
    bool tornTail() const { return tornTail_; }

    /** Bytes of valid records consumed so far — the length callers
     *  should truncate a torn journal to before appending again. */
    uint64_t bytesConsumed() const { return bytes_; }

  private:
    std::istream *in_;
    uint64_t bytes_ = 0;
    bool tornTail_ = false;
    bool done_ = false;
};

} // namespace runtime
} // namespace specinfer

#endif // SPECINFER_RUNTIME_JOURNAL_H
