/**
 * @file
 * Client library for the specinferd shared-memory serving plane.
 *
 * A Client owns one channel segment (it creates and formats it; the
 * daemon discovers it by directory scan) and is driven by poll():
 * each call pumps the send queue, drains the response ring, and
 * checks the daemon board. No thread is spawned — callers choose
 * the cadence, which is what lets the in-process tests interleave
 * client polls and daemon ticks deterministically while the real
 * tool wraps poll() in a sleep loop.
 *
 * Failure taxonomy the caller can act on (ClientStatus):
 *
 *  - DaemonRestarted — the board epoch changed. The client handles
 *    it internally (re-Hello + Resume for every unfinished request,
 *    token streams continue idempotently) and reports it once.
 *  - DaemonGone — the board heartbeat stalled past the configured
 *    limit, or no board was found within the bounded connect retry
 *    budget: fail fast, nothing will answer.
 *  - LeaseRevoked — the daemon reaped this client (lease expiry or
 *    an injected `client-reap`); reconnect() makes a fresh channel
 *    and resumes. The Revoked frame itself is best-effort (the
 *    daemon unlinks and forgets the channel at reap), so the client
 *    also *suspects* revocation on its own: a live daemon heartbeat
 *    with work in flight but no inbound frame for quietPollLimit
 *    polls means nobody is serving this channel anymore. A false
 *    suspicion is harmless — reconnect + Resume is idempotent.
 *
 * Connect and stream-stall retries use bounded exponential backoff
 * with seeded jitter; in-process tests zero the sleep unit so the
 * schedule stays deterministic and instant.
 */

#ifndef SPECINFER_IPC_CLIENT_H
#define SPECINFER_IPC_CLIENT_H

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "ipc/channel.h"
#include "ipc/wire.h"
#include "runtime/request.h"
#include "util/rng.h"

namespace specinfer {
namespace ipc {

/** Typed client-visible outcomes. */
enum class ClientStatus
{
    Ok,              ///< nothing notable
    Pending,         ///< connect() sent Hello; ack not yet seen
    Timeout,         ///< bounded retry budget exhausted
    DaemonGone,      ///< heartbeat stall / no board: fail fast
    DaemonRestarted, ///< epoch changed; resumed automatically
    Rejected,        ///< a submit came back with a typed rejection
    LeaseRevoked,    ///< reaped by the daemon; reconnect() to go on
    Corrupt,         ///< poisoned ring; connection is dead
    Disconnected,    ///< orderly goodbye (drain or local)
};

const char *clientStatusName(ClientStatus status);

/** Client configuration. */
struct ClientConfig
{
    /** IPC directory; empty = defaultIpcDir(). */
    std::string dir;

    /** Ring capacity per direction (power of two, data bytes). */
    size_t ringBytes = 1 << 16;

    /** Channel-name uniquifier (a reconnect bumps it). */
    uint64_t nonce = 1;

    /** Bounded connect retry budget (board-open attempts). */
    size_t connectAttempts = 8;

    /** Backoff unit in microseconds; 0 = never sleep (co-op
     *  in-process tests drive the schedule themselves). */
    size_t backoffUnitMicros = 0;

    /** Seed for the backoff jitter (reproducible schedules). */
    uint64_t jitterSeed = 0x1cec0de5ULL;

    /** Send a Heartbeat every N polls while connected. */
    size_t heartbeatEveryPolls = 1;

    /** Polls without a board-heartbeat advance before the daemon is
     *  declared gone. */
    size_t stallPollLimit = 256;

    /** Connected polls with requests in flight but no inbound frame
     *  before the lease is presumed revoked (the daemon's Revoked
     *  frame is best-effort and can be lost to a crash or an
     *  injected ipc-send fault). 0 disables the suspicion. */
    size_t quietPollLimit = 1024;

    /** Observability context (ipc_* client-side counters). */
    obs::ObsContext *obs = nullptr;
};

/** Per-request client-side state. */
struct ClientRequest
{
    uint64_t tag = 0;      ///< local correlation id
    uint64_t id = 0;       ///< daemon id once acked
    bool acked = false;
    bool finished = false;
    WireReject reject = WireReject::None;
    uint8_t stopReason = 0;
    /** Total tokens the daemon reported at Finished (the stream is
     *  complete once tokens.size() reaches it). */
    uint64_t expectTotal = 0;
    bool finishSeen = false;
    std::vector<int> tokens;
    std::vector<int> prompt;   ///< kept for re-submit after loss
    uint64_t maxNewTokens = 0;
    /** QoS class this request was submitted under. */
    runtime::Priority priority = runtime::Priority::Standard;
    /** Daemon's retry advice from an Overloaded rejection (polls,
     *  unscaled). */
    uint64_t retryAfterPolls = 0;
};

/** One connection to specinferd. Single-threaded; drive with
 *  poll(). */
class Client
{
  public:
    explicit Client(ClientConfig cfg);
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Find the board (bounded retry + backoff), create this
     * client's channel, and queue Hello. Returns Pending on
     * success — connected() turns true once poll() sees HelloAck —
     * or DaemonGone when no board appeared within the budget.
     */
    ClientStatus connect();

    /** Drop the old channel (the daemon unlinked it at reap) and
     *  connect again under a fresh nonce; unfinished requests are
     *  resubmitted or resumed. */
    ClientStatus reconnect();

    bool connected() const { return connected_; }

    /**
     * Pump IO once: heartbeat, flush queued frames (with
     * backoff-jittered retry on backpressure), drain responses,
     * check board liveness/epoch. Returns the most significant
     * event observed this poll (Ok when uneventful).
     */
    ClientStatus poll();

    /** Poll until connected or `max_polls` exhausted (Timeout); a
     *  lease revoked mid-handshake reconnects on a fresh channel. */
    ClientStatus waitConnected(size_t max_polls);

    /** Queue a request; returns the local tag. */
    uint64_t submit(const std::vector<int> &prompt,
                    size_t max_new_tokens,
                    runtime::Priority priority =
                        runtime::Priority::Standard);

    /** Queue a cancel (needs the ack to have arrived). */
    bool cancel(uint64_t tag);

    /** Per-request state, or nullptr for an unknown tag. */
    const ClientRequest *request(uint64_t tag) const;

    bool done(uint64_t tag) const;

    /** Unfinished, unrejected request count. */
    size_t inflightCount() const;

    /** Orderly goodbye + unlink. */
    void disconnect();

    /** Crash simulation (tests): drop everything on the floor — no
     *  goodbye, no unlink, no further polls. The daemon's lease
     *  reaper must clean up after us. */
    void abandon();

    uint64_t daemonEpoch() const { return daemonEpoch_; }
    ClientStatus lastStatus() const { return lastStatus_; }

    /**
     * Class-scaled backoff advice from the most recent Overloaded
     * rejection: the daemon's retry-after, multiplied by the
     * rejected request's class weight (Interactive 1×, Standard 2×,
     * Batch 4×) so when the bucket refills the most urgent traffic
     * retries first. poll() also sleeps one backoff unit per
     * advised poll when real sleeping is enabled.
     */
    uint64_t overloadBackoffPolls() const
    {
        return overloadBackoffPolls_;
    }

    /** Daemon health word from the board (Healthy when unknown). */
    BoardHealth boardHealth() const;

  private:
    void queueHelloAndResumes();
    void handleMessage(const Message &msg, ClientStatus *status);
    void backoffSleep(size_t failures);
    ClientRequest *byId(uint64_t id);

    ClientConfig cfg_;
    obs::ObsContext *obs_;
    util::Rng jitterRng_;

    Board board_;
    Channel channel_;
    bool connected_ = false;
    bool channelOpen_ = false;
    uint64_t daemonEpoch_ = 0;
    uint64_t leaseTicks_ = 0;

    uint64_t polls_ = 0;
    uint64_t lastHeartbeat_ = 0;
    size_t stallPolls_ = 0;
    size_t quietPolls_ = 0;
    size_t sendFailures_ = 0;
    uint64_t overloadBackoffPolls_ = 0;
    ClientStatus lastStatus_ = ClientStatus::Ok;

    uint64_t nextTag_ = 1;
    std::map<uint64_t, ClientRequest> requests_; ///< by tag
    std::map<uint64_t, uint64_t> tagOfId_;
    std::deque<Message> outbox_;
};

} // namespace ipc
} // namespace specinfer

#endif // SPECINFER_IPC_CLIENT_H
