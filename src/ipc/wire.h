/**
 * @file
 * Wire protocol for the client ↔ specinferd shared-memory channel.
 *
 * One flat Message struct (journal-record style: `type` selects the
 * meaningful fields) with a bounds-checked binary codec on
 * util::ByteWriter/ByteReader, the journal's codec. Frames
 * travel over the CRC-guarded ShmRing, so the codec only has to be
 * honest about lengths — a decode failure means a peer speaking a
 * different protocol version, and the connection is dropped.
 *
 * ipcSend()/ipcRecv() are the only functions that touch a ring in
 * daemon and client code: they interpose the `ipc-send` /
 * `ipc-recv` fault points (transient failures the caller must
 * retry/absorb — frames are never dropped or reordered) and count
 * the ipc_* metrics.
 */

#ifndef SPECINFER_IPC_WIRE_H
#define SPECINFER_IPC_WIRE_H

#include <cstdint>
#include <string>
#include <vector>

#include "ipc/ring.h"

namespace specinfer {
namespace obs {
class ObsContext;
}
namespace ipc {

/** Protocol version; bumped on any wire-format change.
 *  v2: Submit carries a priority class; Reject carries
 *  retryAfterPolls for Overloaded backpressure.
 *  v3: the token vector is length-prefixed by a u64 count
 *  (util::ByteWriter's vector encoding). */
constexpr uint32_t kWireVersion = 3;

/** Message kinds. */
enum class MsgType : uint8_t
{
    /** client → daemon: announce a (re)connecting client. */
    Hello = 1,
    /** daemon → client: lease granted; carries epoch + leaseTicks. */
    HelloAck = 2,
    /** client → daemon: lease keep-alive. */
    Heartbeat = 3,
    /** client → daemon: submit a request (tag correlates the ack). */
    Submit = 4,
    /** daemon → client: request admitted; tag → daemon request id. */
    SubmitAck = 5,
    /** daemon → client: request refused (typed reason). */
    Reject = 6,
    /** client → daemon: cancel an in-flight request. */
    Cancel = 7,
    /** client → daemon after a daemon restart: re-bind request
     *  `id`, of which the client already holds `start` tokens. */
    Resume = 8,
    /** daemon → client: generated tokens [start, start+n) of `id`.
     *  Idempotent by construction: re-sent ranges overwrite the
     *  same positions, so resume never duplicates tokens. */
    Tokens = 9,
    /** daemon → client: request finished (stop reason + total). */
    Finished = 10,
    /** daemon → client: lease revoked (reaped); reconnect to
     *  continue. Also the last frame before a drain unlink. */
    Revoked = 11,
    /** either direction: orderly goodbye. */
    Goodbye = 12,
};

/** Printable message type (logs and tests). */
const char *msgTypeName(MsgType type);

/** Typed reasons carried by Reject frames. */
enum class WireReject : uint8_t
{
    None = 0,
    QueueFull = 1,     ///< bounded pending queue at capacity
    NeverFits = 2,     ///< request can never be served
    InvalidPrompt = 3, ///< empty / over the model's budget
    Draining = 4,      ///< daemon is shutting down, not admitting
    Overloaded = 5,    ///< class token bucket empty; retry later
};

const char *wireRejectName(WireReject reason);

/** One protocol message; `type` selects the live fields. */
struct Message
{
    MsgType type = MsgType::Heartbeat;

    /** Daemon-assigned request id (Submit ack onward). */
    uint64_t id = 0;
    /** Client-chosen correlation tag (Submit / SubmitAck / Reject). */
    uint64_t tag = 0;
    /** Token-range start (Tokens), tokens already held (Resume). */
    uint64_t start = 0;
    /** Daemon epoch (HelloAck), client pid (Hello). */
    uint64_t epoch = 0;
    /** Lease length in daemon ticks (HelloAck). */
    uint64_t leaseTicks = 0;
    /** Per-request generation budget (Submit). */
    uint64_t maxNewTokens = 0;
    /** Reject reason. */
    WireReject reject = WireReject::None;
    /** core::SpecSession::StopReason, flattened (Finished). */
    uint8_t stopReason = 0;
    /** QoS class, runtime::Priority flattened (Submit). */
    uint8_t priority = 1;
    /** Client polls to wait before retrying (Overloaded Reject). */
    uint64_t retryAfterPolls = 0;
    /** Prompt (Submit) or generated tokens (Tokens). */
    std::vector<int> tokens;
};

/** Serialize `msg` into a frame payload. */
std::vector<uint8_t> encodeMessage(const Message &msg);

/** Decode a frame payload; false on any bounds/version violation
 *  or out-of-range enum byte (`msg` is left untouched then). */
bool decodeMessage(const std::vector<uint8_t> &bytes, Message *msg);

/**
 * Push one message. False = transient failure (ring backpressure or
 * an injected ipc-send fault): the caller keeps the message queued
 * and retries later. Counts ipc_frames_sent / ipc_bytes_sent /
 * ipc_ring_full_retries.
 */
bool ipcSend(ShmRing &ring, const Message &msg,
             obs::ObsContext *obs);

/** Outcome of ipcRecv(). */
enum class RecvStatus
{
    Empty,   ///< nothing available (or an injected ipc-recv delay)
    Ok,      ///< one message decoded
    Corrupt, ///< CRC/decode violation: drop the connection
};

/**
 * Pop + decode one message. An injected ipc-recv fault delays the
 * frame to a later poll (never loses it). Counts
 * ipc_frames_received / ipc_bytes_received / ipc_crc_rejects.
 */
RecvStatus ipcRecv(ShmRing &ring, Message *msg,
                   obs::ObsContext *obs);

} // namespace ipc
} // namespace specinfer

#endif // SPECINFER_IPC_WIRE_H
