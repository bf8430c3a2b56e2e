#include "ipc/wire.h"

#include "obs/obs.h"
#include "util/bytes.h"
#include "util/fault.h"

namespace specinfer {
namespace ipc {

const char *
msgTypeName(MsgType type)
{
    switch (type) {
      case MsgType::Hello:     return "hello";
      case MsgType::HelloAck:  return "hello-ack";
      case MsgType::Heartbeat: return "heartbeat";
      case MsgType::Submit:    return "submit";
      case MsgType::SubmitAck: return "submit-ack";
      case MsgType::Reject:    return "reject";
      case MsgType::Cancel:    return "cancel";
      case MsgType::Resume:    return "resume";
      case MsgType::Tokens:    return "tokens";
      case MsgType::Finished:  return "finished";
      case MsgType::Revoked:   return "revoked";
      case MsgType::Goodbye:   return "goodbye";
    }
    return "unknown";
}

const char *
wireRejectName(WireReject reason)
{
    switch (reason) {
      case WireReject::None:          return "none";
      case WireReject::QueueFull:     return "queue-full";
      case WireReject::NeverFits:     return "never-fits";
      case WireReject::InvalidPrompt: return "invalid-prompt";
      case WireReject::Draining:      return "draining";
      case WireReject::Overloaded:    return "overloaded";
    }
    return "unknown";
}

std::vector<uint8_t>
encodeMessage(const Message &msg)
{
    util::ByteWriter w;
    w.pod<uint32_t>(kWireVersion);
    w.pod<uint8_t>(static_cast<uint8_t>(msg.type));
    w.pod<uint64_t>(msg.id);
    w.pod<uint64_t>(msg.tag);
    w.pod<uint64_t>(msg.start);
    w.pod<uint64_t>(msg.epoch);
    w.pod<uint64_t>(msg.leaseTicks);
    w.pod<uint64_t>(msg.maxNewTokens);
    w.pod<uint8_t>(static_cast<uint8_t>(msg.reject));
    w.pod<uint8_t>(msg.stopReason);
    w.pod<uint8_t>(msg.priority);
    w.pod<uint64_t>(msg.retryAfterPolls);
    w.podVector<int>(msg.tokens);
    return w.bytes();
}

bool
decodeMessage(const std::vector<uint8_t> &bytes, Message *msg)
{
    util::ByteReader r(bytes);
    if (r.pod<uint32_t>() != kWireVersion)
        return false;
    const uint8_t type = r.pod<uint8_t>();
    if (type < static_cast<uint8_t>(MsgType::Hello) ||
        type > static_cast<uint8_t>(MsgType::Goodbye))
        return false;
    Message out;
    out.type = static_cast<MsgType>(type);
    out.id = r.pod<uint64_t>();
    out.tag = r.pod<uint64_t>();
    out.start = r.pod<uint64_t>();
    out.epoch = r.pod<uint64_t>();
    out.leaseTicks = r.pod<uint64_t>();
    out.maxNewTokens = r.pod<uint64_t>();
    const uint8_t reject = r.pod<uint8_t>();
    if (reject > static_cast<uint8_t>(WireReject::Overloaded))
        return false;
    out.reject = static_cast<WireReject>(reject);
    out.stopReason = r.pod<uint8_t>();
    out.priority = r.pod<uint8_t>();
    out.retryAfterPolls = r.pod<uint64_t>();
    out.tokens = r.podVector<int>();
    if (!r.ok() || !r.exhausted())
        return false;
    *msg = std::move(out);
    return true;
}

bool
ipcSend(ShmRing &ring, const Message &msg, obs::ObsContext *obs)
{
    // Injected transient send failure: the caller's retry loop
    // absorbs it exactly like ring backpressure.
    if (util::faultAt(util::FaultPoint::IpcSend)) {
        if (obs != nullptr)
            obs->metrics().counter("ipc_ring_full_retries")->inc();
        return false;
    }
    const std::vector<uint8_t> bytes = encodeMessage(msg);
    if (!ring.push(bytes.data(), bytes.size())) {
        if (obs != nullptr)
            obs->metrics().counter("ipc_ring_full_retries")->inc();
        return false;
    }
    if (obs != nullptr) {
        obs->metrics().counter("ipc_frames_sent")->inc();
        obs->metrics().counter("ipc_bytes_sent")->inc(bytes.size());
    }
    return true;
}

RecvStatus
ipcRecv(ShmRing &ring, Message *msg, obs::ObsContext *obs)
{
    // Injected consumer-side delay: the frame stays published and
    // is delivered intact on a later poll.
    if (util::faultAt(util::FaultPoint::IpcRecv))
        return RecvStatus::Empty;
    std::vector<uint8_t> bytes;
    switch (ring.pop(bytes)) {
      case PopStatus::Empty:
        return RecvStatus::Empty;
      case PopStatus::Corrupt:
        if (obs != nullptr)
            obs->metrics().counter("ipc_crc_rejects")->inc();
        return RecvStatus::Corrupt;
      case PopStatus::Ok:
        break;
    }
    if (!decodeMessage(bytes, msg)) {
        if (obs != nullptr)
            obs->metrics().counter("ipc_crc_rejects")->inc();
        return RecvStatus::Corrupt;
    }
    if (obs != nullptr) {
        obs->metrics().counter("ipc_frames_received")->inc();
        obs->metrics()
            .counter("ipc_bytes_received")
            ->inc(bytes.size());
    }
    return RecvStatus::Ok;
}

} // namespace ipc
} // namespace specinfer
