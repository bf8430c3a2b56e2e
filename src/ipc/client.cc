#include "ipc/client.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/obs.h"

namespace specinfer {
namespace ipc {

const char *
clientStatusName(ClientStatus status)
{
    switch (status) {
      case ClientStatus::Ok:              return "ok";
      case ClientStatus::Pending:         return "pending";
      case ClientStatus::Timeout:         return "timeout";
      case ClientStatus::DaemonGone:      return "daemon-gone";
      case ClientStatus::DaemonRestarted: return "daemon-restarted";
      case ClientStatus::Rejected:        return "rejected";
      case ClientStatus::LeaseRevoked:    return "lease-revoked";
      case ClientStatus::Corrupt:         return "corrupt";
      case ClientStatus::Disconnected:    return "disconnected";
    }
    return "unknown";
}

Client::Client(ClientConfig cfg)
    : cfg_(std::move(cfg)), obs_(obs::resolveObs(cfg_.obs)),
      jitterRng_(cfg_.jitterSeed)
{
    if (cfg_.dir.empty())
        cfg_.dir = defaultIpcDir();
}

Client::~Client() = default;

void
Client::backoffSleep(size_t failures)
{
    if (cfg_.backoffUnitMicros == 0)
        return;
    const uint64_t units =
        util::jitteredBackoff(jitterRng_, 1, failures, 1024);
    std::this_thread::sleep_for(std::chrono::microseconds(
        units * cfg_.backoffUnitMicros));
}

void
Client::queueHelloAndResumes()
{
    Message hello;
    hello.type = MsgType::Hello;
    hello.epoch = static_cast<uint64_t>(::getpid());
    outbox_.push_back(std::move(hello));
    for (auto &entry : requests_) {
        ClientRequest &req = entry.second;
        if (req.finished || req.reject != WireReject::None)
            continue;
        if (req.acked) {
            Message resume;
            resume.type = MsgType::Resume;
            resume.id = req.id;
            resume.start = req.tokens.size();
            outbox_.push_back(std::move(resume));
        } else {
            // Never acked: the daemon may or may not have admitted
            // it before dying. Re-submitting under the same tag is
            // the safe direction — worst case the old orphan also
            // completes (and is recorded), but the client never
            // loses a request it was promised.
            Message sub;
            sub.type = MsgType::Submit;
            sub.tag = req.tag;
            sub.maxNewTokens = req.maxNewTokens;
            sub.priority = static_cast<uint8_t>(req.priority);
            sub.tokens = req.prompt;
            outbox_.push_back(std::move(sub));
        }
    }
}

ClientStatus
Client::connect()
{
    outbox_.clear();
    connected_ = false;
    board_ = Board();
    channel_.close(); // drop any stale mapping; unlink is the
                      // daemon's (or disconnect's) job
    channelOpen_ = false;
    for (size_t attempt = 0; attempt < cfg_.connectAttempts;
         ++attempt) {
        if (board_.open(cfg_.dir))
            break;
        backoffSleep(attempt);
    }
    if (!board_.valid())
        return lastStatus_ = ClientStatus::DaemonGone;
    daemonEpoch_ =
        board_.shared()->epoch.load(std::memory_order_acquire);
    lastHeartbeat_ =
        board_.shared()->heartbeat.load(std::memory_order_acquire);
    stallPolls_ = 0;
    if (!channel_.create(cfg_.dir,
                         static_cast<uint64_t>(::getpid()),
                         cfg_.nonce, cfg_.ringBytes,
                         cfg_.ringBytes))
        return lastStatus_ = ClientStatus::Corrupt;
    channelOpen_ = true;
    quietPolls_ = 0;
    queueHelloAndResumes();
    return lastStatus_ = ClientStatus::Pending;
}

ClientStatus
Client::reconnect()
{
    channel_.unlink(); // harmless when the daemon already reaped it
    ++cfg_.nonce;      // fresh segment name, fresh rings
    return connect();
}

ClientRequest *
Client::byId(uint64_t id)
{
    auto tag = tagOfId_.find(id);
    if (tag == tagOfId_.end())
        return nullptr;
    auto req = requests_.find(tag->second);
    return req == requests_.end() ? nullptr : &req->second;
}

void
Client::handleMessage(const Message &msg, ClientStatus *status)
{
    switch (msg.type) {
      case MsgType::HelloAck:
        connected_ = true;
        daemonEpoch_ = msg.epoch;
        leaseTicks_ = msg.leaseTicks;
        break;

      case MsgType::SubmitAck: {
        auto it = requests_.find(msg.tag);
        if (it == requests_.end())
            break;
        it->second.id = msg.id;
        it->second.acked = true;
        tagOfId_[msg.id] = msg.tag;
        break;
      }

      case MsgType::Reject: {
        auto it = requests_.find(msg.tag);
        if (it == requests_.end())
            break;
        it->second.reject = msg.reject;
        if (msg.reject == WireReject::Overloaded) {
            it->second.retryAfterPolls = msg.retryAfterPolls;
            // Class-aware backoff: scale the daemon's advice by the
            // class weight so that when the bucket refills the most
            // urgent traffic retries first and Batch yields.
            static const uint64_t kClassWeight[runtime::
                                                   kPriorityCount] =
                {1, 2, 4};
            const uint64_t advised =
                msg.retryAfterPolls > 0 ? msg.retryAfterPolls : 1;
            overloadBackoffPolls_ =
                advised *
                kClassWeight[static_cast<size_t>(
                    it->second.priority)];
            if (cfg_.backoffUnitMicros > 0)
                backoffSleep(std::min<size_t>(
                    overloadBackoffPolls_, 10));
        }
        *status = ClientStatus::Rejected;
        break;
      }

      case MsgType::Tokens: {
        ClientRequest *req = byId(msg.id);
        if (req == nullptr)
            break;
        // Idempotent range write: a resumed daemon may resend a
        // range we already hold; same positions, same values.
        const size_t end =
            static_cast<size_t>(msg.start) + msg.tokens.size();
        if (req->tokens.size() < end)
            req->tokens.resize(end);
        std::copy(msg.tokens.begin(), msg.tokens.end(),
                  req->tokens.begin() +
                      static_cast<ptrdiff_t>(msg.start));
        if (req->finishSeen &&
            req->tokens.size() >= req->expectTotal)
            req->finished = true;
        break;
      }

      case MsgType::Finished: {
        ClientRequest *req = byId(msg.id);
        if (req == nullptr)
            break;
        req->finishSeen = true;
        req->expectTotal = msg.start;
        req->stopReason = msg.stopReason;
        if (req->tokens.size() >= req->expectTotal) {
            req->finished = true;
        } else {
            // Terminal frame outran some Tokens frames (daemon
            // restart window): fetch the gap explicitly.
            Message resume;
            resume.type = MsgType::Resume;
            resume.id = msg.id;
            resume.start = req->tokens.size();
            outbox_.push_back(std::move(resume));
        }
        break;
      }

      case MsgType::Revoked:
        connected_ = false;
        *status = ClientStatus::LeaseRevoked;
        break;

      case MsgType::Goodbye:
        connected_ = false;
        *status = ClientStatus::Disconnected;
        break;

      default:
        break; // client→daemon frame echoed back; ignore
    }
}

ClientStatus
Client::poll()
{
    if (!channelOpen_)
        return lastStatus_;
    ++polls_;
    ClientStatus status = ClientStatus::Ok;

    if (board_.valid()) {
        const uint64_t hb = board_.shared()->heartbeat.load(
            std::memory_order_acquire);
        if (hb != lastHeartbeat_) {
            lastHeartbeat_ = hb;
            stallPolls_ = 0;
        } else if (++stallPolls_ > cfg_.stallPollLimit) {
            // Fail fast: nothing is ticking on the other side.
            connected_ = false;
            return lastStatus_ = ClientStatus::DaemonGone;
        }
        const uint64_t ep = board_.shared()->epoch.load(
            std::memory_order_acquire);
        if (ep != daemonEpoch_) {
            // Daemon restarted under us: the channel segment
            // survives (the new daemon re-attaches it), so just
            // re-Hello and resume every stream.
            daemonEpoch_ = ep;
            connected_ = false;
            outbox_.clear();
            queueHelloAndResumes();
            status = ClientStatus::DaemonRestarted;
        }
    }

    if (connected_ && cfg_.heartbeatEveryPolls != 0 &&
        polls_ % cfg_.heartbeatEveryPolls == 0) {
        Message hb;
        hb.type = MsgType::Heartbeat;
        // Occasional loss is fine; the lease is many ticks wide.
        (void)ipcSend(channel_.requestRing(), hb, obs_);
    }

    while (!outbox_.empty()) {
        if (ipcSend(channel_.requestRing(), outbox_.front(),
                    obs_)) {
            outbox_.pop_front();
            sendFailures_ = 0;
        } else {
            backoffSleep(++sendFailures_);
            break; // retry on the next poll
        }
    }

    size_t received = 0;
    for (;;) {
        Message msg;
        const RecvStatus rs =
            ipcRecv(channel_.responseRing(), &msg, obs_);
        if (rs == RecvStatus::Empty)
            break;
        if (rs == RecvStatus::Corrupt) {
            connected_ = false;
            return lastStatus_ = ClientStatus::Corrupt;
        }
        ++received;
        handleMessage(msg, &status);
        if (status == ClientStatus::LeaseRevoked ||
            status == ClientStatus::Disconnected)
            break;
    }

    // The daemon's Revoked frame is best-effort: a reap whose
    // notification is lost (crash, injected ipc-send fault) leaves
    // us heartbeating into a ring nobody drains. A live daemon that
    // stays silent for this long while we have work in flight means
    // the channel is orphaned — presume the lease gone so the caller
    // reconnects (idempotent even when the suspicion is wrong).
    if (received > 0 || !connected_ || inflightCount() == 0) {
        quietPolls_ = 0;
    } else if (cfg_.quietPollLimit != 0 &&
               ++quietPolls_ > cfg_.quietPollLimit) {
        quietPolls_ = 0;
        connected_ = false;
        return lastStatus_ = ClientStatus::LeaseRevoked;
    }
    return lastStatus_ = status;
}

ClientStatus
Client::waitConnected(size_t max_polls)
{
    for (size_t i = 0, attempt = 0; i < max_polls; ++i, ++attempt) {
        const ClientStatus status = poll();
        if (connected_)
            return ClientStatus::Ok;
        if (status == ClientStatus::DaemonGone ||
            status == ClientStatus::Corrupt)
            return status;
        if (status == ClientStatus::LeaseRevoked) {
            // Reaped mid-handshake: the backoff outgrew the lease
            // while the daemon restarted. Start over on a fresh
            // channel with the backoff reset.
            const ClientStatus again = reconnect();
            if (again != ClientStatus::Pending)
                return again;
            attempt = 0;
        }
        backoffSleep(attempt);
    }
    return lastStatus_ = ClientStatus::Timeout;
}

uint64_t
Client::submit(const std::vector<int> &prompt,
               size_t max_new_tokens, runtime::Priority priority)
{
    const uint64_t tag = nextTag_++;
    ClientRequest req;
    req.tag = tag;
    req.prompt = prompt;
    req.maxNewTokens = max_new_tokens;
    req.priority = priority;
    requests_[tag] = std::move(req);
    Message msg;
    msg.type = MsgType::Submit;
    msg.tag = tag;
    msg.maxNewTokens = max_new_tokens;
    msg.priority = static_cast<uint8_t>(priority);
    msg.tokens = prompt;
    outbox_.push_back(std::move(msg));
    return tag;
}

BoardHealth
Client::boardHealth() const
{
    if (!board_.valid())
        return BoardHealth::Healthy;
    return static_cast<BoardHealth>(
        board_.shared()->health.load(std::memory_order_acquire));
}

bool
Client::cancel(uint64_t tag)
{
    auto it = requests_.find(tag);
    if (it == requests_.end() || !it->second.acked)
        return false;
    Message msg;
    msg.type = MsgType::Cancel;
    msg.id = it->second.id;
    outbox_.push_back(std::move(msg));
    return true;
}

const ClientRequest *
Client::request(uint64_t tag) const
{
    auto it = requests_.find(tag);
    return it == requests_.end() ? nullptr : &it->second;
}

bool
Client::done(uint64_t tag) const
{
    const ClientRequest *req = request(tag);
    return req != nullptr &&
           (req->finished || req->reject != WireReject::None);
}

size_t
Client::inflightCount() const
{
    size_t n = 0;
    for (const auto &entry : requests_)
        if (!entry.second.finished &&
            entry.second.reject == WireReject::None)
            ++n;
    return n;
}

void
Client::disconnect()
{
    if (channelOpen_) {
        Message bye;
        bye.type = MsgType::Goodbye;
        (void)ipcSend(channel_.requestRing(), bye, obs_);
        channel_.unlink();
        channel_.close();
    }
    channelOpen_ = false;
    connected_ = false;
    lastStatus_ = ClientStatus::Disconnected;
}

void
Client::abandon()
{
    // kill -9 semantics: mapping dropped, segment left behind, no
    // goodbye. The daemon's lease reaper owns the cleanup.
    channel_.close();
    channelOpen_ = false;
    connected_ = false;
}

} // namespace ipc
} // namespace specinfer
