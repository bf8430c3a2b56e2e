#include "runtime/journal.h"

#include <istream>
#include <ostream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/obs.h"
#include "runtime/request.h"
#include "util/bytes.h"
#include "util/logging.h"

namespace specinfer {
namespace runtime {

namespace {

using util::ByteReader;
using util::ByteWriter;

/** Table-driven CRC-32 (IEEE 802.3, reflected 0xEDB88320). */
struct Crc32Table
{
    uint32_t entries[256];

    Crc32Table()
    {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            entries[i] = c;
        }
    }
};

const Crc32Table &
crcTable()
{
    static const Crc32Table table;
    return table;
}

std::vector<uint8_t>
serializePayload(const JournalRecord &rec)
{
    ByteWriter w;
    w.pod<uint8_t>(static_cast<uint8_t>(rec.type));
    switch (rec.type) {
      case RecordType::Submit:
        w.pod<uint64_t>(rec.id);
        w.pod<uint64_t>(rec.arrivalIteration);
        w.pod<uint64_t>(rec.maxNewTokens);
        w.pod<uint64_t>(rec.deadlineIterations);
        w.pod<uint64_t>(rec.deadlineNanos);
        w.pod<uint8_t>(rec.priority);
        w.podVector<int>(rec.prompt);
        break;
      case RecordType::Step:
        w.pod<uint64_t>(rec.id);
        w.podVector<int>(rec.tokens);
        w.podVector<float>(rec.logProbs);
        core::writeStepRecord(w, rec.step);
        util::writeRngState(w, rec.rngAfter);
        w.pod<uint8_t>(rec.sessionDone ? 1 : 0);
        w.pod<uint8_t>(rec.stopReason);
        break;
      case RecordType::Preempt:
        w.pod<uint64_t>(rec.id);
        break;
      case RecordType::Finish:
        w.pod<uint64_t>(rec.id);
        w.pod<uint8_t>(rec.stopReason);
        break;
      case RecordType::Iteration:
        w.pod<uint64_t>(rec.iteration);
        break;
      case RecordType::Begin:
        w.pod<uint64_t>(rec.iteration);
        w.pod<uint64_t>(rec.iterNanos);
        w.pod<uint8_t>(rec.iterSlow);
        break;
      case RecordType::Admit:
        w.pod<uint64_t>(rec.id);
        w.pod<uint64_t>(rec.adoptedTokens);
        break;
      case RecordType::Header:
        w.string(rec.llm);
        w.pod<uint64_t>(rec.ssmLayers);
        w.pod<uint8_t>(rec.ssmPrecision);
        w.string(rec.expansion);
        w.pod<uint64_t>(rec.seed);
        w.pod<uint64_t>(rec.engineMaxNewTokens);
        w.pod<double>(rec.temperature);
        w.pod<uint64_t>(rec.maxBatchSize);
        w.pod<uint8_t>(rec.tpDegree);
        break;
      case RecordType::Degrade:
        w.pod<uint64_t>(rec.degradeBackoff);
        break;
    }
    return w.bytes();
}

bool
parsePayload(const std::vector<uint8_t> &payload, JournalRecord &rec)
{
    ByteReader r(payload);
    uint8_t raw_type = r.pod<uint8_t>();
    if (!r.ok() || raw_type < 1 ||
        raw_type > static_cast<uint8_t>(RecordType::Degrade))
        return false;
    rec = JournalRecord();
    rec.type = static_cast<RecordType>(raw_type);
    switch (rec.type) {
      case RecordType::Submit:
        rec.id = r.pod<uint64_t>();
        rec.arrivalIteration = r.pod<uint64_t>();
        rec.maxNewTokens = r.pod<uint64_t>();
        rec.deadlineIterations = r.pod<uint64_t>();
        rec.deadlineNanos = r.pod<uint64_t>();
        rec.priority = r.pod<uint8_t>();
        rec.prompt = r.podVector<int>();
        break;
      case RecordType::Step:
        rec.id = r.pod<uint64_t>();
        rec.tokens = r.podVector<int>();
        rec.logProbs = r.podVector<float>();
        rec.step = core::readStepRecord(r);
        rec.rngAfter = util::readRngState(r);
        rec.sessionDone = r.pod<uint8_t>() != 0;
        rec.stopReason = r.pod<uint8_t>();
        break;
      case RecordType::Preempt:
        rec.id = r.pod<uint64_t>();
        break;
      case RecordType::Finish:
        rec.id = r.pod<uint64_t>();
        rec.stopReason = r.pod<uint8_t>();
        break;
      case RecordType::Iteration:
        rec.iteration = r.pod<uint64_t>();
        break;
      case RecordType::Begin:
        rec.iteration = r.pod<uint64_t>();
        rec.iterNanos = r.pod<uint64_t>();
        rec.iterSlow = r.pod<uint8_t>();
        break;
      case RecordType::Admit:
        rec.id = r.pod<uint64_t>();
        rec.adoptedTokens = r.pod<uint64_t>();
        break;
      case RecordType::Header:
        rec.llm = r.string();
        rec.ssmLayers = r.pod<uint64_t>();
        rec.ssmPrecision = r.pod<uint8_t>();
        rec.expansion = r.string();
        rec.seed = r.pod<uint64_t>();
        rec.engineMaxNewTokens = r.pod<uint64_t>();
        rec.temperature = r.pod<double>();
        rec.maxBatchSize = r.pod<uint64_t>();
        rec.tpDegree = r.pod<uint8_t>();
        break;
      case RecordType::Degrade:
        rec.degradeBackoff = r.pod<uint64_t>();
        break;
    }
    // Enum bytes apply() indexes with must be in range, and a valid
    // payload is consumed exactly: trailing garbage means a framing
    // bug or corruption that happened to pass the CRC of a different
    // record — reject either way.
    return r.ok() && r.exhausted() && rec.priority < kPriorityCount &&
           rec.stopReason <= static_cast<uint8_t>(
                                 core::SpecSession::StopReason::Shed);
}

} // namespace

uint32_t
crc32(const void *data, size_t size)
{
    const uint8_t *bytes = static_cast<const uint8_t *>(data);
    const Crc32Table &table = crcTable();
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < size; ++i)
        c = table.entries[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

const char *
recordTypeName(RecordType type)
{
    switch (type) {
      case RecordType::Submit:
        return "submit";
      case RecordType::Step:
        return "step";
      case RecordType::Preempt:
        return "preempt";
      case RecordType::Finish:
        return "finish";
      case RecordType::Iteration:
        return "iteration";
      case RecordType::Begin:
        return "begin";
      case RecordType::Admit:
        return "admit";
      case RecordType::Header:
        return "header";
      case RecordType::Degrade:
        return "degrade";
    }
    return "unknown";
}

JournalWriter::JournalWriter(std::ostream &out, uint64_t offset)
    : out_(&out), bytes_(offset)
{
}

void
JournalWriter::sync() const
{
    if (syncFd_ < 0)
        return;
#if defined(__linux__)
    ::fdatasync(syncFd_);
#elif defined(__unix__) || defined(__APPLE__)
    ::fsync(syncFd_);
#else
    return;
#endif
    if (obs::ObsContext *o = obs::globalObs())
        o->metrics().counter("journal_fsyncs")->inc();
}

void
JournalWriter::append(const JournalRecord &record)
{
    if (closed_)
        return;
    const std::vector<uint8_t> payload = serializePayload(record);
    const char *raw = reinterpret_cast<const char *>(payload.data());
    const uint32_t len = static_cast<uint32_t>(payload.size());
    const uint32_t crc =
        crc32(payload.data(), payload.size());
    out_->write(reinterpret_cast<const char *>(&len), sizeof(len));
    out_->write(reinterpret_cast<const char *>(&crc), sizeof(crc));
    if (tearNext_) {
        // Simulated crash mid-append: half the payload reaches the
        // stream, then the "process" is gone.
        out_->write(raw,
                    static_cast<std::streamsize>(payload.size() / 2));
        out_->flush();
        closed_ = true;
        return;
    }
    out_->write(raw, static_cast<std::streamsize>(payload.size()));
    out_->flush();
    SPECINFER_CHECK(out_->good(), "journal append failed");
    bytes_ += sizeof(len) + sizeof(crc) + payload.size();
    // Journals are created by callers that never see an ObsContext
    // (tools and tests hand the manager a bare stream), so the
    // writer reports through the process-global context when one is
    // installed.
    if (obs::ObsContext *o = obs::globalObs()) {
        o->metrics().counter("journal_appends")->inc();
        o->metrics().gauge("journal_bytes_written")
            ->set(static_cast<int64_t>(bytes_));
    }
}

JournalReader::JournalReader(std::istream &in) : in_(&in)
{
}

bool
JournalReader::next(JournalRecord &record)
{
    if (done_)
        return false;
    // Clean EOF: no more bytes at a record boundary.
    if (in_->peek() == std::char_traits<char>::eof()) {
        done_ = true;
        return false;
    }
    uint32_t len = 0;
    uint32_t crc = 0;
    in_->read(reinterpret_cast<char *>(&len), sizeof(len));
    if (in_->gcount() != sizeof(len)) {
        done_ = tornTail_ = true;
        if (obs::ObsContext *o = obs::globalObs())
            o->metrics().counter("journal_torn_tails")->inc();
        return false;
    }
    in_->read(reinterpret_cast<char *>(&crc), sizeof(crc));
    if (in_->gcount() != sizeof(crc) || len > (1u << 28)) {
        done_ = tornTail_ = true;
        if (obs::ObsContext *o = obs::globalObs())
            o->metrics().counter("journal_torn_tails")->inc();
        return false;
    }
    std::vector<uint8_t> payload(len);
    in_->read(reinterpret_cast<char *>(payload.data()),
              static_cast<std::streamsize>(len));
    if (static_cast<uint32_t>(in_->gcount()) != len ||
        crc32(payload.data(), payload.size()) != crc ||
        !parsePayload(payload, record)) {
        done_ = tornTail_ = true;
        if (obs::ObsContext *o = obs::globalObs())
            o->metrics().counter("journal_torn_tails")->inc();
        return false;
    }
    bytes_ += sizeof(len) + sizeof(crc) + len;
    if (obs::ObsContext *o = obs::globalObs())
        o->metrics().counter("journal_records_replayed")->inc();
    return true;
}

} // namespace runtime
} // namespace specinfer
