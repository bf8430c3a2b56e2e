/**
 * @file
 * Seeded mutation fuzzing of the two binary decoders that read bytes
 * another process wrote: the journal payload parser (driven through
 * JournalReader behind a valid CRC, since a CRC-consistent hostile
 * payload is what a writer bug or a crafted file produces) and the
 * IPC wire decoder (decodeMessage).
 *
 * Each trial mutates a valid encoding — bit flips, random bytes,
 * huge length prefixes, out-of-range enum bytes, truncation,
 * trailing garbage — and feeds it to the decoder, which must reject
 * it cleanly or accept a value no larger than the bytes it came
 * from. Under the ASan/UBSan preset any out-of-bounds read or
 * oversized allocation fails the run. Valid encodings must round
 * trip byte for byte. Seeds are fixed, so a failure reproduces.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "ipc/wire.h"
#include "runtime/journal.h"
#include "runtime/request.h"
#include "util/rng.h"

namespace specinfer {
namespace {

using runtime::JournalRecord;
using runtime::RecordType;

constexpr size_t kRoundTrips = 1000;
constexpr size_t kMutations = 12000;
constexpr auto kShed = core::SpecSession::StopReason::Shed;

std::vector<int>
randomTokens(util::Rng &rng)
{
    std::vector<int> out(static_cast<size_t>(rng.uniformInt(24)));
    for (int &tok : out)
        tok = static_cast<int>(rng.next());
    return out;
}

std::string
randomString(util::Rng &rng)
{
    std::string out(static_cast<size_t>(rng.uniformInt(16)), '\0');
    for (char &c : out)
        c = static_cast<char>(rng.next());
    return out;
}

/** A record of a random type with every field random, enum bytes
 *  within their ranges (the writer serializes only the fields its
 *  type carries). */
JournalRecord
randomRecord(util::Rng &rng)
{
    JournalRecord r;
    r.type = static_cast<RecordType>(
        1 + rng.uniformInt(static_cast<uint64_t>(RecordType::Degrade)));
    r.id = rng.next();
    r.arrivalIteration = rng.next();
    r.maxNewTokens = rng.next();
    r.deadlineIterations = rng.next();
    r.deadlineNanos = rng.next();
    r.priority = static_cast<uint8_t>(
        rng.uniformInt(uint64_t{runtime::kPriorityCount}));
    r.prompt = randomTokens(rng);
    r.tokens = randomTokens(rng);
    r.logProbs.resize(r.tokens.size());
    for (float &lp : r.logProbs)
        lp = static_cast<float>(-rng.uniform() * 8.0);
    r.step.treeSize = rng.next();
    r.step.verifiedTokens = rng.next();
    r.step.llmChunkTokens = rng.next();
    r.step.ssmTokensDecoded = rng.next();
    r.step.prefill = rng.uniformInt(2) == 1;
    r.step.fallback = rng.uniformInt(2) == 1;
    for (uint64_t &word : r.rngAfter.s)
        word = rng.next();
    r.rngAfter.hasCachedNormal = rng.uniformInt(2) == 1;
    r.rngAfter.cachedNormal = rng.normal();
    r.sessionDone = rng.uniformInt(2) == 1;
    r.stopReason = static_cast<uint8_t>(
        rng.uniformInt(1 + static_cast<uint64_t>(kShed)));
    r.iteration = rng.next();
    r.iterNanos = rng.next();
    r.adoptedTokens = rng.next();
    r.iterSlow = static_cast<uint8_t>(rng.next());
    r.degradeBackoff = rng.next();
    r.llm = randomString(rng);
    r.ssmLayers = rng.next();
    r.ssmPrecision = static_cast<uint8_t>(rng.next());
    r.expansion = randomString(rng);
    r.seed = rng.next();
    r.engineMaxNewTokens = rng.next();
    r.temperature = rng.uniform();
    r.maxBatchSize = rng.next();
    r.tpDegree = static_cast<uint8_t>(rng.next());
    return r;
}

ipc::Message
randomMessage(util::Rng &rng)
{
    ipc::Message m;
    m.type = static_cast<ipc::MsgType>(
        1 + rng.uniformInt(static_cast<uint64_t>(ipc::MsgType::Goodbye)));
    m.id = rng.next();
    m.tag = rng.next();
    m.start = rng.next();
    m.epoch = rng.next();
    m.leaseTicks = rng.next();
    m.maxNewTokens = rng.next();
    m.reject = static_cast<ipc::WireReject>(rng.uniformInt(
        1 + static_cast<uint64_t>(ipc::WireReject::Overloaded)));
    m.stopReason = static_cast<uint8_t>(rng.next());
    m.priority = static_cast<uint8_t>(rng.next());
    m.retryAfterPolls = rng.next();
    m.tokens = randomTokens(rng);
    return m;
}

/** The payload bytes JournalWriter frames for `rec`. */
std::vector<uint8_t>
journalPayload(const JournalRecord &rec)
{
    std::stringstream buf;
    runtime::JournalWriter writer(buf);
    writer.append(rec);
    const std::string frame = buf.str();
    return std::vector<uint8_t>(frame.begin() + 8, frame.end());
}

/** Read `payload` behind a valid frame header. A rejection must be
 *  a clean torn tail that consumes nothing. */
bool
readFramed(const std::vector<uint8_t> &payload, JournalRecord *rec)
{
    const uint32_t len = static_cast<uint32_t>(payload.size());
    const uint32_t crc = runtime::crc32(payload.data(), payload.size());
    std::stringstream buf;
    buf.write(reinterpret_cast<const char *>(&len), sizeof(len));
    buf.write(reinterpret_cast<const char *>(&crc), sizeof(crc));
    buf.write(reinterpret_cast<const char *>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    runtime::JournalReader reader(buf);
    const bool ok = reader.next(*rec);
    EXPECT_EQ(reader.tornTail(), !ok);
    EXPECT_EQ(reader.bytesConsumed(), ok ? 8 + payload.size() : 0u);
    return ok;
}

/**
 * Apply one hostile mutation. `enum_offsets` are the positions of
 * range-checked enum bytes; the rest are structure-blind.
 */
void
mutate(util::Rng &rng, std::vector<uint8_t> &bytes,
       const std::vector<size_t> &enum_offsets)
{
    static const uint64_t kHuge[] = {
        ~0ULL, 1ULL << 62, 1ULL << 40, 1ULL << 32, (1ULL << 31) + 1,
    };
    switch (rng.uniformInt(6)) {
      case 0: // bit flips
        for (uint64_t n = 1 + rng.uniformInt(4); n > 0; --n)
            bytes[rng.uniformInt(bytes.size())] ^=
                static_cast<uint8_t>(1u << rng.uniformInt(8));
        break;
      case 1: { // a huge value over any 8 bytes: length prefixes
        const uint64_t huge = kHuge[rng.uniformInt(5)];
        const size_t at = rng.uniformInt(bytes.size() - 7);
        std::memcpy(bytes.data() + at, &huge, sizeof(huge));
        break;
      }
      case 2: // an enum byte out of range
        bytes[enum_offsets[rng.uniformInt(enum_offsets.size())]] =
            static_cast<uint8_t>(rng.next());
        break;
      case 3: // truncated
        bytes.resize(rng.uniformInt(bytes.size()));
        break;
      case 4: // over-long
        for (uint64_t n = 1 + rng.uniformInt(16); n > 0; --n)
            bytes.push_back(static_cast<uint8_t>(rng.next()));
        break;
      default: // random bytes
        for (uint64_t n = 1 + rng.uniformInt(4); n > 0; --n)
            bytes[rng.uniformInt(bytes.size())] =
                static_cast<uint8_t>(rng.next());
        break;
    }
}

TEST(DecoderFuzzTest, JournalRecordsRoundTrip)
{
    util::Rng rng(0x10ad5eedULL);
    for (size_t i = 0; i < kRoundTrips; ++i) {
        const std::vector<uint8_t> payload =
            journalPayload(randomRecord(rng));
        JournalRecord got;
        ASSERT_TRUE(readFramed(payload, &got)) << "trial " << i;
        ASSERT_EQ(journalPayload(got), payload) << "trial " << i;
    }
}

TEST(DecoderFuzzTest, JournalParserRejectsHostilePayloads)
{
    util::Rng rng(0xf022a11ULL);
    size_t rejected = 0;
    for (size_t i = 0; i < kMutations; ++i) {
        std::vector<uint8_t> bytes = journalPayload(randomRecord(rng));
        mutate(rng, bytes, {0}); // byte 0 is the record type
        JournalRecord got;
        if (!readFramed(bytes, &got)) {
            ++rejected;
            continue;
        }
        // Accepted: a well-formed record of that exact size, holding
        // no more elements than the payload has bytes.
        ASSERT_EQ(journalPayload(got).size(), bytes.size())
            << "trial " << i;
        ASSERT_LE(got.prompt.size() + got.tokens.size() +
                      got.logProbs.size() + got.llm.size() +
                      got.expansion.size(),
                  bytes.size())
            << "trial " << i;
    }
    EXPECT_GT(rejected, kMutations / 4);
}

TEST(DecoderFuzzTest, JournalParserRejectsOutOfRangeEnumBytes)
{
    // The priority indexes per-class arrays and the stop reason
    // selects a counter when the record is applied, so a
    // CRC-consistent record carrying either out of range must read
    // as a torn tail, not reach the manager.
    JournalRecord submit;
    submit.type = RecordType::Submit;
    submit.priority = runtime::kPriorityCount - 1;
    submit.prompt = {1, 2, 3};
    std::vector<uint8_t> bytes = journalPayload(submit);
    JournalRecord got;
    ASSERT_TRUE(readFramed(bytes, &got));
    // Type byte, then five u64 fields: the priority byte is at 41.
    for (unsigned priority = runtime::kPriorityCount; priority < 256;
         ++priority) {
        bytes[41] = static_cast<uint8_t>(priority);
        EXPECT_FALSE(readFramed(bytes, &got)) << priority;
    }

    JournalRecord finish;
    finish.type = RecordType::Finish;
    finish.stopReason = static_cast<uint8_t>(kShed);
    bytes = journalPayload(finish);
    ASSERT_TRUE(readFramed(bytes, &got));
    // Type byte and the u64 id: the stop reason is at 9.
    for (unsigned stop = static_cast<unsigned>(kShed) + 1; stop < 256;
         ++stop) {
        bytes[9] = static_cast<uint8_t>(stop);
        EXPECT_FALSE(readFramed(bytes, &got)) << stop;
    }
}

TEST(DecoderFuzzTest, WireMessagesRoundTrip)
{
    util::Rng rng(0x3e55a9eULL);
    for (size_t i = 0; i < kRoundTrips; ++i) {
        const std::vector<uint8_t> bytes =
            ipc::encodeMessage(randomMessage(rng));
        ipc::Message got;
        ASSERT_TRUE(ipc::decodeMessage(bytes, &got)) << "trial " << i;
        ASSERT_EQ(ipc::encodeMessage(got), bytes) << "trial " << i;
    }
}

TEST(DecoderFuzzTest, WireDecoderRejectsHostilePayloads)
{
    // Version u32, then the type byte at 4; six u64 fields later the
    // reject byte at 53.
    const std::vector<size_t> kEnumOffsets = {4, 53};
    util::Rng rng(0xbadf2a3eULL);
    size_t rejected = 0;
    for (size_t i = 0; i < kMutations; ++i) {
        std::vector<uint8_t> bytes =
            ipc::encodeMessage(randomMessage(rng));
        mutate(rng, bytes, kEnumOffsets);
        ipc::Message got;
        if (!ipc::decodeMessage(bytes, &got)) {
            ++rejected;
            continue;
        }
        // Accepted: every field is stored raw, so re-encoding must
        // reproduce the input exactly.
        ASSERT_EQ(ipc::encodeMessage(got), bytes) << "trial " << i;
    }
    EXPECT_GT(rejected, kMutations / 4);
}

TEST(DecoderFuzzTest, WireDecoderRejectsOutOfRangeRejectByte)
{
    ipc::Message msg;
    msg.type = ipc::MsgType::Reject;
    msg.reject = ipc::WireReject::Overloaded;
    std::vector<uint8_t> bytes = ipc::encodeMessage(msg);
    ipc::Message got;
    ASSERT_TRUE(ipc::decodeMessage(bytes, &got));
    EXPECT_EQ(got.reject, ipc::WireReject::Overloaded);
    for (unsigned reject = 6; reject < 256; ++reject) {
        bytes[53] = static_cast<uint8_t>(reject);
        EXPECT_FALSE(ipc::decodeMessage(bytes, &got)) << reject;
    }
}

} // namespace
} // namespace specinfer
