// Seed-swept mutation fuzzing of the settlement-log frame parser,
// ParseLogFrame, which crash recovery and the live log tailer share. Real
// frames are truncated, bit-flipped, spliced and given lying length
// prefixes; some mutated payloads are re-sealed with a valid CRC, so the
// payload decoder behind the checksum is fuzzed too. Every input must end
// in a defined FrameParse, no frame whose CRC fails is ever accepted, and
// an accepted frame decodes to a record that re-encodes canonically.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "durability/settlement_log.h"
#include "durability/wire.h"
#include "util/rng.h"

namespace ssa {
namespace {

constexpr size_t kHeaderBytes = 8;  // [u32 payload_len][u32 crc32]

SettlementRecord RandomRecord(Rng* rng, uint64_t seq) {
  SettlementRecord record;
  record.seq = seq;
  record.query.keyword = static_cast<int>(rng->NextBounded(8));
  record.query.time = static_cast<int64_t>(seq);
  record.query.relevance.resize(rng->NextBounded(6));
  for (double& r : record.query.relevance) r = rng->NextDouble();
  const size_t slots = rng->NextBounded(5);
  for (size_t s = 0; s < slots; ++s) {
    const bool filled = rng->Bernoulli(0.8);
    record.winners.push_back(
        filled ? static_cast<AdvertiserId>(rng->NextBounded(1000)) : -1);
    record.prices.push_back(filled ? rng->Uniform(0.0, 5.0) : 0.0);
    if (!filled) continue;
    UserEvent e;
    e.advertiser = record.winners.back();
    e.slot = static_cast<SlotIndex>(s);
    e.clicked = rng->Bernoulli(0.4);
    e.purchased = e.clicked && rng->Bernoulli(0.3);
    e.charged = e.clicked ? record.prices.back() : 0.0;
    record.events.push_back(e);
    record.revenue_charged += e.charged;
  }
  record.matching_weight = rng->Uniform(0.0, 10.0);
  record.expected_revenue = rng->Uniform(0.0, 10.0);
  return record;
}

uint32_t GetU32At(std::string_view data, size_t pos) {
  uint32_t v = 0;
  std::memcpy(&v, data.data() + pos, sizeof(v));
  return v;
}

void PutU32At(std::string* data, size_t pos, uint32_t v) {
  if (pos + sizeof(v) > data->size()) return;
  std::memcpy(&(*data)[pos], &v, sizeof(v));
}

/// Frames `payload` with its true length and CRC — a forged frame whose
/// checksum passes, so the decoder sees whatever the payload holds.
std::string Seal(std::string_view payload) {
  std::string frame;
  WireWriter w(&frame);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(Crc32(payload));
  frame.append(payload);
  return frame;
}

/// Intact frames of consecutive records, and the log they make.
struct Corpus {
  std::vector<std::string> frames;
  std::string log;
};

Corpus MakeCorpus(uint64_t seed) {
  Rng rng(seed);
  Corpus corpus;
  for (uint64_t seq = 1; seq <= 12; ++seq) {
    std::string frame;
    EncodeLogFrame(RandomRecord(&rng, seq), &frame);
    corpus.log += frame;
    corpus.frames.push_back(std::move(frame));
  }
  return corpus;
}

/// Mutates one payload byte range: a flip, an erase, a duplicate, or a
/// lying element count written over four bytes.
void MutatePayload(Rng* rng, std::string* payload) {
  if (payload->empty()) return;
  const size_t pos = rng->NextBounded(payload->size());
  switch (rng->NextBounded(4)) {
    case 0:
      (*payload)[pos] =
          static_cast<char>((*payload)[pos] ^ (1 + rng->NextBounded(255)));
      break;
    case 1:
      payload->erase(pos, 1 + rng->NextBounded(8));
      break;
    case 2:
      payload->insert(pos, payload->substr(pos, 1 + rng->NextBounded(8)));
      break;
    case 3: {
      static const uint32_t kCounts[] = {0xffffffffu, 0x7fffffffu, 0x10000u,
                                         7u, 1u, 0u};
      PutU32At(payload, pos, kCounts[rng->NextBounded(6)]);
      break;
    }
  }
}

/// One fuzz input: a mutated frame or log, possibly re-sealed.
std::string Mutate(Rng* rng, const Corpus& corpus) {
  const std::string& frame =
      corpus.frames[rng->NextBounded(corpus.frames.size())];
  std::string data = rng->Bernoulli(0.5) ? frame : corpus.log;
  const int rounds = 1 + static_cast<int>(rng->NextBounded(3));
  for (int round = 0; round < rounds && !data.empty(); ++round) {
    const size_t pos = rng->NextBounded(data.size());
    switch (rng->NextBounded(5)) {
      case 0:  // truncate
        data.resize(pos);
        break;
      case 1:  // flip one bit
        data[pos] = static_cast<char>(data[pos] ^ (1 << rng->NextBounded(8)));
        break;
      case 2: {  // splice: a prefix of this, a suffix of another frame
        const std::string& other =
            corpus.frames[rng->NextBounded(corpus.frames.size())];
        data = data.substr(0, pos) +
               other.substr(rng->NextBounded(other.size() + 1));
        break;
      }
      case 3: {  // length lie in the first frame's header
        const uint32_t len = GetU32At(frame, 0);
        const uint32_t lies[] = {0u,
                                 len - 1,
                                 len + 1,
                                 len + 4096,
                                 64u << 20,
                                 (64u << 20) + 1,
                                 0xffffffffu,
                                 static_cast<uint32_t>(rng->NextU64())};
        PutU32At(&data, 0, lies[rng->NextBounded(8)]);
        break;
      }
      case 4: {  // forge: mutate the payload, then give it a valid CRC
        std::string payload = frame.substr(kHeaderBytes);
        MutatePayload(rng, &payload);
        data = Seal(payload);
        break;
      }
    }
  }
  return data;
}

/// Outcome tallies over a sweep.
struct Tally {
  int records = 0;
  int incomplete = 0;
  int corrupt = 0;
};

/// Parses the frame at `data[pos]` and checks every contract of the result.
/// Returns the parse so callers can walk a log.
FrameParse CheckParse(std::string_view data, size_t pos, Tally* tally,
                      size_t* frame_bytes) {
  SettlementRecord record;
  *frame_bytes = 0;
  const FrameParse parse = ParseLogFrame(data, pos, &record, frame_bytes);
  const size_t left = data.size() - pos;
  switch (parse) {
    case FrameParse::kRecord: {
      ++tally->records;
      if (left < kHeaderBytes) {
        ADD_FAILURE() << "record accepted from a " << left << "-byte buffer";
        break;
      }
      const uint32_t len = GetU32At(data, pos);
      EXPECT_EQ(*frame_bytes, kHeaderBytes + len);
      EXPECT_LE(*frame_bytes, left);
      // Never accept a frame whose checksum fails.
      EXPECT_EQ(Crc32(data.substr(pos + kHeaderBytes, len)),
                GetU32At(data, pos + 4));
      // The decoded record re-encodes canonically: encoding it, parsing
      // that, and encoding again is a fixed point.
      std::string once;
      EncodeLogFrame(record, &once);
      SettlementRecord again;
      size_t again_bytes = 0;
      EXPECT_EQ(ParseLogFrame(once, 0, &again, &again_bytes),
                FrameParse::kRecord);
      EXPECT_EQ(again_bytes, once.size());
      std::string twice;
      EncodeLogFrame(again, &twice);
      EXPECT_EQ(once, twice);
      break;
    }
    case FrameParse::kIncomplete:
      ++tally->incomplete;
      // Only a buffer that ends inside a header or a declared payload is
      // incomplete.
      if (left >= kHeaderBytes) {
        EXPECT_LT(left - kHeaderBytes, GetU32At(data, pos));
      }
      break;
    case FrameParse::kCorrupt:
      ++tally->corrupt;
      EXPECT_GE(left, kHeaderBytes);  // a short header is never corrupt
      break;
    default:
      ADD_FAILURE() << "undefined FrameParse " << static_cast<int>(parse);
  }
  return parse;
}

/// Walks `data` from `pos` as the recovery scan does, checking each parse.
void CheckScan(std::string_view data, size_t pos, Tally* tally) {
  while (pos < data.size()) {
    size_t frame_bytes = 0;
    if (CheckParse(data, pos, tally, &frame_bytes) != FrameParse::kRecord) {
      return;
    }
    ASSERT_GT(frame_bytes, 0u);  // progress
    pos += frame_bytes;
  }
}

TEST(LogFrameTest, EveryTruncationOfAnIntactFrameIsIncomplete) {
  const Corpus corpus = MakeCorpus(7);
  Tally tally;
  for (const std::string& frame : corpus.frames) {
    size_t frame_bytes = 0;
    ASSERT_EQ(CheckParse(frame, 0, &tally, &frame_bytes),
              FrameParse::kRecord);
    ASSERT_EQ(frame_bytes, frame.size());
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      EXPECT_EQ(CheckParse(std::string_view(frame).substr(0, cut), 0, &tally,
                           &frame_bytes),
                FrameParse::kIncomplete)
          << "cut " << cut;
    }
  }
}

TEST(LogFrameTest, NoSingleBitFlipOfAnIntactFrameIsAccepted) {
  const Corpus corpus = MakeCorpus(11);
  Tally tally;
  for (const std::string& frame : corpus.frames) {
    for (size_t byte = 0; byte < frame.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = frame;
        flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
        size_t frame_bytes = 0;
        EXPECT_NE(CheckParse(flipped, 0, &tally, &frame_bytes),
                  FrameParse::kRecord)
            << "byte " << byte << " bit " << bit;
      }
    }
  }
  EXPECT_GT(tally.corrupt, 0);
}

class LogFrameFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LogFrameFuzzTest, EveryInputEndsInADefinedParse) {
  const Corpus corpus = MakeCorpus(GetParam());
  Rng rng(GetParam() * 7919 + 1);
  Tally tally;
  for (int iter = 0; iter < 3000; ++iter) {
    SCOPED_TRACE("iter " + std::to_string(iter));
    const std::string input = Mutate(&rng, corpus);
    CheckScan(input, 0, &tally);
    // A tailer resumed at a wrong offset starts mid-frame.
    if (!input.empty()) CheckScan(input, rng.NextBounded(input.size()), &tally);
    if (HasFailure()) return;
  }
  // The sweep must reach every outcome.
  EXPECT_GT(tally.records, 0);
  EXPECT_GT(tally.incomplete, 0);
  EXPECT_GT(tally.corrupt, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogFrameFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace ssa
