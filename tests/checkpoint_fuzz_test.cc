// Seed-swept mutation fuzzing of the checkpoint reader, DecodeCheckpoint,
// which a server's Start() and a follower's bootstrap both run on files off
// disk. A real engine checkpoint is truncated, bit-flipped and given lying
// header lengths; most mutated payloads are re-sealed with a valid CRC, so
// the payload decoder behind the checksum is fuzzed too, including forged
// element counts. Every input must end in a defined Status; an image that
// decodes re-encodes canonically and goes through RestoreCheckpoint into a
// fresh engine, which must also end in a defined Status.

#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "auction/sharded_engine.h"
#include "durability/checkpoint.h"
#include "durability/wire.h"
#include "strategy/roi_strategy.h"
#include "util/rng.h"
#include "util/status.h"

namespace ssa {
namespace {

// "SSACKPT1" magic, u32 version, u64 payload_len, u32 crc32(payload).
constexpr size_t kVersionAt = 8;
constexpr size_t kLengthAt = 12;
constexpr size_t kHeaderBytes = 24;
// Payload: seq, revenue, the four user-RNG words, three shape fields, then
// the account count.
constexpr size_t kAccountCountAt = 8 + 8 + 32 + 3 * 4;

constexpr uint64_t kEngineSeed = 73;

WorkloadConfig SmallConfig() {
  WorkloadConfig config;
  config.num_advertisers = 30;
  config.num_slots = 4;
  config.num_keywords = 3;
  config.seed = 71;
  return config;
}

std::unique_ptr<ShardedAuctionEngine> MakeEngine() {
  Workload w = MakePaperWorkload(SmallConfig());
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  for (int i = 0; i < w.config.num_advertisers; ++i) {
    strategies.push_back(std::make_unique<RoiStrategy>(w.keyword_formulas));
  }
  ShardedEngineConfig config;
  config.engine.seed = kEngineSeed;
  config.num_shards = 2;
  return std::make_unique<ShardedAuctionEngine>(config, std::move(w),
                                                std::move(strategies));
}

/// A real checkpoint image, taken mid-run so accounts and strategy blobs
/// hold non-trivial state.
std::string RealImage() {
  auto engine = MakeEngine();
  QueryGenerator queries(SmallConfig().num_keywords, kEngineSeed);
  for (int i = 0; i < 25; ++i) engine->RunAuctionOn(queries.Next());
  EngineCheckpoint ckpt;
  engine->CaptureCheckpoint(&ckpt);
  std::string image;
  EncodeCheckpoint(ckpt, &image);
  return image;
}

void PutU32At(std::string* data, size_t pos, uint32_t v) {
  if (pos + sizeof(v) > data->size()) return;
  std::memcpy(&(*data)[pos], &v, sizeof(v));
}

/// Wraps `payload` in a current-version header with its true length and
/// CRC, so the decoder sees whatever the payload holds.
std::string Seal(std::string_view payload) {
  std::string image = "SSACKPT1";
  WireWriter w(&image);
  w.PutU32(EngineCheckpoint::kVersion);
  w.PutU64(payload.size());
  w.PutU32(Crc32(payload));
  image.append(payload);
  return image;
}

/// Offset of the strategy-state count in `image`'s payload.
size_t StrategyCountAt(std::string_view image) {
  EngineCheckpoint ckpt;
  EXPECT_TRUE(DecodeCheckpoint(image, &ckpt).ok());
  ckpt.strategy_state.clear();
  std::string without;
  EncodeCheckpoint(ckpt, &without);
  return without.size() - kHeaderBytes - 4;  // the now-empty list's count
}

const uint32_t kCounts[] = {0xffffffffu, 0x7fffffffu, 0x10000u, 31u, 29u,
                            7u,          1u,          0u};

/// One payload mutation: a flip, an erase, a duplicate, or a lying element
/// count written over four bytes, at a random spot or at one of the two
/// list counts.
void MutatePayload(Rng* rng, size_t strategy_count_at, std::string* payload) {
  if (payload->empty()) return;
  const size_t pos = rng->NextBounded(payload->size());
  switch (rng->NextBounded(5)) {
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
    case 3:
      PutU32At(payload, pos, kCounts[rng->NextBounded(std::size(kCounts))]);
      break;
    case 4:
      PutU32At(payload,
               rng->Bernoulli(0.5) ? kAccountCountAt : strategy_count_at,
               kCounts[rng->NextBounded(std::size(kCounts))]);
      break;
  }
}

/// One fuzz input derived from the intact image.
std::string Mutate(Rng* rng, const std::string& image,
                   size_t strategy_count_at) {
  std::string data = image;
  const int rounds = 1 + static_cast<int>(rng->NextBounded(3));
  for (int round = 0; round < rounds && !data.empty(); ++round) {
    const size_t pos = rng->NextBounded(data.size());
    switch (rng->NextBounded(4)) {
      case 0:  // truncate
        data.resize(pos);
        break;
      case 1:  // flip one bit (anywhere: the CRC or the header catches it)
        data[pos] = static_cast<char>(data[pos] ^ (1 << rng->NextBounded(8)));
        break;
      case 2: {  // length lie in the header
        if (data.size() < kHeaderBytes) break;
        uint64_t len = 0;
        std::memcpy(&len, &data[kLengthAt], sizeof(len));
        const uint64_t lies[] = {0, len - 1, len + 1, ~uint64_t{0},
                                 rng->NextU64()};
        const uint64_t lie = lies[rng->NextBounded(std::size(lies))];
        std::memcpy(&data[kLengthAt], &lie, sizeof(lie));
        break;
      }
      default: {  // forge: mutate the payload, then re-seal it
        if (data.size() < kHeaderBytes) break;
        std::string payload = data.substr(kHeaderBytes);
        MutatePayload(rng, strategy_count_at, &payload);
        data = Seal(payload);
        break;
      }
    }
  }
  return data;
}

/// Outcome tallies over a sweep.
struct Tally {
  int decoded = 0;
  int rejected = 0;
  int restored = 0;
};

/// Runs one input through the reader and, when it decodes, through a
/// restore into a fresh engine, checking each result is a defined Status.
void CheckInput(std::string_view input, Tally* tally) {
  EngineCheckpoint ckpt;
  const Status decoded = DecodeCheckpoint(input, &ckpt);
  if (!decoded.ok()) {
    ++tally->rejected;
    EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument)
        << decoded.ToString();
    return;
  }
  ++tally->decoded;
  // A decoded image re-encodes canonically: encode, decode, encode is a
  // fixed point.
  std::string once;
  EncodeCheckpoint(ckpt, &once);
  EngineCheckpoint again;
  ASSERT_TRUE(DecodeCheckpoint(once, &again).ok());
  std::string twice;
  EncodeCheckpoint(again, &twice);
  EXPECT_TRUE(once == twice);

  auto engine = MakeEngine();
  const Status restored = engine->RestoreCheckpoint(ckpt);
  if (restored.ok()) {
    ++tally->restored;
  } else {
    EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument)
        << restored.ToString();
  }
}

TEST(CheckpointDecodeTest, IntactImageDecodesAndRestores) {
  Tally tally;
  CheckInput(RealImage(), &tally);
  EXPECT_EQ(tally.restored, 1);
}

TEST(CheckpointDecodeTest, ForgedCountsAreInvalidArgument) {
  // A forged list count behind a valid CRC must be refused before anything
  // is sized from it: an unchecked resize to 0x7fffffff accounts would ask
  // for over 200 GB and abort the process.
  // Each count is refused by its own list's check, so the offsets the
  // fuzz sweep forges at really are the two counts.
  const std::string image = RealImage();
  const std::string payload = image.substr(kHeaderBytes);
  uint32_t accounts = 0;
  std::memcpy(&accounts, &payload[kAccountCountAt], sizeof(accounts));
  ASSERT_EQ(accounts, static_cast<uint32_t>(SmallConfig().num_advertisers));
  const struct {
    size_t at;
    const char* error;
  } lists[] = {{kAccountCountAt, "short read: account list"},
               {StrategyCountAt(image), "short read: strategy state list"}};
  for (const auto& list : lists) {
    for (const uint32_t count : {0x7fffffffu, 0xffffffffu, 0x10000u}) {
      SCOPED_TRACE("count " + std::to_string(count) + " at " +
                   std::to_string(list.at));
      std::string forged = payload;
      PutU32At(&forged, list.at, count);
      EngineCheckpoint ckpt;
      const Status status = DecodeCheckpoint(Seal(forged), &ckpt);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(status.ToString().find(list.error), std::string::npos)
          << status.ToString();
    }
  }
}

TEST(CheckpointDecodeTest, AccountOfTheWrongShapeIsNotRestored) {
  // A well-formed image whose first account lost a per-keyword entry decodes,
  // but settlement would index past that vector's end: restore refuses it
  // and leaves the engine untouched.
  EngineCheckpoint ckpt;
  ASSERT_TRUE(DecodeCheckpoint(RealImage(), &ckpt).ok());
  ckpt.accounts[0].spent_per_keyword.pop_back();
  auto engine = MakeEngine();
  const Status status = engine->RestoreCheckpoint(ckpt);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->auctions_run(), 0);
}

TEST(CheckpointDecodeTest, EveryTruncationIsRejected) {
  const std::string image = RealImage();
  Tally tally;
  for (size_t cut = 0; cut < image.size(); ++cut) {
    CheckInput(std::string_view(image).substr(0, cut), &tally);
  }
  EXPECT_EQ(tally.decoded, 0);
}

TEST(CheckpointDecodeTest, OtherVersionsAreRejected) {
  // Version 1 images carried compiled-bids cache keys and version 2 images
  // an engine-owned query generator's state; both are refused.
  const std::string image = RealImage();
  for (const uint32_t version : {0u, 1u, 2u, 4u}) {
    std::string other = image;
    PutU32At(&other, kVersionAt, version);
    EngineCheckpoint ckpt;
    const Status status = DecodeCheckpoint(other, &ckpt);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.ToString().find("unsupported checkpoint version"),
              std::string::npos)
        << status.ToString();
  }
}

class CheckpointFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CheckpointFuzzTest, EveryInputEndsInADefinedStatus) {
  const std::string image = RealImage();
  const size_t strategy_count_at = StrategyCountAt(image);
  Rng rng(GetParam() * 7919 + 3);
  Tally tally;
  for (int iter = 0; iter < 1500; ++iter) {
    SCOPED_TRACE("iter " + std::to_string(iter));
    CheckInput(Mutate(&rng, image, strategy_count_at), &tally);
    if (HasFailure()) return;
  }
  // The sweep must reach both outcomes, and some forged image must restore.
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.decoded, 0);
  EXPECT_GT(tally.restored, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace ssa
