// Seed-swept mutation fuzzing of the ProgramStrategy checkpoint decoder.
// Saved states of real strategies are truncated, byte-flipped, spliced,
// given bad type tags, huge row counts and heavyweight formula cells, and
// fed to RestoreState. Every input must either restore, after which
// SaveState returns exactly the input (the encoding is canonical) and every
// Bids formula is one the engine can compile, or return an error Status and
// leave the strategy byte-identical and bidding like an untouched twin.

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/formula_parser.h"
#include "program_state_fixture.h"
#include "strategy/program_strategy.h"
#include "util/rng.h"

namespace ssa {
namespace {

using program_state_fixture::BidRows;
using program_state_fixture::FixtureAccount;
using program_state_fixture::FixtureKeywords;
using program_state_fixture::FixtureQuery;
using program_state_fixture::kProgram;
using program_state_fixture::RunFixtureAuctions;
using program_state_fixture::SaveStateOf;

std::unique_ptr<ProgramStrategy> FixtureStrategy(
    std::vector<ProgramStrategy::KeywordSpec> keywords = FixtureKeywords()) {
  auto strategy = ProgramStrategy::Create(kProgram, std::move(keywords));
  SSA_CHECK(strategy.ok());
  return *std::move(strategy);
}

/// Valid states to mutate: fresh, mid-run and final fixture states, plus a
/// strategy with another keyword count.
std::vector<std::string> CorpusBlobs() {
  std::vector<std::string> corpus;
  auto strategy = FixtureStrategy();
  corpus.push_back(SaveStateOf(*strategy));
  const AdvertiserAccount account = FixtureAccount();
  for (int64_t time = 1; time <= 3; ++time) {
    BidsTable bids;
    strategy->MakeBids(FixtureQuery(time), account, &bids);
  }
  corpus.push_back(SaveStateOf(*strategy));
  auto finished = FixtureStrategy();
  RunFixtureAuctions(finished.get());
  corpus.push_back(SaveStateOf(*finished));
  auto two_keywords = FixtureStrategy(
      {{"boots", Formula::Click()}, {"shoes", Formula::Purchase()}});
  corpus.push_back(SaveStateOf(*two_keywords));
  return corpus;
}

void PutU32At(std::string* blob, size_t pos, uint32_t v) {
  if (pos + sizeof(v) > blob->size()) return;
  std::memcpy(&(*blob)[pos], &v, sizeof(v));
}

/// One to three stacked mutations of a corpus blob.
std::string Mutate(Rng* rng, const std::vector<std::string>& corpus) {
  std::string blob = corpus[rng->NextBounded(corpus.size())];
  const int rounds = 1 + static_cast<int>(rng->NextBounded(3));
  for (int round = 0; round < rounds && !blob.empty(); ++round) {
    const size_t pos = rng->NextBounded(blob.size());
    switch (rng->NextBounded(7)) {
      case 0:  // truncate
        blob.resize(pos);
        break;
      case 1:  // flip bits of one byte
        blob[pos] = static_cast<char>(blob[pos] ^ (1 + rng->NextBounded(255)));
        break;
      case 2: {  // splice: a prefix of this blob, a suffix of another
        const std::string& other = corpus[rng->NextBounded(corpus.size())];
        blob = blob.substr(0, pos) + other.substr(rng->NextBounded(
                                         other.size() + 1));
        break;
      }
      case 3: {  // a type tag, valid or not
        static const uint8_t kTags[] = {0, 1, 2, 3, 0x7f, 0xff};
        blob[pos] = static_cast<char>(kTags[rng->NextBounded(6)]);
        break;
      }
      case 4: {  // a huge or off-by-one count at the front or anywhere
        static const uint32_t kCounts[] = {0xffffffffu, 0x7fffffffu,
                                           0x10000u, 5u, 3u};
        PutU32At(&blob, rng->Bernoulli(0.5) ? 0 : pos,
                 kCounts[rng->NextBounded(5)]);
        break;
      }
      case 5: {  // drop or duplicate a short range
        const size_t len = 1 + rng->NextBounded(16);
        if (rng->Bernoulli(0.5)) {
          blob.erase(pos, len);
        } else {
          blob.insert(pos, blob.substr(pos, len));
        }
        break;
      }
      case 6: {  // the last Click cell, a Bids row's, turns heavyweight
        const std::string click("\x05\0\0\0Click", 9);
        const size_t at = blob.rfind(click);
        if (at != std::string::npos) {
          blob.replace(at, click.size(), std::string("\x06\0\0\0Heavy1", 10));
        }
        break;
      }
    }
  }
  return blob;
}

class ProgramStateFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProgramStateFuzzTest, EveryInputRestoresOrLeavesStateUnchanged) {
  const std::vector<std::string> corpus = CorpusBlobs();
  auto target = FixtureStrategy();
  auto twin = FixtureStrategy();
  RunFixtureAuctions(target.get());
  RunFixtureAuctions(twin.get());
  const std::string pristine = SaveStateOf(*target);
  const AdvertiserAccount account = FixtureAccount();

  Rng rng(GetParam());
  int restored = 0;
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const std::string input = Mutate(&rng, corpus);
    const Status status = target->RestoreState(input);
    if (status.ok()) {
      ++restored;
      ASSERT_EQ(SaveStateOf(*target), input) << "iter " << iter;
      // Every restored Bids formula is one the engine can compile.
      const Table& bid_rows = *target->tables().table(1);
      for (int row = 0; row < bid_rows.num_rows(); ++row) {
        ASSERT_TRUE(ParseFormula(bid_rows.At(row, 0).str())
                        ->DependsOnlyOnOwnPlacement())
            << "iter " << iter;
      }
      ASSERT_TRUE(target->RestoreState(pristine).ok());
      continue;
    }
    ++rejected;
    ASSERT_FALSE(status.message().empty());
    ASSERT_EQ(SaveStateOf(*target), pristine)
        << "iter " << iter << ": " << status.ToString();
    if (rejected % 64 == 1) {  // and it still bids like the twin
      const Query query = FixtureQuery(7 + iter % 4);
      BidsTable want;
      BidsTable got;
      twin->PeekBids(query, account, &want);
      target->PeekBids(query, account, &got);
      ASSERT_EQ(BidRows(got), BidRows(want)) << "iter " << iter;
    }
  }
  // The sweep must reach both outcomes.
  EXPECT_GT(restored, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramStateFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace ssa
