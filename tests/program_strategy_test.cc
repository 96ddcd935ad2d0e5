// ProgramStrategy: one compiled plan per program source, the checkpoint
// format, restores that fail without side effects, and PeekBids.

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/formula_parser.h"
#include "program_state_fixture.h"
#include "strategy/program_strategy.h"

namespace ssa {
namespace {

using program_state_fixture::BidRows;
using program_state_fixture::FixtureAccount;
using program_state_fixture::FixtureKeywords;
using program_state_fixture::FixtureQuery;
using program_state_fixture::kProgram;
using program_state_fixture::RunFixtureAuctions;
using program_state_fixture::SaveStateOf;

// SaveState of the fixture strategy after RunFixtureAuctions, as written by
// the checkpoint format before plans were shared and cells shrank to 16
// bytes. Restoring it must keep working byte for byte.
constexpr const char kGoldenStateHex[] =
    "0400000002030000006b77300205000000436c69636b01000000000000144001"
    "3333333333330340010000000000000000019a9999999999e93f02030000006b"
    "7731020f00000028436c69636b202620536c6f743129010000000000001c4001"
    "0000000000001140010000000000000040019a9999999999e93f020700000063"
    "6c69636b6564020800000050757263686173650001000000000000f03f010000"
    "00000000000001000000000000f03f02030000006b77330205000000436c6963"
    "6b01000000000000224001000000000000f83f010000000000000000019a9999"
    "999999e93f030000000205000000436c69636b010000000000000000020f0000"
    "0028436c69636b202620536c6f74312901000000000000004002080000005075"
    "726368617365010000000000000000";

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(std::string(hex.substr(i, 2)), nullptr,
                                    16)));
  }
  return bytes;
}

std::unique_ptr<ProgramStrategy> MustCreate(
    std::string_view source,
    std::vector<ProgramStrategy::KeywordSpec> keywords = FixtureKeywords()) {
  auto strategy = ProgramStrategy::Create(source, std::move(keywords));
  EXPECT_TRUE(strategy.ok()) << strategy.status().ToString();
  return strategy.ok() ? *std::move(strategy) : nullptr;
}

// Each test runs its own source (a distinct trailing comment) so that no
// other test's strategies hold its plan.
std::string SourceFor(std::string_view test) {
  return std::string(kProgram) + "-- " + std::string(test) + "\n";
}

TEST(ProgramPlanTest, SameSourceSharesOnePlan) {
  const std::string source = SourceFor("same source");
  auto a = MustCreate(source);
  auto b = MustCreate(source);
  ASSERT_NE(a->plan(), nullptr);
  EXPECT_EQ(a->plan().get(), b->plan().get());

  // Sharing the plan shares nothing else: the two run independently.
  RunFixtureAuctions(a.get());
  EXPECT_NE(SaveStateOf(*a), SaveStateOf(*b));
}

TEST(ProgramPlanTest, DifferentSourceGetsDifferentPlan) {
  auto a = MustCreate(SourceFor("different source a"));
  auto b = MustCreate(SourceFor("different source b"));
  EXPECT_NE(a->plan().get(), b->plan().get());
}

TEST(ProgramPlanTest, PlanIsFreedWithItsLastStrategy) {
  const std::string source = SourceFor("plan lifetime");
  std::weak_ptr<const lang::CompiledProgram> plan;
  {
    auto a = MustCreate(source);
    plan = a->plan();
    {
      auto b = MustCreate(source);
      EXPECT_EQ(b->plan().get(), a->plan().get());
    }
    EXPECT_FALSE(plan.expired());  // `a` still runs it
  }
  EXPECT_TRUE(plan.expired());

  // A later Create() of the source compiles a fresh plan that behaves the
  // same.
  auto fresh = MustCreate(source);
  RunFixtureAuctions(fresh.get());
  EXPECT_EQ(SaveStateOf(*fresh), FromHex(kGoldenStateHex));
}

TEST(ProgramPlanTest, SyntaxErrorsStillFailCreate) {
  const std::string broken = "CREATE TRIGGER bid AFTER INSERT ON Query {";
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto strategy = ProgramStrategy::Create(broken, FixtureKeywords());
    EXPECT_FALSE(strategy.ok());
  }
  EXPECT_FALSE(ProgramStrategy::Create(kProgram, {}).ok());
}

TEST(ProgramPlanTest, HeavyweightKeywordFormulasFailCreate) {
  // The engine compiles bids for the Theorem 2 fast path, which aborts on
  // a HeavyInSlot formula, so Create rejects such a keyword up front.
  for (const Formula& heavy :
       {Formula::HeavyInSlot(0), Formula::Click() && Formula::HeavyInSlot(1)}) {
    std::vector<ProgramStrategy::KeywordSpec> keywords = FixtureKeywords();
    keywords[2].formula = heavy;
    auto strategy = ProgramStrategy::Create(kProgram, keywords);
    ASSERT_FALSE(strategy.ok()) << heavy.ToString();
    EXPECT_EQ(strategy.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ProgramPlanTest, ConcurrentCreateSharesOnePlanAndRunsBitwise) {
  const std::string source = SourceFor("concurrent create");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;

  std::atomic<int> ready{0};
  std::vector<std::vector<std::unique_ptr<ProgramStrategy>>> created(
      kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        created[t].push_back(MustCreate(source));
      }
      // Run every strategy on this thread while the others run theirs on
      // the same plan.
      for (auto& strategy : created[t]) RunFixtureAuctions(strategy.get());
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::string golden = FromHex(kGoldenStateHex);
  const lang::CompiledProgram* plan = created[0][0]->plan().get();
  for (const auto& per_thread : created) {
    for (const auto& strategy : per_thread) {
      EXPECT_EQ(strategy->plan().get(), plan);
      EXPECT_EQ(SaveStateOf(*strategy), golden);
    }
  }
}

TEST(ProgramCheckpointTest, GoldenStateBytesAreUnchanged) {
  auto strategy = MustCreate(kProgram);
  RunFixtureAuctions(strategy.get());
  const std::string golden = FromHex(kGoldenStateHex);
  ASSERT_EQ(golden.size(), 303u);
  EXPECT_EQ(SaveStateOf(*strategy), golden);

  // A fresh strategy restored from the golden bytes saves them back and
  // bids exactly like the strategy that wrote them.
  auto restored = MustCreate(kProgram);
  ASSERT_TRUE(restored->RestoreState(golden).ok());
  EXPECT_EQ(SaveStateOf(*restored), golden);
  const AdvertiserAccount account = FixtureAccount();
  for (int64_t time = 7; time <= 10; ++time) {
    BidsTable want;
    BidsTable got;
    strategy->MakeBids(FixtureQuery(time), account, &want);
    restored->MakeBids(FixtureQuery(time), account, &got);
    EXPECT_EQ(BidRows(got), BidRows(want)) << "time " << time;
  }
  EXPECT_EQ(SaveStateOf(*restored), SaveStateOf(*strategy));
}

TEST(ProgramCheckpointTest, APopulationSharesItsKeywordCells) {
  // Strategies created from equal keyword lists share every keyword and
  // formula text; a different list gets its own cells, and the state bytes
  // never depend on which list came before.
  const std::string source = SourceFor("shared cells");
  auto a = MustCreate(source);
  auto b = MustCreate(source);  // an equal list with new Click & Slot1 nodes
  const Table& a_keywords = *a->tables().table(0);
  const Table& b_keywords = *b->tables().table(0);
  const Table& a_bids = *a->tables().table(1);
  ASSERT_EQ(a_bids.num_rows(), 3);  // Click, (Click & Slot1), Purchase
  for (int kw = 0; kw < a_keywords.num_rows(); ++kw) {
    for (const int col : {0, 1}) {  // text, formula
      EXPECT_EQ(&a_keywords.At(kw, col).str(), &b_keywords.At(kw, col).str());
    }
  }
  EXPECT_EQ(&a_keywords.At(3, 1).str(), &a_bids.At(0, 0).str());

  const Formula top_click = Formula::Click() && Formula::Slot(0);
  const Formula top_click_again = Formula::Click() && Formula::Slot(0);
  auto other =
      MustCreate(source, {{"x0", top_click}, {"x1", top_click_again}});
  const Table& other_keywords = *other->tables().table(0);
  EXPECT_EQ(other_keywords.At(0, 0).str(), "x0");
  EXPECT_EQ(other->tables().table(1)->num_rows(), 1);  // structurally equal
  EXPECT_EQ(&other_keywords.At(0, 1).str(), &other_keywords.At(1, 1).str());

  auto again = MustCreate(source);
  EXPECT_EQ(SaveStateOf(*again), SaveStateOf(*a));
  EXPECT_EQ(SaveStateOf(*b), SaveStateOf(*a));
}

// Ten Click keywords, a few auctions in: the shape of a typical bidder.
std::unique_ptr<ProgramStrategy> TenKeywordStrategy() {
  std::vector<ProgramStrategy::KeywordSpec> keywords;
  for (int kw = 0; kw < 10; ++kw) {
    keywords.push_back({"kw" + std::to_string(kw), Formula::Click()});
  }
  return MustCreate(kProgram, std::move(keywords));
}

AdvertiserAccount TenKeywordAccount() {
  AdvertiserAccount account;
  account.target_spend_rate = 1.0;
  account.value_per_click.assign(10, 6);
  account.max_bid.assign(10, 6);
  account.value_gained.assign(10, 1);
  account.spent_per_keyword.assign(10, 1);
  return account;
}

Query TenKeywordQuery(int64_t time) {
  Query query;
  query.time = time;
  query.keyword = static_cast<int>(time % 10);
  query.relevance.assign(10, 0.0);
  query.relevance[query.keyword] = 1.0;
  return query;
}

TEST(ProgramCheckpointTest, FailedRestoreLeavesStrategyUnchanged) {
  auto strategy = TenKeywordStrategy();
  auto twin = TenKeywordStrategy();
  const AdvertiserAccount account = TenKeywordAccount();
  for (int64_t time = 1; time <= 12; ++time) {
    BidsTable ours;
    BidsTable theirs;
    strategy->MakeBids(TenKeywordQuery(time), account, &ours);
    twin->MakeBids(TenKeywordQuery(time), account, &theirs);
  }
  const std::string before = SaveStateOf(*strategy);

  // The blob ends with the Bids table: one row, ('Click', value), 23 bytes.
  constexpr size_t kBidsBytes = 23;
  ASSERT_EQ(before.substr(before.size() - kBidsBytes, 14),
            std::string("\x01\0\0\0\x02\x05\0\0\0Click", 14));
  const std::string keywords_part =
      before.substr(0, before.size() - kBidsBytes);
  const std::string number_cell = "\x01" + std::string(8, '\0');

  // Blobs that each fail a different check.
  std::string bad_formula = before;
  bad_formula[before.size() - kBidsBytes + 9] = '#';  // "#lick" won't parse
  std::string bad_tag = before;
  bad_tag[before.size() - kBidsBytes + 4] = 7;
  auto other = MustCreate(kProgram);  // four keywords, not ten
  // The Bids row with another formula text, which parses but is
  // heavyweight: the engine could not compile its bids.
  const auto heavy_bids = [&](const std::string& text) {
    EXPECT_TRUE(ParseFormula(text).ok()) << text;
    return keywords_part + std::string("\x01\0\0\0\x02", 5) +
           static_cast<char>(text.size()) + std::string(3, '\0') + text +
           number_cell;
  };
  ASSERT_EQ(heavy_bids("Click"), before.substr(0, before.size() - 9) +
                                     number_cell);  // the framing is right
  const std::vector<std::string> heavy_blobs = {heavy_bids("Heavy1"),
                                                heavy_bids("Click & Heavy2")};
  for (const std::string& blob : heavy_blobs) {
    EXPECT_EQ(strategy->RestoreState(blob).code(),
              StatusCode::kInvalidArgument);
  }
  const std::vector<std::string> bad_blobs = {
      heavy_blobs[0],
      heavy_blobs[1],
      before.substr(0, before.size() / 3),
      before.substr(0, before.size() - 1),
      before + std::string(1, '\0'),
      bad_formula,
      bad_tag,
      keywords_part + std::string("\x01\0\0\0", 4) + number_cell +
          number_cell,                                 // formula not a string
      keywords_part + std::string("\xff\xff\xff\x7f"),  // huge row count
      SaveStateOf(*other),                             // wrong keyword count
      std::string(4, '\xff'),
  };
  for (size_t i = 0; i < bad_blobs.size(); ++i) {
    EXPECT_FALSE(strategy->RestoreState(bad_blobs[i]).ok()) << "blob " << i;
    ASSERT_EQ(SaveStateOf(*strategy), before) << "blob " << i;
  }

  // It still bids, exactly like its untouched twin.
  EXPECT_DOUBLE_EQ(strategy->TentativeBid(9), twin->TentativeBid(9));
  for (int64_t time = 13; time <= 20; ++time) {
    BidsTable want;
    BidsTable got;
    twin->MakeBids(TenKeywordQuery(time), account, &want);
    strategy->MakeBids(TenKeywordQuery(time), account, &got);
    ASSERT_EQ(BidRows(got), BidRows(want)) << "time " << time;
  }
  EXPECT_EQ(SaveStateOf(*strategy), SaveStateOf(*twin));
}

TEST(ProgramPeekBidsTest, EmitsMakeBidsBidsAndKeepsState) {
  auto strategy = MustCreate(kProgram);
  auto twin = MustCreate(kProgram);
  RunFixtureAuctions(strategy.get());
  RunFixtureAuctions(twin.get());
  const AdvertiserAccount account = FixtureAccount();
  for (int64_t time = 7; time <= 14; ++time) {
    const Query query = FixtureQuery(time);
    const std::string before = SaveStateOf(*strategy);
    BidsTable peeked;
    strategy->PeekBids(query, account, &peeked);
    EXPECT_EQ(SaveStateOf(*strategy), before) << "time " << time;

    // The bids MakeBids emits for the same auction, which then advances
    // both strategies together.
    BidsTable made;
    twin->MakeBids(query, account, &made);
    EXPECT_EQ(BidRows(peeked), BidRows(made)) << "time " << time;
    BidsTable scratch;
    strategy->MakeBids(query, account, &scratch);
    EXPECT_EQ(SaveStateOf(*strategy), SaveStateOf(*twin));
  }
}

}  // namespace
}  // namespace ssa
