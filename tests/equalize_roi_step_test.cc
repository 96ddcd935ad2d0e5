// The Figure 5 classifier and ProgramStrategy's native bid step.
//
// A program is classified only when its compiled Query trigger is exactly
// Figure 5's plan; one-token near-misses stay interpreted. Every program a
// ProgramStrategy runs, classified or not, is checked differentially: the
// strategy and an interpreted twin (the same plan through
// Interpreter::Fire, tests/interpreted_twin.h) bid side by side over a
// campaign and must leave bitwise-identical tables and bids. The campaigns
// cover NaN and zero ROI, ROI ties, bids at their cap and at zero, spend
// exactly on target, relevance exactly at the 0.7 cut, and restored states
// whose bid cells are NULL, which send the native step back to the
// interpreter. Mutant and generated programs are seed-swept.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "interpreted_twin.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "program_state_fixture.h"
#include "strategy/program_strategy.h"
#include "util/rng.h"

namespace ssa {
namespace {

using program_state_fixture::BidRows;
using program_state_fixture::EncodeTables;
using program_state_fixture::StateWithBids;

constexpr const char kFigure5[] = R"sql(
CREATE TRIGGER bid AFTER INSERT ON Query
{
  IF amtSpent < targetSpendRate * time THEN
    UPDATE Keywords
    SET bid = bid + 1
    WHERE roi = ( SELECT MAX( K.roi ) FROM Keywords K )
      AND relevance > 0
      AND bid < maxbid;
  ELSEIF amtSpent > targetSpendRate * time
  THEN
    UPDATE Keywords
    SET bid = bid - 1
    WHERE roi = ( SELECT MIN( K.roi ) FROM Keywords K )
      AND relevance > 0
      AND bid > 0;
  ENDIF;
  UPDATE Bids
  SET value =
    ( SELECT SUM( K.bid ) FROM Keywords K
      WHERE K.relevance > 0.7
      AND K.formula = Bids.formula );
}
)sql";

/// `kFigure5` with the first occurrence of `from` replaced by `to`.
std::string Figure5With(const std::string& from, const std::string& to) {
  std::string source = kFigure5;
  const size_t at = source.find(from);
  SSA_CHECK_MSG(at != std::string::npos, from.c_str());
  return source.replace(at, from.size(), to);
}

// Six keywords over three formulas; kw3 and kw5 repeat earlier formulas.
std::vector<ProgramStrategy::KeywordSpec> CampaignKeywords() {
  const Formula click_slot1 = Formula::Click() && Formula::Slot(0);
  return {{"kw0", Formula::Click()},    {"kw1", click_slot1},
          {"kw2", Formula::Purchase()}, {"kw3", Formula::Click()},
          {"kw4", click_slot1},         {"kw5", Formula::Purchase()}};
}

constexpr int kCampaignKeywords = 6;

/// An account NextInputs then randomizes.
AdvertiserAccount CampaignAccount() {
  AdvertiserAccount account;
  account.value_per_click.assign(kCampaignKeywords, 3);
  account.max_bid.assign(kCampaignKeywords, 2);
  account.value_gained.assign(kCampaignKeywords, 0);
  account.spent_per_keyword.assign(kCampaignKeywords, 0);
  return account;
}

/// Randomized provider-maintained inputs, drawn from small ranges so ties,
/// caps, zeros and exact boundaries are common.
void NextInputs(Rng* rng, int64_t time, AdvertiserAccount* account,
                Query* query) {
  static const double kRelevance[] = {0.0, 0.5, 0.7, 0.8, 1.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int kw = 0; kw < kCampaignKeywords; ++kw) {
    if (rng->Bernoulli(0.1)) {
      account->max_bid[kw] = static_cast<double>(rng->UniformInt(0, 4));
    }
    // ROI = value gained / spent: 0 without spend, NaN from a NaN gain.
    account->spent_per_keyword[kw] =
        static_cast<double>(rng->UniformInt(0, 2));
    const uint64_t gain = rng->NextBounded(8);
    account->value_gained[kw] =
        gain == 7 ? nan : static_cast<double>(gain % 3);
    query->relevance[kw] = kRelevance[rng->NextBounded(5)];
  }
  query->time = time;
  query->keyword = static_cast<int>(rng->NextBounded(kCampaignKeywords));
  account->target_spend_rate = static_cast<double>(rng->UniformInt(0, 2));
  // Under, exactly on, or over target; now and then NaN spend.
  const double target =
      account->target_spend_rate * static_cast<double>(time);
  const uint64_t side = rng->NextBounded(10);
  account->amount_spent =
      side == 9 ? nan : target + (static_cast<double>(side % 3) - 1.0);
}

struct CampaignResult {
  bool native = false;  // the strategy classified the program
  Status status;        // the twin's, at the point the campaign stopped
  int auctions = 0;     // auctions both sides ran
};

/// Bids `source` through a ProgramStrategy and its interpreted twin for
/// `num_auctions` auctions and checks they stay bitwise-equal. At auction
/// 100 some bid cells are restored as NULL, and at 200 they become numbers
/// again. A program error ends the campaign: the twin fires first, and a
/// strategy would abort on the error, so it is not run on that auction.
CampaignResult RunCampaign(const std::string& source, uint64_t seed,
                           int num_auctions = 300) {
  CampaignResult result;
  auto created = ProgramStrategy::Create(source, CampaignKeywords());
  if (!created.ok()) {
    ADD_FAILURE() << "Create failed: " << created.status().ToString();
    return result;
  }
  ProgramStrategy& strategy = **created;
  result.native = strategy.native_bid_step();
  InterpretedTwin twin(strategy);
  EXPECT_EQ(EncodeTables(strategy.tables()),
            program_state_fixture::SaveStateOf(strategy));

  Rng rng(seed);
  AdvertiserAccount account = CampaignAccount();
  Query query;
  query.relevance.assign(kCampaignKeywords, 0);

  for (int t = 1; t <= num_auctions; ++t) {
    if (t == 100 || t == 200) {
      const Value bid = t == 100 ? Value::Null() : Value::Number(1);
      const std::string state =
          StateWithBids(strategy, {static_cast<int>(seed % 3), 4}, bid);
      // A program that wrote a non-string into Bids.formula has a state
      // RestoreState refuses; both sides then keep their tables.
      if (strategy.RestoreState(state).ok()) twin.CopyTables(strategy);
    }
    NextInputs(&rng, t, &account, &query);
    BidsTable want;
    twin.MakeBids(query, account, &want);
    result.status = twin.status();
    if (!result.status.ok()) return result;

    BidsTable peeked;
    const std::string before = program_state_fixture::SaveStateOf(strategy);
    strategy.PeekBids(query, account, &peeked);
    EXPECT_EQ(program_state_fixture::SaveStateOf(strategy), before)
        << "PeekBids moved the state at auction " << t;
    BidsTable made;
    strategy.MakeBids(query, account, &made);
    const std::string diff = TableDifference(strategy.tables(), twin.tables());
    if (!diff.empty() || BidRows(made) != BidRows(want) ||
        BidRows(peeked) != BidRows(want)) {
      ADD_FAILURE() << "auction " << t << ": " << diff << "\n" << source;
      return result;
    }

    if (rng.Bernoulli(0.2)) {  // an outcome, for programs with such triggers
      const SlotIndex slot = static_cast<SlotIndex>(rng.NextBounded(3));
      const bool clicked = rng.Bernoulli(0.5);
      const bool purchased = clicked && rng.Bernoulli(0.5);
      twin.OnOutcome(query, account, slot, clicked, purchased);
      result.status = twin.status();
      if (!result.status.ok()) return result;
      strategy.OnOutcome(query, account, slot, clicked, purchased);
    }
    result.auctions = t;
  }
  return result;
}

TEST(EqualizeRoiClassifierTest, ClassifiesFigure5WhateverItsSpelling) {
  const std::vector<std::string> spellings = {
      kFigure5,
      // Unqualified aggregate column, other alias, lower-case keywords,
      // another trigger name, comments: the same plan.
      Figure5With("MAX( K.roi ) FROM Keywords K", "max(roi) from Keywords X"),
      Figure5With("CREATE TRIGGER bid", "-- Figure 5\ncreate trigger equalize"),
      Figure5With("SUM( K.bid )", "SUM( Keywords.bid )"),
      // Outcome triggers ride along; they stay interpreted.
      std::string(kFigure5) +
          "CREATE TRIGGER c AFTER INSERT ON Click"
          " { UPDATE Keywords SET text = 'clicked' WHERE relevance = 1; }",
  };
  for (const std::string& source : spellings) {
    auto strategy = ProgramStrategy::Create(source, CampaignKeywords());
    ASSERT_TRUE(strategy.ok()) << source;
    EXPECT_TRUE((*strategy)->native_bid_step()) << source;
  }
  auto fixture = ProgramStrategy::Create(program_state_fixture::kProgram,
                                         CampaignKeywords());
  ASSERT_TRUE(fixture.ok());
  EXPECT_TRUE((*fixture)->native_bid_step());
}

TEST(EqualizeRoiClassifierTest, OneTokenNearMissesStayInterpreted) {
  const std::vector<std::pair<std::string, std::string>> near_misses = {
      {"bid + 1", "bid + 2"},
      {"bid - 1", "bid - 2"},
      {"bid < maxbid", "bid <= maxbid"},
      {"bid > 0", "bid >= 0"},
      {"relevance > 0\n", "relevance >= 0\n"},
      {"amtSpent > targetSpendRate", "amtSpent >= targetSpendRate"},
      {"MAX(", "MIN("},
      {"MIN(", "MAX("},
      {"bid < maxbid", "bid < maxbid AND roi > 0"},
      {"MAX( K.roi ) FROM Keywords K )",
       "MAX( K.roi ) FROM Keywords K WHERE K.relevance > 0 )"},
      {"K.relevance > 0.7", "K.relevance > 0.8"},
      {"K.relevance > 0.7", "K.relevance > 0.7 AND K.bid > 0"},
      {"ELSEIF amtSpent > targetSpendRate * time\n  THEN", "ELSE"},
      {"roi = ( SELECT MAX( K.roi ) FROM Keywords K )",
       "( SELECT MAX( K.roi ) FROM Keywords K ) = roi"},
      {"targetSpendRate * time THEN", "time * targetSpendRate THEN"},
      {"bid + 1", "1 + bid"},
      {"K.formula = Bids.formula", "Bids.formula = K.formula"},
      {"SUM( K.bid )", "SUM( K.maxbid )"},
      {"SUM(", "MAX("},
      {"AFTER INSERT ON Query", "AFTER INSERT ON Click"},
  };
  for (const auto& [from, to] : near_misses) {
    const std::string source = Figure5With(from, to);
    const CampaignResult result = RunCampaign(source, 11);
    EXPECT_FALSE(result.native) << from << " -> " << to;
    EXPECT_TRUE(result.status.ok()) << from << " -> " << to;
    EXPECT_EQ(result.auctions, 300) << from << " -> " << to;
  }
  // The missing ELSEIF with its whole branch gone, and a second trigger on
  // Query, are not Figure 5 either.
  const std::string no_elseif =
      Figure5With(R"(  ELSEIF amtSpent > targetSpendRate * time
  THEN
    UPDATE Keywords
    SET bid = bid - 1
    WHERE roi = ( SELECT MIN( K.roi ) FROM Keywords K )
      AND relevance > 0
      AND bid > 0;
)",
                  "");
  EXPECT_FALSE(RunCampaign(no_elseif, 12).native);
  const std::string twice = std::string(kFigure5) + kFigure5;
  EXPECT_FALSE(RunCampaign(twice, 13).native);
}

class EqualizeRoiCampaignTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EqualizeRoiCampaignTest, NativeStepMatchesInterpreterBitwise) {
  const CampaignResult result = RunCampaign(kFigure5, GetParam(), 600);
  EXPECT_TRUE(result.native);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.auctions, 600);
}

TEST_P(EqualizeRoiCampaignTest, NullBidFallsBackWithIdenticalTables) {
  auto created = ProgramStrategy::Create(kFigure5, CampaignKeywords());
  ASSERT_TRUE(created.ok());
  ProgramStrategy& strategy = **created;
  ASSERT_TRUE(strategy.native_bid_step());
  ASSERT_TRUE(
      strategy.RestoreState(StateWithBids(strategy, {1}, Value::Null())).ok());
  InterpretedTwin twin(strategy);

  Rng rng(GetParam());
  AdvertiserAccount account = CampaignAccount();
  Query query;
  query.relevance.assign(kCampaignKeywords, 0);
  for (int t = 1; t <= 50; ++t) {
    NextInputs(&rng, t, &account, &query);
    BidsTable want;
    BidsTable got;
    twin.MakeBids(query, account, &want);
    strategy.MakeBids(query, account, &got);
    ASSERT_TRUE(twin.status().ok());
    ASSERT_EQ(TableDifference(strategy.tables(), twin.tables()), "")
        << "auction " << t;
    ASSERT_EQ(BidRows(got), BidRows(want)) << "auction " << t;
  }
  // The program never writes a NULL bid back, so the cell stays NULL.
  EXPECT_TRUE(strategy.tables().table(0)->At(1, "bid").is_null());
}

// ---------------------------------------------------------------------------
// One-token mutants of Figure 5.
// ---------------------------------------------------------------------------

std::string Spell(const lang::Token& token) {
  using lang::TokenKind;
  switch (token.kind) {
    case TokenKind::kIdentifier:
    case TokenKind::kKeyword:
    case TokenKind::kNumber:
      return token.text;
    case TokenKind::kString:
      return "'" + token.text + "'";
    case TokenKind::kLParen:
      return "(";
    case TokenKind::kRParen:
      return ")";
    case TokenKind::kLBrace:
      return "{";
    case TokenKind::kRBrace:
      return "}";
    case TokenKind::kComma:
      return ",";
    case TokenKind::kSemicolon:
      return ";";
    case TokenKind::kDot:
      return ".";
    case TokenKind::kPlus:
      return "+";
    case TokenKind::kMinus:
      return "-";
    case TokenKind::kStar:
      return "*";
    case TokenKind::kSlash:
      return "/";
    case TokenKind::kEq:
      return "=";
    case TokenKind::kNe:
      return "<>";
    case TokenKind::kLt:
      return "<";
    case TokenKind::kLe:
      return "<=";
    case TokenKind::kGt:
      return ">";
    case TokenKind::kGe:
      return ">=";
    case TokenKind::kEnd:
      break;
  }
  return "";
}

/// One token of `tokens` replaced, deleted, duplicated or swapped with its
/// neighbour; tokens are joined by single spaces.
std::string Mutant(Rng* rng, const std::vector<std::string>& tokens) {
  static const char* const kPool[] = {
      "+",        "-",      "*",     "/",        "<",       "<=",
      ">",        ">=",     "=",     "<>",       "AND",     "OR",
      "NOT",      "MAX",    "MIN",   "SUM",      "COUNT",   "AVG",
      "0",        "1",      "2",     "0.7",      "0.8",     "bid",
      "maxbid",   "roi",    "relevance", "formula", "text",  "value",
      "K",        "Keywords", "Bids", "amtSpent", "time",   "targetSpendRate",
      "queryKeyword", "(",  ")",     ";",        "ELSE",    "ELSEIF",
      "IF",       "THEN",   "ENDIF", "Query",    "Click",   "'Click'"};
  std::vector<std::string> out = tokens;
  const size_t at = rng->NextBounded(out.size());
  switch (rng->NextBounded(4)) {
    case 0:
    case 1:
      out[at] = kPool[rng->NextBounded(std::size(kPool))];
      break;
    case 2:
      if (rng->Bernoulli(0.5)) {
        out.erase(out.begin() + static_cast<std::ptrdiff_t>(at));
      } else {
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), out[at]);
      }
      break;
    case 3:
      if (at + 1 < out.size()) std::swap(out[at], out[at + 1]);
      break;
  }
  std::string source;
  for (const std::string& token : out) source += token + " ";
  return source;
}

class EqualizeRoiMutantTest : public ::testing::TestWithParam<uint64_t> {};

// Every mutant that parses either stays interpreted or bids bitwise like
// the interpreter over a campaign; a classified mutant never fails.
TEST_P(EqualizeRoiMutantTest, MutantsStayInterpretedOrMatchBitwise) {
  auto tokens = lang::Tokenize(kFigure5);
  ASSERT_TRUE(tokens.ok());
  std::vector<std::string> spelled;
  for (const lang::Token& token : *tokens) {
    if (token.kind != lang::TokenKind::kEnd) spelled.push_back(Spell(token));
  }
  Rng rng(GetParam());
  int parsed = 0;
  int classified = 0;
  for (int iter = 0; iter < 600; ++iter) {
    const std::string source = Mutant(&rng, spelled);
    if (!lang::ParseProgram(source).ok()) continue;
    ++parsed;
    const CampaignResult result = RunCampaign(source, rng.NextU64());
    if (!result.native) continue;
    ++classified;
    EXPECT_TRUE(result.status.ok()) << source << "\n"
                                    << result.status.ToString();
    EXPECT_EQ(result.auctions, 300) << source;
  }
  // The sweep must reach both verdicts.
  EXPECT_GT(classified, 0);
  EXPECT_LT(classified, parsed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EqualizeRoiCampaignTest,
                         ::testing::Values(1u, 2u, 3u));
INSTANTIATE_TEST_SUITE_P(Seeds, EqualizeRoiMutantTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Generated programs: lang_fuzz_test's rule on programs over the strategy
// tables, built from Figure 5 with each piece kept or replaced at random.
// ---------------------------------------------------------------------------

class Figure5Generator {
 public:
  /// Each program keeps every piece with one of three probabilities, so
  /// some programs are Figure 5 itself and most differ in a few pieces.
  explicit Figure5Generator(Rng* rng) : rng_(*rng) {
    static const double kKeeps[] = {1.0, 0.95, 0.85};
    keep_ = kKeeps[rng_.NextBounded(3)];
  }

  std::string Program() {
    std::string body;
    if (Chance(0.1)) body += ExtraUpdate() + " ";
    body += "IF " + SpendTest("<") + " THEN " + Step("MAX", "+", "< maxbid");
    if (Chance(0.9)) {
      body += " ELSEIF " + SpendTest(">") + " THEN " + Step("MIN", "-", "> 0");
    }
    if (Chance(0.1)) body += " ELSE " + ExtraUpdate();
    body += " ENDIF; " + BidsUpdate();
    if (Chance(0.1)) body += " " + ExtraUpdate();
    return "CREATE TRIGGER g AFTER INSERT ON Query { " + body + " }";
  }

 private:
  bool Chance(double p) { return rng_.Bernoulli(p); }
  template <size_t N>
  const char* Pick(const char* const (&options)[N]) {
    return options[rng_.NextBounded(N)];
  }

  std::string Cmp(const char* figure5) {
    static const char* const kCmps[] = {"<", "<=", ">", ">=", "=", "<>"};
    return Chance(keep_) ? figure5 : Pick(kCmps);
  }

  /// A numeric expression over a Keywords row, scalars and literals. A
  /// string column now and then makes it fail when evaluated.
  std::string Expr(int depth) {
    static const char* const kLeaves[] = {
        "bid", "maxbid", "roi", "relevance", "0", "1", "2", "0.5",
        "amtSpent", "time", "targetSpendRate", "queryKeyword"};
    if (depth == 0 || Chance(0.4)) {
      return Chance(0.03) ? "formula" : Pick(kLeaves);
    }
    if (Chance(0.15)) {
      static const char* const kAggs[] = {"MAX", "MIN", "SUM", "COUNT",
                                          "AVG"};
      return std::string("(SELECT ") + Pick(kAggs) + "(K.roi) FROM Keywords K)";
    }
    static const char* const kOps[] = {"+", "-", "*", "/", "<", ">", "AND"};
    return "(" + Expr(depth - 1) + " " + Pick(kOps) + " " + Expr(depth - 1) +
           ")";
  }

  std::string SpendTest(const char* cmp) {
    const std::string rhs =
        Chance(keep_) ? "targetSpendRate * time" : Expr(1);
    return (Chance(keep_) ? "amtSpent" : Expr(1)) + " " + Cmp(cmp) + " " + rhs;
  }

  std::string Step(const char* agg, const char* op, const char* guard) {
    static const char* const kAggs[] = {"MAX", "MIN", "SUM", "AVG"};
    std::string set = Chance(keep_) ? std::string("bid ") + op + " 1" : Expr(2);
    std::string where = std::string("roi ") + Cmp("=") + " (SELECT " +
                        (Chance(keep_) ? agg : Pick(kAggs)) +
                        "(K.roi) FROM Keywords K)";
    if (Chance(keep_)) where += " AND relevance " + Cmp(">") + " 0";
    if (Chance(keep_)) {
      where += std::string(" AND bid ") + guard;
    } else if (Chance(0.5)) {
      where += " AND " + Expr(1);
    }
    return "UPDATE Keywords SET bid = " + set + " WHERE " + where + ";";
  }

  std::string BidsUpdate() {
    const char* cut = Chance(keep_) ? "0.7" : Pick({"0.6", "0.8", "0"});
    std::string where = std::string("K.relevance ") + Cmp(">") + " " + cut;
    where += Chance(keep_) ? " AND K.formula = Bids.formula"
                           : " AND K.formula <> Bids.formula";
    const char* column = Chance(keep_) ? "bid" : Pick({"maxbid", "roi"});
    return std::string("UPDATE Bids SET value = (SELECT ") +
           (Chance(keep_) ? "SUM" : "MAX") + "(K." + column +
           ") FROM Keywords K WHERE " + where + ");";
  }

  std::string ExtraUpdate() {
    return "UPDATE Keywords SET bid = " + Expr(2) + " WHERE " + Expr(1) + ";";
  }

  Rng& rng_;
  double keep_;
};

class EqualizeRoiGeneratedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EqualizeRoiGeneratedTest, GeneratedStayInterpretedOrMatchBitwise) {
  Rng rng(GetParam());
  int classified = 0;
  int interpreted = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const std::string source = Figure5Generator(&rng).Program();
    ASSERT_TRUE(lang::ParseProgram(source).ok()) << source;
    const CampaignResult result = RunCampaign(source, rng.NextU64());
    if (!result.native) {
      ++interpreted;
      continue;
    }
    ++classified;
    EXPECT_TRUE(result.status.ok()) << source << "\n"
                                    << result.status.ToString();
    EXPECT_EQ(result.auctions, 300) << source;
  }
  // The sweep must reach both verdicts.
  EXPECT_GT(classified, 0);
  EXPECT_GT(interpreted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EqualizeRoiGeneratedTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace ssa
