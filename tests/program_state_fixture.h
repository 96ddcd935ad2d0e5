// A fixed ProgramStrategy state for checkpoint tests: a program, keyword
// set, account and query stream that drive a strategy into a state holding
// number, string and NULL cells.

#ifndef SSA_TESTS_PROGRAM_STATE_FIXTURE_H_
#define SSA_TESTS_PROGRAM_STATE_FIXTURE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/bids_table.h"
#include "db/table.h"
#include "durability/wire.h"
#include "strategy/program_strategy.h"

namespace ssa {
namespace program_state_fixture {

// The Figure 5 Equalize-ROI program plus a Click trigger that writes a
// string cell and a NULL cell, so a saved state holds all three cell types.
inline constexpr const char kProgram[] = R"sql(
CREATE TRIGGER bid AFTER INSERT ON Query
{
  IF amtSpent < targetSpendRate * time THEN
    UPDATE Keywords
    SET bid = bid + 1
    WHERE roi =
      ( SELECT MAX( K.roi )
        FROM Keywords K )
      AND relevance > 0
      AND bid < maxbid;
  ELSEIF amtSpent > targetSpendRate * time
  THEN
    UPDATE Keywords
    SET bid = bid - 1
    WHERE roi =
      ( SELECT MIN( K.roi )
        FROM Keywords K )
      AND relevance > 0
      AND bid > 0;
  ENDIF;

  UPDATE Bids
  SET value =
    ( SELECT SUM( K.bid )
      FROM Keywords K
      WHERE K.relevance > 0.7
      AND K.formula = Bids.formula );
}
CREATE TRIGGER clicked AFTER INSERT ON Click
{
  UPDATE Keywords
  SET text = 'clicked',
      maxbid = ( SELECT MAX( K.bid ) FROM Keywords K WHERE K.bid < 0 )
  WHERE relevance = 1;
}
)sql";

// Four keywords over three distinct formulas (kw3 repeats kw0's).
inline std::vector<ProgramStrategy::KeywordSpec> FixtureKeywords() {
  return {{"kw0", Formula::Click()},
          {"kw1", Formula::Click() && Formula::Slot(0)},
          {"kw2", Formula::Purchase()},
          {"kw3", Formula::Click()}};
}

inline AdvertiserAccount FixtureAccount() {
  AdvertiserAccount account;
  account.target_spend_rate = 2.0;
  account.value_per_click = {5, 7, 3, 9};
  account.max_bid = {5, 7, 3, 9};
  account.value_gained = {10, 14, 3, 0};
  account.spent_per_keyword = {4, 2, 3, 0};
  return account;
}

inline Query FixtureQuery(int64_t time) {
  Query query;
  query.time = time;
  query.keyword = static_cast<int>(time % 4);
  query.relevance.assign(4, 0.8);
  query.relevance[query.keyword] = 1.0;
  return query;
}

// Drives `strategy` through six auctions (a click in the last) with
// spend crossing the target, so bids rise and then fall.
inline void RunFixtureAuctions(ProgramStrategy* strategy) {
  AdvertiserAccount account = FixtureAccount();
  BidsTable bids;
  for (int64_t time = 1; time <= 6; ++time) {
    const Query query = FixtureQuery(time);
    bids.Clear();
    strategy->MakeBids(query, account, &bids);
    if (time == 6) strategy->OnOutcome(query, account, 0, true, false);
    account.amount_spent += 3.5;
    account.spent_per_keyword[query.keyword] += 1.0;
    account.value_gained[query.keyword] += 0.5 * static_cast<double>(time);
  }
}

inline std::string SaveStateOf(const ProgramStrategy& strategy) {
  std::string out;
  strategy.SaveState(&out);
  return out;
}

/// Bid rows as (formula text, value bits), for bitwise comparison.
inline std::vector<std::pair<std::string, uint64_t>> BidRows(
    const BidsTable& bids) {
  std::vector<std::pair<std::string, uint64_t>> rows;
  for (const BidRow& row : bids.rows()) {
    uint64_t bits = 0;
    std::memcpy(&bits, &row.value, sizeof(bits));
    rows.emplace_back(row.formula.ToString(), bits);
  }
  return rows;
}

/// `db`'s tables in ProgramStrategy's checkpoint blob format.
inline std::string EncodeTables(const Database& db) {
  std::string out;
  WireWriter w(&out);
  for (int t = 0; t < db.num_tables(); ++t) {
    const Table& table = *db.table(t);
    w.PutU32(static_cast<uint32_t>(table.num_rows()));
    for (int row = 0; row < table.num_rows(); ++row) {
      for (int col = 0; col < table.num_columns(); ++col) {
        const Value& v = table.At(row, col);
        w.PutU8(static_cast<uint8_t>(v.type()));
        if (v.is_number()) w.PutDouble(v.number());
        if (v.is_string()) w.PutString(v.str());
      }
    }
  }
  return out;
}

/// The strategy's state with each listed keyword's bid replaced by `bid`.
inline std::string StateWithBids(const ProgramStrategy& strategy,
                                 const std::vector<int>& keywords,
                                 const Value& bid) {
  const Database& tables = strategy.tables();
  Database copy;
  for (int t = 0; t < tables.num_tables(); ++t) {
    *copy.AddTable(tables.table(t)->name(), tables.table(t)->column_names()) =
        *tables.table(t);
  }
  for (int kw : keywords) copy.table(0)->Set(kw, "bid", bid);
  return EncodeTables(copy);
}

}  // namespace program_state_fixture
}  // namespace ssa

#endif  // SSA_TESTS_PROGRAM_STATE_FIXTURE_H_
