// A ProgramStrategy's interpreted twin: the same compiled plan, run through
// lang::Interpreter::Fire on a private copy of the strategy's tables.
// ProgramStrategy runs Figure 5's Query trigger through a native step; the
// twin never does, so bidding both side by side checks that step against
// the interpreter, table cell by table cell.

#ifndef SSA_TESTS_INTERPRETED_TWIN_H_
#define SSA_TESTS_INTERPRETED_TWIN_H_

#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/formula_parser.h"
#include "lang/interpreter.h"
#include "strategy/program_strategy.h"
#include "strategy/strategy.h"

namespace ssa {

class InterpretedTwin : public BiddingStrategy {
 public:
  explicit InterpretedTwin(const ProgramStrategy& strategy)
      : plan_(strategy.plan()) {
    const Database& tables = strategy.tables();
    for (int i = 0; i < tables.num_tables(); ++i) {
      db_.AddTable(tables.table(i)->name(), tables.table(i)->column_names());
    }
    keywords_ = db_.table(0);
    bids_ = db_.table(1);
    CopyTables(strategy);
    query_event_ = plan_->FindEvent("Query");
    slot_event_ = plan_->FindEvent("Slot");
    click_event_ = plan_->FindEvent("Click");
    purchase_event_ = plan_->FindEvent("Purchase");
  }

  /// Makes the twin's tables copies of `strategy`'s (after a restore, say).
  void CopyTables(const ProgramStrategy& strategy) {
    *keywords_ = *strategy.tables().table(0);
    *bids_ = *strategy.tables().table(1);
    row_formulas_.clear();
    for (int row = 0; row < bids_->num_rows(); ++row) {
      row_formulas_.push_back(*ParseFormula(bids_->At(row, "formula").str()));
    }
  }

  /// ProgramStrategy::MakeBids, with the plan always interpreted. After a
  /// program error the twin stops firing; `status()` holds the error.
  void MakeBids(const Query& query, const AdvertiserAccount& account,
                BidsTable* bids) override {
    const int maxbid = keywords_->ColumnIndex("maxbid");
    const int roi = keywords_->ColumnIndex("roi");
    const int relevance = keywords_->ColumnIndex("relevance");
    for (int kw = 0; kw < keywords_->num_rows(); ++kw) {
      Value* row = keywords_->MutableRow(kw);
      row[maxbid] = Value::Number(account.max_bid[kw]);
      row[roi] = Value::Number(account.Roi(kw));
      row[relevance] = Value::Number(query.relevance[kw]);
    }
    Fire(query_event_, query, account, std::nullopt);
    for (int row = 0; row < bids_->num_rows(); ++row) {
      const Value& v = bids_->At(row, "value");
      const Money value = v.is_number() ? v.number() : 0.0;
      bids->AddBid(row_formulas_[row],
                   std::isnan(value) || value < 0 ? 0.0 : value);
    }
  }

  void OnOutcome(const Query& query, const AdvertiserAccount& account,
                 SlotIndex slot, bool clicked, bool purchased) override {
    const double won_slot = static_cast<double>(slot + 1);
    Fire(slot_event_, query, account, won_slot);
    if (clicked) Fire(click_event_, query, account, won_slot);
    if (purchased) Fire(purchase_event_, query, account, won_slot);
  }

  const Database& tables() const { return db_; }
  const Status& status() const { return status_; }

 private:
  void Fire(int event, const Query& query, const AdvertiserAccount& account,
            std::optional<double> won_slot) {
    if (!status_.ok()) return;
    std::vector<std::optional<double>> scalars;
    for (const std::string& name : plan_->scalar_names) {
      if (name == "amtSpent") {
        scalars.emplace_back(account.amount_spent);
      } else if (name == "time") {
        scalars.emplace_back(static_cast<double>(query.time));
      } else if (name == "targetSpendRate") {
        scalars.emplace_back(account.target_spend_rate);
      } else if (name == "queryKeyword") {
        scalars.emplace_back(static_cast<double>(query.keyword));
      } else {
        scalars.push_back(name == "wonSlot" ? won_slot : std::nullopt);
      }
    }
    status_ = lang::Interpreter::Fire(*plan_, event, &db_, scalars.data(),
                                      scalars.size());
  }

  std::shared_ptr<const lang::CompiledProgram> plan_;
  Database db_;
  Table* keywords_ = nullptr;
  Table* bids_ = nullptr;
  std::vector<Formula> row_formulas_;
  int query_event_ = -1;
  int slot_event_ = -1;
  int click_event_ = -1;
  int purchase_event_ = -1;
  Status status_;
};

/// Empty when the two databases hold the same tables with the same cells:
/// same type, same string, same number bits (NaN and -0.0 included).
/// Otherwise names the first cell that differs.
inline std::string TableDifference(const Database& x, const Database& y) {
  if (x.num_tables() != y.num_tables()) return "table count";
  for (int t = 0; t < x.num_tables(); ++t) {
    const Table& a = *x.table(t);
    const Table& b = *y.table(t);
    if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
      return a.name() + " shape";
    }
    for (int r = 0; r < a.num_rows(); ++r) {
      for (int c = 0; c < a.num_columns(); ++c) {
        const Value& u = a.At(r, c);
        const Value& v = b.At(r, c);
        bool same = u.type() == v.type();
        if (same && u.is_string()) same = u.str() == v.str();
        if (same && u.is_number()) {
          const double du = u.number();
          const double dv = v.number();
          same = std::memcmp(&du, &dv, sizeof du) == 0;
        }
        if (!same) {
          return a.name() + "[" + std::to_string(r) + "]." +
                 a.column_names()[c] + ": " + u.ToString() + " vs " +
                 v.ToString();
        }
      }
    }
  }
  return "";
}

}  // namespace ssa

#endif  // SSA_TESTS_INTERPRETED_TWIN_H_
