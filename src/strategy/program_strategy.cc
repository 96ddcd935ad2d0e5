#include "strategy/program_strategy.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <mutex>
#include <utility>

#include "core/formula_parser.h"
#include "durability/wire.h"
#include "lang/classify.h"

namespace ssa {
namespace {

// The private tables' schemas (Figure 4) and the scalar slots of the
// compiled program. Each enum indexes the name list below it.
enum PrivateTable { kKeywordsTable, kBidsTable };
enum KeywordsColumn { kText, kFormula, kMaxBid, kRoi, kBid, kRelevance };
const char* const kKeywordsColumns[] = {"text", "formula", "maxbid",
                                        "roi",  "bid",     "relevance"};
enum BidsColumn { kBidsFormula, kBidsValue };
const char* const kBidsColumns[] = {"formula", "value"};
enum ScalarSlot {
  kAmtSpent,
  kTime,
  kTargetSpendRate,
  kQueryKeyword,
  kWonSlot,
  kNumScalars
};
const char* const kScalarNames[kNumScalars] = {
    "amtSpent", "time", "targetSpendRate", "queryKeyword", "wonSlot"};

const lang::EqualizeRoiLayout kEqualizeRoiLayout = {
    kKeywordsTable, kBidsTable,  kFormula,   kMaxBid,
    kRoi,           kBid,        kRelevance, kBidsFormula,
    kBidsValue,     kAmtSpent,   kTime,      kTargetSpendRate};

void EncodeTable(const Table& table, WireWriter* w) {
  w->PutU32(static_cast<uint32_t>(table.num_rows()));
  for (int row = 0; row < table.num_rows(); ++row) {
    for (int col = 0; col < table.num_columns(); ++col) {
      const Value& v = table.At(row, col);
      w->PutU8(static_cast<uint8_t>(v.type()));
      if (v.is_number()) {
        w->PutDouble(v.number());
      } else if (v.is_string()) {
        w->PutString(v.str());
      }
    }
  }
}

/// Appends the rows of `r`'s next table to the empty `table`.
Status DecodeTable(WireReader* r, Table* table) {
  uint32_t num_rows = 0;
  SSA_RETURN_IF_ERROR(r->GetU32(&num_rows));
  for (uint32_t row = 0; row < num_rows; ++row) {
    std::vector<Value> values;
    values.reserve(table->num_columns());
    for (int col = 0; col < table->num_columns(); ++col) {
      uint8_t type = 0;
      SSA_RETURN_IF_ERROR(r->GetU8(&type));
      switch (static_cast<Value::Type>(type)) {
        case Value::Type::kNull:
          values.push_back(Value::Null());
          break;
        case Value::Type::kNumber: {
          double number = 0;
          SSA_RETURN_IF_ERROR(r->GetDouble(&number));
          values.push_back(Value::Number(number));
          break;
        }
        case Value::Type::kString: {
          std::string s;
          SSA_RETURN_IF_ERROR(r->GetString(&s));
          values.push_back(Value::String(std::move(s)));
          break;
        }
        default:
          return Status::InvalidArgument("bad value tag in table state");
      }
    }
    table->InsertRow(std::move(values));
  }
  return Status::Ok();
}

/// Adds the empty Keywords and Bids tables, in that order, to `db`.
void AddPrivateTables(Database* db) {
  db->AddTable("Keywords",
               {std::begin(kKeywordsColumns), std::end(kKeywordsColumns)});
  db->AddTable("Bids", {std::begin(kBidsColumns), std::end(kBidsColumns)});
}

using PlanPtr = std::shared_ptr<const lang::CompiledProgram>;

/// The plans of live strategies, keyed by program source, each with the
/// classifier's verdict on its Query trigger. Entries are weak, so a plan
/// dies with its last strategy, and its deleter then drops the entry. The
/// map is only touched by Create() and by those deleters; MakeBids never
/// takes the lock.
struct PlanRegistry {
  struct Entry {
    std::weak_ptr<const lang::CompiledProgram> plan;
    bool equalize_roi = false;
  };
  std::mutex mu;
  std::map<std::string, Entry, std::less<>> plans;
};

/// Shared ownership lets a plan outlive the registry's static (a strategy
/// destroyed during static destruction): its deleter holds only a weak
/// reference to the registry.
const std::shared_ptr<PlanRegistry>& Registry() {
  static const std::shared_ptr<PlanRegistry> registry =
      std::make_shared<PlanRegistry>();
  return registry;
}

/// A live plan and its registry verdict; `plan` is null when the source has
/// no live plan.
struct SharedPlan {
  PlanPtr plan;
  bool equalize_roi = false;
};

SharedPlan FindPlan(std::string_view source) {
  PlanRegistry& registry = *Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  const auto it = registry.plans.find(source);
  if (it == registry.plans.end()) return {};
  return {it->second.plan.lock(), it->second.equalize_roi};
}

/// Registers `plan` as the plan of `source`, unless another thread got
/// there first; either way returns the registered plan.
SharedPlan InternPlan(std::string_view source, lang::CompiledProgram plan,
                      bool equalize_roi) {
  const std::shared_ptr<PlanRegistry>& registry = Registry();
  std::weak_ptr<PlanRegistry> weak_registry = registry;
  std::lock_guard<std::mutex> lock(registry->mu);
  PlanRegistry::Entry& entry = registry->plans[std::string(source)];
  if (PlanPtr live = entry.plan.lock()) return {live, entry.equalize_roi};
  PlanPtr interned(
      new lang::CompiledProgram(std::move(plan)),
      [weak_registry](const lang::CompiledProgram* dead) {
        if (std::shared_ptr<PlanRegistry> r = weak_registry.lock()) {
          std::lock_guard<std::mutex> lock(r->mu);
          for (auto it = r->plans.begin(); it != r->plans.end();) {
            it = it->second.plan.expired() ? r->plans.erase(it)
                                           : std::next(it);
          }
        }
        delete dead;
      });
  entry = {interned, equalize_roi};
  return {interned, equalize_roi};
}

/// Rows of one string Value share its text; comparing the text's address
/// first skips the content compare for them.
bool SameText(const Value& a, const Value& b) {
  return &a.str() == &b.str() || a.str() == b.str();
}

}  // namespace

StatusOr<std::unique_ptr<ProgramStrategy>> ProgramStrategy::Create(
    std::string_view source, const std::vector<KeywordSpec>& keywords) {
  if (keywords.empty()) {
    return Status::InvalidArgument("at least one keyword required");
  }
  SharedPlan shared = FindPlan(source);
  if (shared.plan == nullptr) {
    StatusOr<lang::ParsedProgram> program = lang::ParseProgram(source);
    if (!program.ok()) return program.status();
    Database schema;
    AddPrivateTables(&schema);
    std::vector<std::string> scalars(std::begin(kScalarNames),
                                     std::end(kScalarNames));
    lang::CompiledProgram plan =
        lang::CompileProgram(*program, schema, std::move(scalars));
    const bool equalize_roi = lang::IsEqualizeRoi(
        plan, plan.FindEvent("Query"), kEqualizeRoiLayout);
    shared = InternPlan(source, std::move(plan), equalize_roi);
  }
  std::unique_ptr<ProgramStrategy> strategy(new ProgramStrategy(
      std::move(shared.plan), shared.equalize_roi, keywords));
  // Every keyword's formula is one of the Bids rows' distinct formulas.
  for (const Formula& formula : strategy->row_formulas_) {
    if (!formula.DependsOnlyOnOwnPlacement()) {
      return Status::InvalidArgument("keyword formula is heavyweight: " +
                                     formula.ToString());
    }
  }
  return {std::move(strategy)};
}

ProgramStrategy::ProgramStrategy(PlanPtr plan, bool equalize_roi,
                                 const std::vector<KeywordSpec>& keywords)
    : num_keywords_(static_cast<int>(keywords.size())),
      plan_(std::move(plan)),
      equalize_roi_(equalize_roi) {
  AddPrivateTables(&db_);
  keywords_table_ = db_.table(kKeywordsTable);
  bids_table_ = db_.table(kBidsTable);
  // Keywords table, one row per keyword (Figure 4 schema); Bids table, one
  // row per distinct formula (StructurallyEquals: node identity first). A
  // population shares one keyword list, so this thread keeps the tables of
  // the last list and copies them for an equal one, sharing every text
  // (Value's count is atomic).
  thread_local std::vector<KeywordSpec> last;
  thread_local Table fresh_keywords = *keywords_table_;
  thread_local Table fresh_bids = *bids_table_;
  thread_local std::vector<Formula> fresh_row_formulas;
  if (!std::equal(keywords.begin(), keywords.end(), last.begin(), last.end(),
                  [](const KeywordSpec& a, const KeywordSpec& b) {
                    return a.text == b.text &&
                           a.formula.StructurallyEquals(b.formula);
                  })) {
    last = keywords;
    fresh_keywords.Clear();
    fresh_bids.Clear();
    fresh_row_formulas.clear();
    for (const KeywordSpec& spec : keywords) {
      int row = 0;
      const int rows = fresh_bids.num_rows();
      while (row < rows &&
             !fresh_row_formulas[row].StructurallyEquals(spec.formula)) {
        ++row;
      }
      if (row == rows) {
        fresh_row_formulas.push_back(spec.formula);
        fresh_bids.InsertRow(
            {Value::String(spec.formula.ToString()), Value::Number(0)});
      }
      fresh_keywords.InsertRow({
          Value::String(spec.text),
          fresh_bids.At(row, kBidsFormula),
          Value::Number(0),  // maxbid: refreshed from the account each auction
          Value::Number(0),  // roi: provider-maintained
          Value::Number(0),  // bid: program state, starts at 0
          Value::Number(0),  // relevance: per-query
      });
    }
  }
  *keywords_table_ = fresh_keywords;
  *bids_table_ = fresh_bids;
  row_formulas_ = fresh_row_formulas;
  query_event_ = plan_->FindEvent("Query");
  slot_event_ = plan_->FindEvent("Slot");
  click_event_ = plan_->FindEvent("Click");
  purchase_event_ = plan_->FindEvent("Purchase");
  MapKeywordRows();
}

void ProgramStrategy::MapKeywordRows() {
  keyword_formulas_ = nullptr;
  const int rows = bids_table_->num_rows();
  roi_cells_ok_ = true;
  for (int b = 0; b < rows; ++b) {
    roi_cells_ok_ &= bids_table_->Row(b)[kBidsFormula].is_string();
  }
  // Each keyword's Bids row (-1 for none, -2 for several): SumBids adds the
  // keyword's bid to every row with its formula text.
  thread_local std::vector<int> row_of;
  row_of.assign(num_keywords_, -1);
  for (int kw = 0; kw < num_keywords_ && roi_cells_ok_; ++kw) {
    const Value& formula = keywords_table_->Row(kw)[kFormula];
    roi_cells_ok_ = formula.is_string();
    for (int b = 0; b < rows && roi_cells_ok_; ++b) {
      if (!SameText(formula, bids_table_->Row(b)[kBidsFormula])) continue;
      row_of[kw] = row_of[kw] == -1 ? b : -2;
    }
  }
  if (!roi_cells_ok_) return;
  for (const int row : row_of) {
    if (row < 0) return;  // no row, or several
  }
  // Strategies created one after another from one keyword list share one
  // array, as RoiStrategy's formulas do.
  thread_local std::shared_ptr<const std::vector<Formula>> last;
  bool same = last != nullptr &&
              static_cast<int>(last->size()) == num_keywords_;
  for (int kw = 0; kw < num_keywords_ && same; ++kw) {
    same = (*last)[kw].StructurallyEquals(row_formulas_[row_of[kw]]);
  }
  if (!same) {
    auto formulas = std::make_shared<std::vector<Formula>>();
    for (int kw = 0; kw < num_keywords_; ++kw) {
      formulas->push_back(row_formulas_[row_of[kw]]);
    }
    last = std::move(formulas);
  }
  keyword_formulas_ = last;
}

RoiBidder* ProgramStrategy::roi_bidder() {
  const bool outcome_triggers =
      slot_event_ >= 0 || click_event_ >= 0 || purchase_event_ >= 0;
  return equalize_roi_ && !outcome_triggers && roi_cells_ok_ ? this : nullptr;
}

Money ProgramStrategy::roi_bid(int kw) const {
  const Value& bid = keywords_table_->Row(kw)[kBid];
  return bid.is_number() ? bid.number()
                         : std::numeric_limits<double>::quiet_NaN();
}

const Formula* ProgramStrategy::roi_formulas() const {
  return keyword_formulas_ == nullptr ? nullptr : keyword_formulas_->data();
}

void ProgramStrategy::WriteRoiBids(const Query& query,
                                   const AdvertiserAccount& account,
                                   const Money* bids) {
  Refresh(query, account);
  for (int kw = 0; kw < num_keywords_; ++kw) {
    keywords_table_->MutableRow(kw)[kBid] = Value::Number(bids[kw]);
  }
  SumBids();
}

void ProgramStrategy::Fire(int event, const Query& query,
                           const AdvertiserAccount& account,
                           std::optional<double> won_slot) {
  // Section II-B: the provider automatically maintains commonly used
  // variables. `wonSlot` exists only for the outcome triggers.
  std::optional<double> scalars[kNumScalars];
  scalars[kAmtSpent] = account.amount_spent;
  scalars[kTime] = static_cast<double>(query.time);
  scalars[kTargetSpendRate] = account.target_spend_rate;
  scalars[kQueryKeyword] = static_cast<double>(query.keyword);
  scalars[kWonSlot] = won_slot;
  const Status status =
      lang::Interpreter::Fire(*plan_, event, &db_, scalars, kNumScalars);
  SSA_CHECK_MSG(status.ok(), status.ToString().c_str());
}

bool ProgramStrategy::RunEqualizeRoi(const Query& query,
                                     const AdvertiserAccount& account) {
  // MakeBids has just written maxbid, roi and relevance as numbers; the
  // program writes bid and may have left it NULL (or a restore did), and
  // the formula cells it compares must be strings. Checked before any
  // write, so the interpreter can take over from untouched tables.
  const int rows = keywords_table_->num_rows();
  for (int kw = 0; kw < rows; ++kw) {
    const Value* row = keywords_table_->Row(kw);
    if (!row[kBid].is_number() || !row[kFormula].is_string()) return false;
  }
  for (int row = 0; row < bids_table_->num_rows(); ++row) {
    if (!bids_table_->Row(row)[kBidsFormula].is_string()) return false;
  }

  // IF amtSpent < targetSpendRate * time ... ELSEIF amtSpent > ...: the
  // interpreter's operands, operations and order, so the same doubles.
  const double spent = account.amount_spent;
  const double target =
      account.target_spend_rate * static_cast<double>(query.time);
  const bool under = spent < target;
  if (under || spent > target) {
    // MAX / MIN(K.roi), folded from row 0 in row order as the interpreter
    // folds it (a NaN in row 0 sticks; a later NaN is skipped).
    double extreme = keywords_table_->Row(0)[kRoi].number();
    for (int kw = 1; kw < rows; ++kw) {
      const double roi = keywords_table_->Row(kw)[kRoi].number();
      extreme = under ? std::max(extreme, roi) : std::min(extreme, roi);
    }
    for (int kw = 0; kw < rows; ++kw) {
      Value* row = keywords_table_->MutableRow(kw);
      const double bid = row[kBid].number();
      if (row[kRoi].number() == extreme && row[kRelevance].number() > 0 &&
          (under ? bid < row[kMaxBid].number() : bid > 0)) {
        row[kBid] = Value::Number(under ? bid + 1 : bid - 1);
      }
    }
  }

  SumBids();
  return true;
}

void ProgramStrategy::SumBids() {
  const int rows = keywords_table_->num_rows();
  for (int b = 0; b < bids_table_->num_rows(); ++b) {
    Value* bid_row = bids_table_->MutableRow(b);
    double sum = 0.0;
    for (int kw = 0; kw < rows; ++kw) {
      const Value* row = keywords_table_->Row(kw);
      if (row[kRelevance].number() > 0.7 &&
          SameText(row[kFormula], bid_row[kBidsFormula])) {
        sum += row[kBid].number();
      }
    }
    bid_row[kBidsValue] = Value::Number(sum);
  }
}

void ProgramStrategy::Refresh(const Query& query,
                              const AdvertiserAccount& account) {
  for (int kw = 0; kw < num_keywords_; ++kw) {
    Value* row = keywords_table_->MutableRow(kw);
    row[kMaxBid] = Value::Number(account.max_bid[kw]);
    row[kRoi] = Value::Number(account.Roi(kw));
    row[kRelevance] = Value::Number(query.relevance[kw]);
  }
}

void ProgramStrategy::MakeBids(const Query& query,
                               const AdvertiserAccount& account,
                               BidsTable* bids) {
  SSA_CHECK(account.num_keywords() == num_keywords_);
  SSA_CHECK(static_cast<int>(query.relevance.size()) == num_keywords_);

  Refresh(query, account);

  // The engine "inserts" the query; AFTER INSERT ON Query triggers fire.
  if (!equalize_roi_ || !RunEqualizeRoi(query, account)) {
    Fire(query_event_, query, account, std::nullopt);
  }

  // Read the program's Bids table back out. A NULL, string, NaN or
  // negative value bids 0.
  for (int row = 0; row < bids_table_->num_rows(); ++row) {
    const Value& v = bids_table_->Row(row)[kBidsValue];
    const Money value = v.is_number() ? v.number() : 0.0;
    bids->AddBid(row_formulas_[row],
                 std::isnan(value) || value < 0 ? 0.0 : value);
  }
}

void ProgramStrategy::PeekBids(const Query& query,
                               const AdvertiserAccount& account,
                               BidsTable* bids) const {
  auto* self = const_cast<ProgramStrategy*>(this);
  Table keywords = *keywords_table_;
  Table bid_rows = *bids_table_;
  self->MakeBids(query, account, bids);
  std::swap(*self->keywords_table_, keywords);
  std::swap(*self->bids_table_, bid_rows);
}

void ProgramStrategy::OnOutcome(const Query& query,
                                const AdvertiserAccount& account,
                                SlotIndex slot, bool clicked, bool purchased) {
  const double won_slot = static_cast<double>(slot + 1);
  Fire(slot_event_, query, account, won_slot);
  if (clicked) Fire(click_event_, query, account, won_slot);
  if (purchased) Fire(purchase_event_, query, account, won_slot);
}

void ProgramStrategy::SaveState(std::string* out) const {
  WireWriter w(out);
  EncodeTable(*keywords_table_, &w);
  EncodeTable(*bids_table_, &w);
}

Status ProgramStrategy::RestoreState(std::string_view blob) {
  // Decode and check everything into locals; commit only on success.
  Table keywords(keywords_table_->name(), keywords_table_->column_names());
  Table bid_rows(bids_table_->name(), bids_table_->column_names());
  WireReader r(blob);
  SSA_RETURN_IF_ERROR(DecodeTable(&r, &keywords));
  SSA_RETURN_IF_ERROR(DecodeTable(&r, &bid_rows));
  if (r.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in ProgramStrategy state");
  }
  if (keywords.num_rows() != num_keywords_) {
    return Status::InvalidArgument(
        "ProgramStrategy state has wrong keyword count");
  }
  std::vector<Formula> row_formulas;
  row_formulas.reserve(bid_rows.num_rows());
  for (int row = 0; row < bid_rows.num_rows(); ++row) {
    const Value& cell = bid_rows.At(row, kBidsFormula);
    if (!cell.is_string()) {
      return Status::InvalidArgument("Bids formula cell is not a string");
    }
    StatusOr<Formula> formula = ParseFormula(cell.str());
    if (!formula.ok()) return formula.status();
    if (!formula->DependsOnlyOnOwnPlacement()) {
      return Status::InvalidArgument("Bids formula is heavyweight: " +
                                     cell.str());
    }
    row_formulas.push_back(*std::move(formula));
  }
  *keywords_table_ = std::move(keywords);
  *bids_table_ = std::move(bid_rows);
  row_formulas_ = std::move(row_formulas);
  MapKeywordRows();
  return Status::Ok();
}

Money ProgramStrategy::TentativeBid(int kw) const {
  SSA_CHECK(kw >= 0 && kw < num_keywords_);
  return keywords_table_->At(kw, kBid).number();
}

}  // namespace ssa
