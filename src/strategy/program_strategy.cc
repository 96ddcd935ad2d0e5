#include "strategy/program_strategy.h"

#include <iterator>
#include <utility>

#include "core/formula_parser.h"
#include "durability/wire.h"

namespace ssa {
namespace {

// The private tables' schemas (Figure 4) and the scalar slots of the
// compiled program. Each enum indexes the name list below it.
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

Status DecodeTable(WireReader* r, Table* table) {
  uint32_t num_rows = 0;
  SSA_RETURN_IF_ERROR(r->GetU32(&num_rows));
  table->Clear();
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

}  // namespace

StatusOr<std::unique_ptr<ProgramStrategy>> ProgramStrategy::Create(
    std::string_view source, std::vector<KeywordSpec> keywords) {
  if (keywords.empty()) {
    return Status::InvalidArgument("at least one keyword required");
  }
  StatusOr<lang::ParsedProgram> program = lang::ParseProgram(source);
  if (!program.ok()) return program.status();
  return std::unique_ptr<ProgramStrategy>(
      new ProgramStrategy(*program, std::move(keywords)));
}

ProgramStrategy::ProgramStrategy(const lang::ParsedProgram& program,
                                 std::vector<KeywordSpec> keywords)
    : keywords_(std::move(keywords)) {
  // Keywords table, one row per keyword (Figure 4 schema).
  keywords_table_ =
      db_.AddTable("Keywords", {std::begin(kKeywordsColumns),
                                std::end(kKeywordsColumns)});
  for (const KeywordSpec& spec : keywords_) {
    keywords_table_->InsertRow({
        Value::String(spec.text),
        Value::String(spec.formula.ToString()),
        Value::Number(0),  // maxbid: refreshed from the account each auction
        Value::Number(0),  // roi: provider-maintained
        Value::Number(0),  // bid: program state, starts at 0
        Value::Number(0),  // relevance: per-query
    });
  }
  // Bids table: one row per distinct formula, value rewritten per auction.
  bids_table_ = db_.AddTable(
      "Bids", {std::begin(kBidsColumns), std::end(kBidsColumns)});
  for (int kw = 0; kw < keywords_table_->num_rows(); ++kw) {
    const std::string& text = keywords_table_->At(kw, kFormula).str();
    if (formula_rows_.find(text) == formula_rows_.end()) {
      formula_rows_[text] = bids_table_->num_rows();
      bids_table_->InsertRow({Value::String(text), Value::Number(0)});
      row_formulas_.push_back(keywords_[kw].formula);
    }
  }
  plan_ = lang::CompileProgram(
      program, db_, {std::begin(kScalarNames), std::end(kScalarNames)});
  query_event_ = plan_.FindEvent("Query");
  slot_event_ = plan_.FindEvent("Slot");
  click_event_ = plan_.FindEvent("Click");
  purchase_event_ = plan_.FindEvent("Purchase");
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
      lang::Interpreter::Fire(plan_, event, &db_, scalars, kNumScalars);
  SSA_CHECK_MSG(status.ok(), status.ToString().c_str());
}

void ProgramStrategy::MakeBids(const Query& query,
                               const AdvertiserAccount& account,
                               BidsTable* bids) {
  const int num_keywords = static_cast<int>(keywords_.size());
  SSA_CHECK(account.num_keywords() == num_keywords);
  SSA_CHECK(static_cast<int>(query.relevance.size()) == num_keywords);

  // Refresh the provider-maintained columns.
  for (int kw = 0; kw < num_keywords; ++kw) {
    Value* row = keywords_table_->MutableRow(kw);
    row[kMaxBid] = Value::Number(account.max_bid[kw]);
    row[kRoi] = Value::Number(account.Roi(kw));
    row[kRelevance] = Value::Number(query.relevance[kw]);
  }

  // The engine "inserts" the query; AFTER INSERT ON Query triggers fire.
  Fire(query_event_, query, account, std::nullopt);

  // Read the program's Bids table back out.
  for (int row = 0; row < bids_table_->num_rows(); ++row) {
    const Value& v = bids_table_->Row(row)[kBidsValue];
    const Money value = v.is_number() ? v.number() : 0.0;
    bids->AddBid(row_formulas_[row], value < 0 ? 0 : value);
  }
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
  WireReader r(blob);
  SSA_RETURN_IF_ERROR(DecodeTable(&r, keywords_table_));
  SSA_RETURN_IF_ERROR(DecodeTable(&r, bids_table_));
  if (r.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in ProgramStrategy state");
  }
  if (keywords_table_->num_rows() != static_cast<int>(keywords_.size())) {
    return Status::InvalidArgument(
        "ProgramStrategy state has wrong keyword count");
  }
  formula_rows_.clear();
  row_formulas_.clear();
  for (int row = 0; row < bids_table_->num_rows(); ++row) {
    const Value& cell = bids_table_->At(row, kBidsFormula);
    if (!cell.is_string()) {
      return Status::InvalidArgument("Bids formula cell is not a string");
    }
    StatusOr<Formula> formula = ParseFormula(cell.str());
    if (!formula.ok()) return formula.status();
    formula_rows_[cell.str()] = row;
    row_formulas_.push_back(*std::move(formula));
  }
  return Status::Ok();
}

Money ProgramStrategy::TentativeBid(int kw) const {
  SSA_CHECK(kw >= 0 && kw < static_cast<int>(keywords_.size()));
  return keywords_table_->At(kw, kBid).number();
}

}  // namespace ssa
