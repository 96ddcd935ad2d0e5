#ifndef SSA_STRATEGY_PROGRAM_STRATEGY_H_
#define SSA_STRATEGY_PROGRAM_STRATEGY_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "db/table.h"
#include "lang/interpreter.h"
#include "strategy/strategy.h"
#include "util/status.h"

namespace ssa {

/// A bidding strategy defined by a program in the Section II-B language.
/// The advertiser's private database holds the Figure 4 Keywords table
///
///   Keywords(text, formula, maxbid, roi, bid, relevance)
///
/// and a Bids(formula, value) table with one row per distinct formula. Per
/// auction, the search provider refreshes the provider-maintained columns
/// (roi, relevance, maxbid) and scalars (amtSpent, time, targetSpendRate),
/// fires the program's AFTER INSERT ON Query triggers, and reads the Bids
/// table back out. The `bid` column is program state and persists across
/// auctions.
///
/// Running the verbatim Figure 5 Equalize-ROI program through this class is
/// behaviorally identical to the native RoiStrategy — the
/// `lang_equivalence_test` locks that in.
///
/// The program is compiled once, in Create(), against the two tables and
/// the scalars above; the strategy keeps only the compiled plan. Syntax
/// errors fail Create(). Name errors do not: an unknown table, column or
/// variable compiles into a node that fails when it is first evaluated
/// (MakeBids / OnOutcome then abort with the language's error message), so
/// a bad name in a branch that never runs is harmless, as it always was.
/// Type errors (arithmetic on strings, aggregates over a string column)
/// likewise surface only when executed. The plan is never written after
/// Create(), so running one strategy on different threads from one auction
/// to the next needs no more than the happens-before edge the engine
/// already provides between its captures.
class ProgramStrategy : public BiddingStrategy {
 public:
  /// Keyword metadata: display text and the bid formula per keyword.
  struct KeywordSpec {
    std::string text;
    Formula formula;
  };

  /// Parses and compiles `source` and sets up the private tables. Returns
  /// an error on parse failure; name and type errors surface at first
  /// execution (see above).
  static StatusOr<std::unique_ptr<ProgramStrategy>> Create(
      std::string_view source, std::vector<KeywordSpec> keywords);

  void MakeBids(const Query& query, const AdvertiserAccount& account,
                BidsTable* bids) override;

  /// Section II-B notification triggers: receiving a slot fires AFTER
  /// INSERT ON Slot; a click fires AFTER INSERT ON Click; a purchase fires
  /// AFTER INSERT ON Purchase. The handlers see the same tables and scalars
  /// as the bid trigger, plus `wonSlot` (1-based slot received).
  void OnOutcome(const Query& query, const AdvertiserAccount& account,
                 SlotIndex slot, bool clicked, bool purchased) override;

  /// Checkpoint hooks: the full contents of the private Keywords and Bids
  /// tables (programs may mutate any cell, and the `bid` column is
  /// long-lived state). Restore rebuilds the formula-row index from the
  /// serialized Bids rows, so programs that inserted new formula rows
  /// round-trip too.
  void SaveState(std::string* out) const override;
  Status RestoreState(std::string_view blob) override;

  /// Current tentative bid column (for tests).
  Money TentativeBid(int kw) const;

 private:
  ProgramStrategy(const lang::ParsedProgram& program,
                  std::vector<KeywordSpec> keywords);

  /// Fires the plan's triggers on `event` (an index from FindEvent),
  /// aborting on a program error.
  void Fire(int event, const Query& query, const AdvertiserAccount& account,
            std::optional<double> won_slot);

  std::vector<KeywordSpec> keywords_;
  Database db_;
  Table* keywords_table_ = nullptr;
  Table* bids_table_ = nullptr;
  /// Row index in bids_table_ for each distinct formula string.
  std::map<std::string, int> formula_rows_;
  /// Parsed Formula per bids_table_ row.
  std::vector<Formula> row_formulas_;
  lang::CompiledProgram plan_;
  /// FindEvent results for the Query, Slot, Click and Purchase triggers.
  int query_event_ = -1;
  int slot_event_ = -1;
  int click_event_ = -1;
  int purchase_event_ = -1;
};

}  // namespace ssa

#endif  // SSA_STRATEGY_PROGRAM_STRATEGY_H_
