#ifndef SSA_STRATEGY_PROGRAM_STRATEGY_H_
#define SSA_STRATEGY_PROGRAM_STRATEGY_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "db/table.h"
#include "lang/interpreter.h"
#include "strategy/roi_bidder.h"
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
/// Figure 5 runs natively. When a source is first compiled, a structural
/// classifier (lang::IsEqualizeRoi) checks whether its Query trigger is
/// exactly Figure 5's plan: node ops, operand order, columns, tables and
/// constants, never the source text. For such a plan MakeBids runs a native
/// step over the same two tables in place of the interpreter, with the
/// interpreter's double operations in its order, so the tables, bids and
/// checkpoint bytes are bitwise those the interpreter leaves. The step
/// first checks that every cell it reads holds the type the interpreter
/// needs (numbers in bid, maxbid, roi and relevance, strings in the
/// formula columns); if one does not (a NULL bid, say), it writes nothing
/// and the interpreter runs. Every other program, and the Slot, Click and
/// Purchase triggers of every program, are interpreted. PeekBids, recovery
/// and followers all bid through MakeBids, so they take the same step.
///
/// A classified program with no Slot, Click or Purchase trigger also offers
/// the engine's RHTALU planner its RoiBidder view (roi_bidder()): the bid
/// cells, and per keyword the formula of the one Bids row its bid lands in.
/// The planner then runs its bids logically and writes them back with
/// WriteRoiBids, which leaves every cell as MakeBids would have: maxbid,
/// roi and relevance as the last planned query saw them, the bids, and the
/// Bids values summed from them. Checkpoints of a planned engine are
/// therefore byte-identical to those of an engine that ran every program.
///
/// The program is compiled against the two tables and the scalars above,
/// which are the same for every ProgramStrategy, so the source text alone
/// determines the compiled plan. Strategies created from one source share
/// one plan through a process-wide registry keyed by the source: only the
/// first Create() of a source parses and compiles it. The registry holds
/// weak references, so a plan is freed with the last strategy running it.
/// Syntax errors fail Create(). Name errors do not: an unknown table,
/// column or variable compiles into a node that fails when it is first
/// evaluated (MakeBids / OnOutcome then abort with the language's error
/// message), so a bad name in a branch that never runs is harmless, as it
/// always was. Type errors (arithmetic on strings, aggregates over a string
/// column) likewise surface only when executed. A plan is never written
/// after it is compiled and every run keeps its state on the executor's
/// stack, so strategies sharing a plan may run on different threads at
/// once; one strategy running on different threads from one auction to the
/// next needs no more than the happens-before edge the engine already
/// provides between its captures.
class ProgramStrategy final : public BiddingStrategy, public RoiBidder {
 public:
  /// Keyword metadata: display text and the bid formula per keyword.
  struct KeywordSpec {
    std::string text;
    Formula formula;
  };

  /// Takes the plan of `source` from the registry, parsing and compiling
  /// it only when no live strategy runs that source, and sets up the
  /// private tables. Returns an error on parse failure, and
  /// InvalidArgument for a keyword formula that is not
  /// DependsOnlyOnOwnPlacement() (the engine compiles bids for the
  /// Theorem 2 fast path only); name and type errors surface at first
  /// execution (see above). Thread-safe.
  static StatusOr<std::unique_ptr<ProgramStrategy>> Create(
      std::string_view source, const std::vector<KeywordSpec>& keywords);

  void MakeBids(const Query& query, const AdvertiserAccount& account,
                BidsTable* bids) override;

  /// MakeBids on copies of the two private tables, which then replace the
  /// mutated ones: the same bids, and the state is left as it was. Same
  /// threading rule as the default.
  void PeekBids(const Query& query, const AdvertiserAccount& account,
                BidsTable* bids) const override;

  /// Section II-B notification triggers: receiving a slot fires AFTER
  /// INSERT ON Slot; a click fires AFTER INSERT ON Click; a purchase fires
  /// AFTER INSERT ON Purchase. The handlers see the same tables and scalars
  /// as the bid trigger, plus `wonSlot` (1-based slot received).
  void OnOutcome(const Query& query, const AdvertiserAccount& account,
                 SlotIndex slot, bool clicked, bool purchased) override;

  /// Checkpoint hooks: the full contents of the private Keywords and Bids
  /// tables (programs may mutate any cell, and the `bid` column is
  /// long-lived state). Restore re-parses the bid formula of every
  /// serialized Bids row and rejects a heavyweight one, as Create does. It
  /// decodes and checks the whole blob (framing, keyword count, formula
  /// cells) before it changes anything, so a failed restore leaves the
  /// strategy exactly as it was.
  void SaveState(std::string* out) const override;
  Status RestoreState(std::string_view blob) override;

  /// Current tentative bid column (for tests).
  Money TentativeBid(int kw) const;

  /// The RoiBidder view (see the class comment): this when the plan
  /// classifies as Figure 5, has no outcome trigger, and the native step's
  /// formula cells are strings; else null.
  RoiBidder* roi_bidder() override;
  int roi_keywords() const override { return num_keywords_; }
  Money roi_bid(int kw) const override;
  const Formula* roi_formulas() const override;
  void WriteRoiBids(const Query& query, const AdvertiserAccount& account,
                    const Money* bids) override;

  /// The compiled plan this strategy runs, shared with every live strategy
  /// created from the same source (for tests).
  const std::shared_ptr<const lang::CompiledProgram>& plan() const {
    return plan_;
  }

  /// True when the plan's Query trigger is Figure 5's, so MakeBids runs it
  /// natively whenever the cells allow (for tests).
  bool native_bid_step() const { return equalize_roi_; }

  /// The private Keywords (table 0) and Bids (table 1) tables, the schema
  /// the plan is compiled against (for tests and benchmarks that run the
  /// plan on a copy).
  const Database& tables() const { return db_; }

 private:
  ProgramStrategy(std::shared_ptr<const lang::CompiledProgram> plan,
                  bool equalize_roi, const std::vector<KeywordSpec>& keywords);

  /// Fires the plan's triggers on `event` (an index from FindEvent),
  /// aborting on a program error.
  void Fire(int event, const Query& query, const AdvertiserAccount& account,
            std::optional<double> won_slot);

  /// Refreshes the provider-maintained columns (maxbid, roi, relevance).
  void Refresh(const Query& query, const AdvertiserAccount& account);

  /// The Figure 5 Query trigger, run natively on the private tables after
  /// MakeBids has refreshed them. Returns false, having written nothing,
  /// when a cell it reads lacks the type the interpreter needs.
  bool RunEqualizeRoi(const Query& query, const AdvertiserAccount& account);

  /// Figure 5's UPDATE Bids: each row's value is the sum, from +0.0 in
  /// Keywords row order, of the bids of relevant keywords (> 0.7) whose
  /// formula text is the row's.
  void SumBids();

  /// Computes keyword_formulas_ and roi_cells_ok_ from the tables (at
  /// construction and after a restore).
  void MapKeywordRows();

  int num_keywords_;
  Database db_;
  Table* keywords_table_ = nullptr;
  Table* bids_table_ = nullptr;
  /// Parsed Formula per bids_table_ row; each depends only on the bidder's
  /// own placement (Create and RestoreState reject any other).
  std::vector<Formula> row_formulas_;
  std::shared_ptr<const lang::CompiledProgram> plan_;
  /// FindEvent results for the Query, Slot, Click and Purchase triggers.
  int query_event_ = -1;
  int slot_event_ = -1;
  int click_event_ = -1;
  int purchase_event_ = -1;
  /// The plan's Query trigger is Figure 5's (see the class comment).
  bool equalize_roi_ = false;
  /// Per keyword, the formula of the one Bids row whose formula text is the
  /// keyword's; null when some keyword has none or more than one. Shared
  /// with equal strategies (see MapKeywordRows).
  std::shared_ptr<const std::vector<Formula>> keyword_formulas_;
  /// Every formula cell is a string.
  bool roi_cells_ok_ = false;
};

}  // namespace ssa

#endif  // SSA_STRATEGY_PROGRAM_STRATEGY_H_
