#include "strategy/roi_strategy.h"

#include <algorithm>
#include <utility>

#include "durability/wire.h"

namespace ssa {
namespace {

/// The formulas of the last strategy this thread constructed, shared with
/// the next one when equal: a population of n ROI bidders holds one copy
/// instead of n (about 180 bytes each at 10 keywords).
std::shared_ptr<const std::vector<Formula>> SharedFormulas(
    const std::vector<Formula>& formulas) {
  thread_local std::shared_ptr<const std::vector<Formula>> last;
  const bool same =
      last != nullptr && last->size() == formulas.size() &&
      std::equal(formulas.begin(), formulas.end(), last->begin(),
                 [](const Formula& a, const Formula& b) {
                   return a.StructurallyEquals(b);
                 });
  if (!same) last = std::make_shared<const std::vector<Formula>>(formulas);
  return last;
}

}  // namespace

RoiStrategy::RoiStrategy(const std::vector<Formula>& keyword_formulas)
    : keyword_formulas_(SharedFormulas(keyword_formulas)),
      bids_(keyword_formulas_->size(), 0.0) {
  SSA_CHECK(!keyword_formulas_->empty());
}

void RoiStrategy::MakeBids(const Query& query,
                           const AdvertiserAccount& account, BidsTable* bids) {
  StepOn(query, account, &bids_, bids);
}

void RoiStrategy::PeekBids(const Query& query,
                           const AdvertiserAccount& account,
                           BidsTable* bids) const {
  std::vector<Money> tentative = bids_;  // adjustment lands here, not in bids_
  StepOn(query, account, &tentative, bids);
}

void RoiStrategy::StepOn(const Query& query, const AdvertiserAccount& account,
                         std::vector<Money>* tentative,
                         BidsTable* bids) const {
  std::vector<Money>& tb = *tentative;
  const int num_keywords = static_cast<int>(tb.size());
  SSA_CHECK(account.num_keywords() == num_keywords);
  SSA_CHECK(static_cast<int>(query.relevance.size()) == num_keywords);

  // Tentative-bid update (lines 3-20 of Figure 5). The subqueries range
  // over *all* keywords; the relevance predicate restricts the UPDATE to
  // keywords relevant to this query.
  double max_roi = account.Roi(0), min_roi = account.Roi(0);
  for (int kw = 1; kw < num_keywords; ++kw) {
    const double roi = account.Roi(kw);
    max_roi = std::max(max_roi, roi);
    min_roi = std::min(min_roi, roi);
  }
  if (account.Underspending(query.time)) {
    for (int kw = 0; kw < num_keywords; ++kw) {
      if (query.relevance[kw] > 0 && account.Roi(kw) == max_roi &&
          tb[kw] < account.max_bid[kw]) {
        tb[kw] += 1;
      }
    }
  } else if (account.Overspending(query.time)) {
    for (int kw = 0; kw < num_keywords; ++kw) {
      if (query.relevance[kw] > 0 && account.Roi(kw) == min_roi &&
          tb[kw] > 0) {
        tb[kw] -= 1;
      }
    }
  }

  // Bids-table update (lines 22-27): one row per distinct formula, value =
  // sum of tentative bids of keywords with relevance > 0.7 carrying it.
  // Formulas are grouped by structural equality (the keyword universe is
  // small, so the quadratic grouping is irrelevant).
  for (int kw = 0; kw < num_keywords; ++kw) {
    if (query.relevance[kw] <= 0.7) continue;
    bool merged = false;
    for (size_t row = 0; row < bids->rows().size(); ++row) {
      if (bids->rows()[row].formula.StructurallyEquals(
              (*keyword_formulas_)[kw])) {
        // Rebuild the row with the summed value (BidsTable rows are
        // immutable by design; re-adding keeps the interface minimal).
        BidsTable updated;
        for (size_t r = 0; r < bids->rows().size(); ++r) {
          updated.AddBid(bids->rows()[r].formula,
                         bids->rows()[r].value +
                             (r == row ? tb[kw] : 0.0));
        }
        *bids = std::move(updated);
        merged = true;
        break;
      }
    }
    if (!merged) bids->AddBid((*keyword_formulas_)[kw], tb[kw]);
  }
}

void RoiStrategy::WriteRoiBids(const Query& query,
                               const AdvertiserAccount& account,
                               const Money* bids) {
  (void)query;
  (void)account;
  bids_.assign(bids, bids + bids_.size());
}

void RoiStrategy::SaveState(std::string* out) const {
  WireWriter(out).PutDoubleVector(bids_);
}

Status RoiStrategy::RestoreState(std::string_view blob) {
  WireReader r(blob);
  std::vector<Money> bids;
  SSA_RETURN_IF_ERROR(r.GetDoubleVector(&bids));
  if (bids.size() != bids_.size()) {
    return Status::InvalidArgument(
        "RoiStrategy state has wrong keyword count");
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in RoiStrategy state");
  }
  bids_ = std::move(bids);
  return Status::Ok();
}

}  // namespace ssa
