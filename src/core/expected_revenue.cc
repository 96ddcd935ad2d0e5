#include "core/expected_revenue.h"

#include <numeric>

#include "util/thread_pool.h"

namespace ssa {

RevenueMatrix::RevenueMatrix(int num_advertisers, int num_slots)
    : n_(num_advertisers),
      k_(num_slots),
      assigned_(static_cast<size_t>(num_advertisers) * num_slots, 0.0),
      unassigned_(num_advertisers, 0.0) {
  SSA_CHECK(n_ >= 0 && k_ >= 0);
}

void RevenueMatrix::Reset(int num_advertisers, int num_slots) {
  SSA_CHECK(num_advertisers >= 0 && num_slots >= 0);
  n_ = num_advertisers;
  k_ = num_slots;
  assigned_.assign(static_cast<size_t>(n_) * k_, 0.0);
  unassigned_.assign(static_cast<size_t>(n_), 0.0);
}

double RevenueMatrix::UnassignedTotal() const {
  return std::accumulate(unassigned_.begin(), unassigned_.end(), 0.0);
}

void OutcomeProbabilities(const ClickModel& model, AdvertiserId i,
                          SlotIndex slot, double prob[4]) {
  // With the slot fixed, only the (click, purchase) pair is random. An
  // unassigned ad is never displayed, hence never clicked; purchases require
  // the ad's link, so the no-click purchase probability applies only when
  // displayed (and defaults to zero). Virtual so table-backed models can
  // serve the whole distribution with one dispatch.
  model.OutcomeDistribution(i, slot, prob);
}

Money ExpectedPayment(const BidsTable& bids, const ClickModel& model,
                      AdvertiserId i, SlotIndex slot) {
  SSA_CHECK_MSG(bids.DependsOnlyOnOwnPlacement(),
                "heavyweight bids require the Section III-F solver");
  double prob[4];
  OutcomeProbabilities(model, i, slot, prob);

  Money expected = 0;
  AdvertiserOutcome outcome;
  outcome.slot = slot;
  for (int b = 0; b < 4; ++b) {
    if (prob[b] == 0.0) continue;
    outcome.clicked = (b & 2) != 0;
    outcome.purchased = (b & 1) != 0;
    expected += prob[b] * bids.Payment(outcome);
  }
  return expected;
}

/// All k + 1 distributions in one model call, then all k + 1 expected
/// payments in one walk of the advertiser's compiled rows.
void FillRevenueRow(const CompiledBids& compiled, const ClickModel& model,
                    RevenueMatrix* matrix, AdvertiserId i) {
  const int k = matrix->num_slots();
  SSA_CHECK(compiled.num_slots() == k && model.num_slots() == k);
  SSA_CHECK(i >= 0 && i < matrix->num_advertisers());
  // Per-thread scratch, sized once per page length.
  thread_local std::vector<double> prob;
  prob.resize(4 * static_cast<size_t>(k + 1));
  model.OutcomeDistributions(i, prob.data());
  compiled.ExpectedPayments(prob.data(), matrix->MutableRow(i),
                            matrix->MutableUnassignedData() + i);
}

RevenueMatrix BuildRevenueMatrix(const std::vector<BidsTable>& bids,
                                 const ClickModel& model, ThreadPool* pool) {
  const int n = static_cast<int>(bids.size());
  const int k = model.num_slots();
  SSA_CHECK(model.num_advertisers() >= n);
  RevenueMatrix matrix(n, k);
  auto fill_range = [&](int begin, int end) {
    // Compile-and-use per advertiser: one tree walk per row, then dense
    // evaluation; the compiled rows stay hot in cache for all k+1 states.
    // One scratch CompiledBids per worker keeps the loop allocation-free.
    thread_local CompiledBids compiled;
    for (AdvertiserId i = begin; i < end; ++i) {
      compiled.CompileFrom(bids[i], k);
      FillRevenueRow(compiled, model, &matrix, i);
    }
  };
  if (pool != nullptr) {
    pool->ParallelForChunks(n, fill_range);
  } else {
    fill_range(0, n);
  }
  return matrix;
}

RevenueMatrix BuildRevenueMatrixBaseline(const std::vector<BidsTable>& bids,
                                         const ClickModel& model) {
  const int n = static_cast<int>(bids.size());
  const int k = model.num_slots();
  SSA_CHECK(model.num_advertisers() >= n);
  RevenueMatrix matrix(n, k);
  for (AdvertiserId i = 0; i < n; ++i) {
    for (SlotIndex j = 0; j < k; ++j) {
      matrix.Set(i, j, ExpectedPayment(bids[i], model, i, j));
    }
    matrix.SetUnassigned(i, ExpectedPayment(bids[i], model, i, kNoSlot));
  }
  return matrix;
}

RevenueMatrix BuildRevenueMatrixCompiled(
    const std::vector<const CompiledBids*>& bids, const ClickModel& model,
    ThreadPool* pool) {
  const int n = static_cast<int>(bids.size());
  const int k = model.num_slots();
  SSA_CHECK(model.num_advertisers() >= n);
  RevenueMatrix matrix(n, k);
  auto fill_range = [&](int begin, int end) {
    for (AdvertiserId i = begin; i < end; ++i) {
      SSA_CHECK(bids[i] != nullptr && bids[i]->num_slots() == k);
      FillRevenueRow(*bids[i], model, &matrix, i);
    }
  };
  if (pool != nullptr) {
    pool->ParallelForChunks(n, fill_range);
  } else {
    fill_range(0, n);
  }
  return matrix;
}

}  // namespace ssa
