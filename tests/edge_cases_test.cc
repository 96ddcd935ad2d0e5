// Edge cases and adversarial inputs across modules: massive ties, empty
// populations, degenerate dimensions, deep formulas, and cross-checks under
// deliberately hostile weight matrices.

#include <gtest/gtest.h>

#include "auction/query.h"
#include "auction/workload.h"
#include "core/formula_parser.h"
#include "core/winner_determination.h"
#include "matching/brute_force.h"
#include "matching/hungarian.h"
#include "matching/munkres.h"
#include "strategy/threshold_algorithm.h"

namespace ssa {
namespace {

TEST(EdgeCaseTest, MatchingAllEqualWeights) {
  // Every edge identical: any size-k matching is optimal; solvers must not
  // loop or disagree on the objective despite total degeneracy.
  for (int n : {1, 3, 10, 50}) {
    for (int k : {1, 2, 5}) {
      const std::vector<double> w(static_cast<size_t>(n) * k, 7.0);
      const double expect = 7.0 * std::min(n, k);
      EXPECT_DOUBLE_EQ(MaxWeightMatchingDense(w, n, k).total_weight, expect);
      EXPECT_DOUBLE_EQ(MunkresMatching(w, n, k).total_weight, expect);
      if (n <= 10 && k <= 3) {
        EXPECT_DOUBLE_EQ(BruteForceMatching(w, n, k).total_weight, expect);
      }
    }
  }
}

TEST(EdgeCaseTest, MatchingAllZeroWeights) {
  const std::vector<double> w(20, 0.0);
  const Allocation a = MaxWeightMatchingDense(w, 10, 2);
  EXPECT_DOUBLE_EQ(a.total_weight, 0.0);
}

TEST(EdgeCaseTest, SingleAdvertiserManySlots) {
  std::vector<double> w = {1, 5, 3, 2};
  const Allocation a = MaxWeightMatchingDense(w, 1, 4);
  EXPECT_EQ(a.advertiser_to_slot[0], 1);
  EXPECT_DOUBLE_EQ(a.total_weight, 5.0);
  const Allocation m = MunkresMatching(w, 1, 4);
  EXPECT_DOUBLE_EQ(m.total_weight, 5.0);
}

TEST(EdgeCaseTest, WinnerDeterminationEmptyPopulation) {
  RevenueMatrix m(0, 5);
  const WdResult r = DetermineWinners(m, WdMethod::kReducedHungarian);
  EXPECT_EQ(r.allocation.NumAssigned(), 0);
  EXPECT_DOUBLE_EQ(r.expected_revenue, 0.0);
}

TEST(EdgeCaseTest, WinnerDeterminationOneSlot) {
  RevenueMatrix m(4, 1);
  for (int i = 0; i < 4; ++i) m.Set(i, 0, i + 1.0);
  for (WdMethod method : {WdMethod::kLp, WdMethod::kHungarian,
                          WdMethod::kReducedHungarian, WdMethod::kBruteForce}) {
    const WdResult r = DetermineWinners(m, method);
    EXPECT_EQ(r.allocation.slot_to_advertiser[0], 3) << WdMethodName(method);
    EXPECT_DOUBLE_EQ(r.expected_revenue, 4.0);
  }
}

TEST(EdgeCaseTest, DeepFormulaNesting) {
  // 200 nested negations: evaluation must be exact (even parity => id).
  Formula f = Formula::Click();
  for (int i = 0; i < 200; ++i) f = !f;
  AdvertiserOutcome o;
  o.clicked = true;
  EXPECT_TRUE(f.Evaluate(o));
  // And a wide disjunction over 100 slots round-trips through the parser.
  std::vector<SlotIndex> slots;
  for (int j = 0; j < 100; ++j) slots.push_back(j);
  const Formula wide = Formula::AnySlot(slots);
  auto reparsed = ParseFormula(wide.ToString());
  ASSERT_TRUE(reparsed.ok());
  o.slot = 99;
  EXPECT_TRUE(reparsed->Evaluate(o));
  o.slot = 100;
  EXPECT_FALSE(reparsed->Evaluate(o));
}

TEST(EdgeCaseTest, QueryGeneratorUniformAndSequential) {
  QueryGenerator gen(10, 77);
  std::vector<int> counts(10, 0);
  for (int t = 1; t <= 20000; ++t) {
    const Query q = gen.Next();
    ASSERT_EQ(q.time, t);
    ASSERT_GE(q.keyword, 0);
    ASSERT_LT(q.keyword, 10);
    ASSERT_DOUBLE_EQ(q.relevance[q.keyword], 1.0);
    ++counts[q.keyword];
  }
  for (int c : counts) {
    EXPECT_GT(c, 1600);  // ~2000 expected; loose 4-sigma-ish bounds
    EXPECT_LT(c, 2400);
  }
}

TEST(EdgeCaseTest, WorkloadDeterministicAndIndependentOfOtherDraws) {
  WorkloadConfig config;
  config.num_advertisers = 50;
  config.seed = 123;
  const Workload a = MakePaperWorkload(config);
  const Workload b = MakePaperWorkload(config);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.accounts[i].value_per_click, b.accounts[i].value_per_click);
    EXPECT_DOUBLE_EQ(a.accounts[i].target_spend_rate,
                     b.accounts[i].target_spend_rate);
  }
}

TEST(EdgeCaseTest, ThresholdAlgorithmThreeListsSumScore) {
  // TA generalizes beyond two lists / product scores: sum of three
  // attributes, cross-checked against a full scan.
  Rng rng(31);
  const int n = 500, k = 7;
  std::vector<std::vector<double>> attrs(3, std::vector<double>(n));
  for (auto& a : attrs) {
    for (double& x : a) x = rng.Uniform(0.0, 1.0);
  }
  std::vector<std::unique_ptr<VectorSortedList>> lists;
  std::vector<SortedAccessList*> raw;
  for (const auto& a : attrs) {
    std::vector<std::pair<double, int32_t>> entries;
    for (int i = 0; i < n; ++i) entries.emplace_back(a[i], i);
    std::sort(entries.begin(), entries.end(), [](const auto& x, const auto& y) {
      if (x.first != y.first) return x.first > y.first;
      return x.second < y.second;
    });
    lists.push_back(std::make_unique<VectorSortedList>(std::move(entries)));
    raw.push_back(lists.back().get());
  }
  auto score = [&](int32_t id) {
    return attrs[0][id] + attrs[1][id] + attrs[2][id];
  };
  const auto ta = ThresholdTopK(
      raw, score,
      [](const std::vector<double>& c) { return c[0] + c[1] + c[2]; }, k, n);
  // Reference.
  std::vector<std::pair<double, int32_t>> all;
  for (int i = 0; i < n; ++i) all.emplace_back(score(i), i);
  std::sort(all.rbegin(), all.rend());
  ASSERT_EQ(ta.top.size(), static_cast<size_t>(k));
  for (int r = 0; r < k; ++r) {
    EXPECT_EQ(ta.top[r].second, all[r].second) << "rank " << r;
  }
  EXPECT_LT(ta.sorted_accesses, 3 * n);  // never worse than reading all lists
}

TEST(EdgeCaseTest, MunkresKGreaterThanN) {
  // More slots than advertisers with negative entries sprinkled in.
  const std::vector<double> w = {5, -2, 3, 1,   // adv 0
                                 4, 6, -1, 2};  // adv 1
  const Allocation a = MunkresMatching(w, 2, 4);
  const Allocation b = MaxWeightMatchingDense(w, 2, 4);
  const Allocation oracle = BruteForceMatching(w, 2, 4);
  EXPECT_DOUBLE_EQ(a.total_weight, oracle.total_weight);
  EXPECT_DOUBLE_EQ(b.total_weight, oracle.total_weight);
}

}  // namespace
}  // namespace ssa
