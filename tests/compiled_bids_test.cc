// Property tests for the bid-compilation layer: compiled payments and
// expected payments must equal the tree-walking BidsTable evaluation *bit
// for bit* on randomized formulas (the compiled path is a pure
// representation change), the one-formula payment the RHTALU planner scores
// with must equal the kernel's on a Figure 5 program's real Bids table, and
// the engine's compiled-bids cache must hit exactly when the formulas are
// unchanged and then hand back the new values.

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/click_model.h"
#include "core/compiled_bids.h"
#include "core/expected_revenue.h"
#include "core/heavyweight.h"
#include "strategy/program_strategy.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ssa {
namespace {

/// Random formula over Slot/Click/Purchase (and optionally HeavyInSlot)
/// with bounded depth — the lang_fuzz_test generator recipe applied to the
/// bid-formula language. Slot arguments deliberately range one past
/// `num_slots` to exercise out-of-range predicates (never true on a k-slot
/// page).
Formula RandomFormula(Rng& rng, int depth, int num_slots, bool allow_heavy) {
  if (depth == 0 || rng.Bernoulli(0.35)) {
    switch (rng.NextBounded(allow_heavy ? 6 : 5)) {
      case 0:
        return Formula::True();
      case 1:
        return Formula::False();
      case 2:
        return Formula::Click();
      case 3:
        return Formula::Purchase();
      case 4:
        return Formula::Slot(
            static_cast<SlotIndex>(rng.NextBounded(num_slots + 1)));
      default:
        return Formula::HeavyInSlot(
            static_cast<SlotIndex>(rng.NextBounded(num_slots + 1)));
    }
  }
  switch (rng.NextBounded(3)) {
    case 0:
      return !RandomFormula(rng, depth - 1, num_slots, allow_heavy);
    case 1:
      return RandomFormula(rng, depth - 1, num_slots, allow_heavy) &&
             RandomFormula(rng, depth - 1, num_slots, allow_heavy);
    default:
      return RandomFormula(rng, depth - 1, num_slots, allow_heavy) ||
             RandomFormula(rng, depth - 1, num_slots, allow_heavy);
  }
}

BidsTable RandomTable(Rng& rng, int num_slots, bool allow_heavy) {
  BidsTable bids;
  const int rows = static_cast<int>(rng.NextBounded(7));  // 0..6, empty ok
  for (int r = 0; r < rows; ++r) {
    bids.AddBid(RandomFormula(rng, 4, num_slots, allow_heavy),
                static_cast<Money>(rng.UniformInt(0, 50)));
  }
  return bids;
}

MatrixClickModel RandomModel(Rng& rng, int n, int k) {
  std::vector<double> click(static_cast<size_t>(n) * k);
  std::vector<double> purchase(static_cast<size_t>(n) * k);
  for (auto& p : click) {
    // Include exact zeros: the evaluators' zero-probability skip must agree.
    p = rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.0, 1.0);
  }
  for (auto& p : purchase) p = rng.Bernoulli(0.5) ? 0.0 : rng.Uniform(0.0, 1.0);
  return MatrixClickModel(n, k, click, purchase);
}

TEST(CompiledBidsTest, PaymentMatchesTreeWalkOnRandomFormulas) {
  Rng rng(20260729);
  for (int iter = 0; iter < 300; ++iter) {
    const int k = 1 + static_cast<int>(rng.NextBounded(10));
    const BidsTable bids = RandomTable(rng, k, /*allow_heavy=*/false);
    const CompiledBids compiled = CompiledBids::Compile(bids, k);
    ASSERT_EQ(compiled.num_rows(), bids.size());
    AdvertiserOutcome outcome;
    for (SlotIndex slot = kNoSlot; slot < k; ++slot) {
      outcome.slot = slot;
      for (int b = 0; b < 4; ++b) {
        outcome.clicked = (b & 2) != 0;
        outcome.purchased = (b & 1) != 0;
        // Exact equality: compiled accumulation reproduces the tree walk.
        EXPECT_EQ(compiled.Payment(outcome), bids.Payment(outcome))
            << bids.ToString() << " slot=" << slot << " b=" << b;
      }
    }
  }
}

TEST(CompiledBidsTest, ExpectedPaymentMatchesTreeWalkExactly) {
  Rng rng(77);
  for (int iter = 0; iter < 200; ++iter) {
    const int k = 1 + static_cast<int>(rng.NextBounded(8));
    const MatrixClickModel model = RandomModel(rng, 1, k);
    const BidsTable bids = RandomTable(rng, k, /*allow_heavy=*/false);
    const CompiledBids compiled = CompiledBids::Compile(bids, k);
    double prob[4];
    for (SlotIndex slot = kNoSlot; slot < k; ++slot) {
      OutcomeProbabilities(model, 0, slot, prob);
      EXPECT_EQ(compiled.ExpectedPayment(slot, prob),
                ExpectedPayment(bids, model, 0, slot))
          << bids.ToString() << " slot=" << slot;
    }
  }
}

/// The pre-SIMD scalar mask kernel, reimplemented over the public dense
/// accessors: four row-order accumulators with (mask >> b) & 1 weights,
/// then the zero-skipping probability combine. The production kernel
/// (packed lane pairs, branch-free combine) must reproduce it bit for bit —
/// the SIMD path may never reassociate a lane.
Money ScalarReferenceExpectedPayment(const CompiledBids& compiled,
                                     SlotIndex slot, const double prob[4]) {
  const double* v = compiled.values();
  const uint8_t* m = compiled.MasksForSlot(slot);
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t r = 0; r < compiled.num_rows(); ++r) {
    for (int b = 0; b < 4; ++b) {
      acc[b] += v[r] * static_cast<double>((m[r] >> b) & 1);
    }
  }
  Money expected = 0;
  for (int b = 0; b < 4; ++b) {
    if (prob[b] == 0.0) continue;
    expected += prob[b] * acc[b];
  }
  return expected;
}

TEST(CompiledBidsTest, SimdKernelMatchesScalarReferenceBitwise) {
  Rng rng(31337);
  for (int iter = 0; iter < 500; ++iter) {
    const int k = 1 + static_cast<int>(rng.NextBounded(12));
    const BidsTable bids = RandomTable(rng, k, /*allow_heavy=*/false);
    const CompiledBids compiled = CompiledBids::Compile(bids, k);
    // Random distributions, including exact zeros and unnormalized values —
    // the kernel contract is per-lane arithmetic, not probability hygiene.
    double prob[4];
    for (double& p : prob) {
      p = rng.Bernoulli(0.25) ? 0.0 : rng.Uniform(0.0, 1.0);
    }
    for (SlotIndex slot = kNoSlot; slot < k; ++slot) {
      EXPECT_EQ(compiled.ExpectedPayment(slot, prob),
                ScalarReferenceExpectedPayment(compiled, slot, prob))
          << bids.ToString() << " slot=" << slot;
    }
  }
}

TEST(CompiledBidsTest, HeavyCompilationMatchesTreeWalkExactly) {
  Rng rng(4242);
  for (int iter = 0; iter < 100; ++iter) {
    const int k = 1 + static_cast<int>(rng.NextBounded(5));
    const BidsTable bids = RandomTable(rng, k, /*allow_heavy=*/true);
    auto base = std::make_shared<MatrixClickModel>(RandomModel(rng, 1, k));
    const ShadowHeavyClickModel model(base, std::vector<bool>(1, false),
                                      /*light_shadow=*/0.3,
                                      /*heavy_shadow=*/0.1,
                                      /*purchase_given_click=*/0.25);
    for (uint32_t mask = 0; mask < (1u << k); ++mask) {
      const CompiledBids compiled = CompiledBids::CompileHeavy(bids, k, mask);
      AdvertiserOutcome outcome;
      outcome.heavy_slot_mask = mask;
      for (SlotIndex slot = kNoSlot; slot < k; ++slot) {
        outcome.slot = slot;
        for (int b = 0; b < 4; ++b) {
          outcome.clicked = (b & 2) != 0;
          outcome.purchased = (b & 1) != 0;
          EXPECT_EQ(compiled.Payment(outcome), bids.Payment(outcome));
        }
        // Reconstruct the heavy outcome distribution the way
        // ExpectedPaymentHeavy does, and require exact agreement.
        const bool assigned = slot != kNoSlot;
        const double pc =
            assigned ? model.ClickProbability(0, slot, mask) : 0.0;
        const double ppc =
            assigned ? model.PurchaseProbabilityGivenClick(0, slot, mask)
                     : 0.0;
        const double prob[4] = {1.0 - pc, 0.0, pc * (1.0 - ppc), pc * ppc};
        const Money compiled_expected = compiled.ExpectedPayment(slot, prob);
        EXPECT_EQ(ExpectedPaymentHeavy(bids, model, 0, slot, mask),
                  compiled_expected);
      }
    }
  }
}

TEST(CompiledBidsTest, CompileRejectsHeavyFormulas) {
  BidsTable bids;
  bids.AddBid(Formula::HeavyInSlot(0), 5);
  EXPECT_DEATH(CompiledBids::Compile(bids, 3), "CompileHeavy");
}

/// Multi-row tables built to hit the row kernel's corners: 2..8 rows,
/// zero values, and `!Slot` rows (true in every state but one, including
/// unassigned).
BidsTable MultiRowTable(Rng& rng, int num_slots) {
  BidsTable bids;
  const int rows = 2 + static_cast<int>(rng.NextBounded(7));
  for (int r = 0; r < rows; ++r) {
    const SlotIndex j = static_cast<SlotIndex>(rng.NextBounded(num_slots));
    Formula f;
    switch (rng.NextBounded(4)) {
      case 0:
        f = !Formula::Slot(j);
        break;
      case 1:
        f = !Formula::Slot(j) && Formula::Click();
        break;
      case 2:
        f = Formula::Purchase();
        break;
      default:
        f = RandomFormula(rng, 3, num_slots, /*allow_heavy=*/false);
        break;
    }
    const Money value =
        rng.Bernoulli(0.3) ? 0.0 : static_cast<Money>(rng.UniformInt(1, 50));
    bids.AddBid(f, value);
  }
  return bids;
}

/// Purchases after no click: overrides only the per-quantity virtuals, so
/// both distribution fetches take the ClickModel defaults.
class NoClickPurchaseModel : public ClickModel {
 public:
  NoClickPurchaseModel(MatrixClickModel base, std::vector<double> no_click)
      : base_(std::move(base)), no_click_(std::move(no_click)) {}
  int num_advertisers() const override { return base_.num_advertisers(); }
  int num_slots() const override { return base_.num_slots(); }
  double ClickProbability(AdvertiserId i, SlotIndex j) const override {
    return base_.ClickProbability(i, j);
  }
  double PurchaseProbabilityGivenClick(AdvertiserId i,
                                       SlotIndex j) const override {
    return base_.PurchaseProbabilityGivenClick(i, j);
  }
  double PurchaseProbabilityGivenNoClick(AdvertiserId i,
                                         SlotIndex j) const override {
    return no_click_[static_cast<size_t>(i) * num_slots() + j];
  }

 private:
  MatrixClickModel base_;
  std::vector<double> no_click_;
};

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

/// Every build path — serial, pooled, and over pre-compiled rows — must
/// reproduce the tree-walking baseline bit for bit.
void ExpectBuildsMatchBaseline(const std::vector<BidsTable>& bids,
                               const ClickModel& model) {
  const int n = static_cast<int>(bids.size());
  const int k = model.num_slots();
  std::vector<CompiledBids> compiled;
  std::vector<const CompiledBids*> view;
  compiled.reserve(n);
  for (const BidsTable& table : bids) {
    compiled.push_back(CompiledBids::Compile(table, k));
    view.push_back(&compiled.back());
  }
  ThreadPool pool(3);
  const RevenueMatrix baseline = BuildRevenueMatrixBaseline(bids, model);
  const RevenueMatrix builds[] = {
      BuildRevenueMatrix(bids, model),
      BuildRevenueMatrix(bids, model, &pool),
      BuildRevenueMatrixCompiled(view, model),
  };
  for (const RevenueMatrix& built : builds) {
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(Bits(built.AtUnassigned(i)), Bits(baseline.AtUnassigned(i)))
          << bids[i].ToString();
      for (int j = 0; j < k; ++j) {
        EXPECT_EQ(Bits(built.At(i, j)), Bits(baseline.At(i, j)))
            << i << "," << j << " " << bids[i].ToString();
      }
    }
  }
}

TEST(BuildRevenueMatrixTest, CompiledMatchesBaselineBitForBit) {
  Rng rng(99);
  {
    SCOPED_TRACE("random tables, matrix model");
    const int n = 40, k = 7;
    std::vector<BidsTable> bids;
    for (int i = 0; i < n; ++i) {
      bids.push_back(RandomTable(rng, k, /*allow_heavy=*/false));
    }
    ExpectBuildsMatchBaseline(bids, RandomModel(rng, n, k));
  }
  {
    SCOPED_TRACE("purchase without a click: default ClickModel path");
    const int n = 30, k = 6;
    std::vector<double> no_click(static_cast<size_t>(n) * k);
    for (double& p : no_click) {
      p = rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(0.0, 0.2);
    }
    const NoClickPurchaseModel model(RandomModel(rng, n, k), no_click);
    std::vector<BidsTable> bids;
    for (int i = 0; i < n; ++i) {
      bids.push_back(i % 2 == 0 ? RandomTable(rng, k, false)
                                : MultiRowTable(rng, k));
    }
    ExpectBuildsMatchBaseline(bids, model);
  }
  {
    SCOPED_TRACE("separable model");
    const int n = 30, k = 9;
    std::vector<double> advertiser(n), slot(k);
    for (double& f : advertiser) f = rng.Uniform(0.2, 1.0);
    for (int j = 0; j < k; ++j) slot[j] = 0.9 * (k - j) / k;
    const SeparableClickModel model(advertiser, slot,
                                    /*purchase_given_click=*/0.3);
    std::vector<BidsTable> bids;
    for (int i = 0; i < n; ++i) bids.push_back(MultiRowTable(rng, k));
    ExpectBuildsMatchBaseline(bids, model);
  }
  {
    SCOPED_TRACE("multi-row tables with zero values and !Slot rows");
    const int n = 50, k = 15;
    std::vector<BidsTable> bids;
    for (int i = 0; i < n; ++i) bids.push_back(MultiRowTable(rng, k));
    ExpectBuildsMatchBaseline(bids, RandomModel(rng, n, k));
  }
  {
    SCOPED_TRACE("k = 70: more slot states than one kernel block");
    const int n = 20, k = 70;
    std::vector<BidsTable> bids;
    for (int i = 0; i < n; ++i) {
      BidsTable one_row;
      one_row.AddBid(Formula::Click(), 1 + i);
      bids.push_back(i % 3 == 0   ? one_row
                     : i % 3 == 1 ? MultiRowTable(rng, k)
                                  : RandomTable(rng, k, false));
    }
    ExpectBuildsMatchBaseline(bids, RandomModel(rng, n, k));
  }
}

TEST(CompiledBidsCacheTest, HitsOnUnchangedFormulasMissesOnChange) {
  CompiledBidsCache cache;
  BidsTable bids;
  bids.AddBid(Formula::Slot(0), 7);

  const CompiledBids* first = &cache.Get(0, bids, 4);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);

  // Same content (even a freshly rebuilt table) => cache hit, same entry.
  BidsTable rebuilt;
  rebuilt.AddBid(Formula::Slot(0), 7);
  const CompiledBids* second = &cache.Get(0, rebuilt, 4);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(first, second);

  // Changed value only => hit: the masks stay, the new value is taken.
  BidsTable changed;
  changed.AddBid(Formula::Slot(0), 8);
  const CompiledBids& revalued = cache.Get(0, changed, 4);
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 1);
  AdvertiserOutcome outcome;
  outcome.slot = 0;
  EXPECT_EQ(revalued.Payment(outcome), 8.0);

  // Changed formula => recompile.
  BidsTable other_formula;
  other_formula.AddBid(Formula::Slot(1), 8);
  const CompiledBids& recompiled = cache.Get(0, other_formula, 4);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(recompiled.Payment(outcome), 0.0);
  outcome.slot = 1;
  EXPECT_EQ(recompiled.Payment(outcome), 8.0);

  // Changed row count => recompile, even when the shared rows are equal.
  BidsTable extra_row = other_formula;
  extra_row.AddBid(Formula::Slot(1), 2);
  EXPECT_EQ(cache.Get(0, extra_row, 4).Payment(outcome), 10.0);
  EXPECT_EQ(cache.misses(), 3);

  // Different slot count invalidates even with equal content.
  const CompiledBids& wider = cache.Get(0, extra_row, 5);
  EXPECT_EQ(cache.misses(), 4);
  EXPECT_EQ(wider.num_slots(), 5);

  // Other advertisers occupy independent entries.
  cache.Get(3, bids, 4);
  EXPECT_EQ(cache.misses(), 5);
  cache.Get(3, bids, 4);
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.Get(0, extra_row, 5).Payment(outcome), 10.0);
  EXPECT_EQ(cache.hits(), 4);
}

/// Whether `a` and `b` are the same compilation, bit for bit: slot count,
/// row values and every slot state's mask column.
void ExpectSameCompilation(const CompiledBids& a, const CompiledBids& b) {
  ASSERT_EQ(a.num_slots(), b.num_slots());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(Bits(a.values()[r]), Bits(b.values()[r])) << "row " << r;
  }
  for (SlotIndex slot = kNoSlot; slot < a.num_slots(); ++slot) {
    const uint8_t* ma = a.MasksForSlot(slot);
    const uint8_t* mb = b.MasksForSlot(slot);
    for (size_t r = 0; r < a.num_rows(); ++r) EXPECT_EQ(ma[r], mb[r]);
  }
}

TEST(CompiledBidsCacheTest, IdenticalTableRecompilesIdentically) {
  // Compilation is a pure function of (table, num_slots): a table re-emitted
  // with identical content recompiles, in a cache with no history, to the
  // *identical* compiled form. This is what lets checkpoints hold no cache
  // state at all.
  const int k = 5;
  Rng rng(20260808);
  CompiledBidsCache original;
  std::vector<BidsTable> tables;
  for (AdvertiserId i = 0; i < 8; ++i) {
    tables.push_back(RandomTable(rng, k, /*allow_heavy=*/false));
    original.Get(i, tables.back(), k);
  }

  CompiledBidsCache restored;
  restored.Reserve(8);
  for (AdvertiserId i = 0; i < 8; ++i) {
    // "Re-emitted" table with identical content, rebuilt from scratch.
    BidsTable reemitted = tables[static_cast<size_t>(i)];
    const CompiledBids& recompiled = restored.Get(i, reemitted, k);
    const CompiledBids& first =
        original.Get(i, tables[static_cast<size_t>(i)], k);
    ExpectSameCompilation(recompiled, first);
  }
  EXPECT_EQ(restored.misses(), 8);
}

TEST(CompiledBidsCacheTest, ValueOnlyChangeHitsAndEqualsAFreshCompile) {
  // The masks depend on the formulas alone, so a table whose values moved
  // hits — and the hit must hand back the new values' bits, its payments
  // bitwise a fresh Compile's. Each round draws new values (+0.0 and -0.0
  // among them) for fixed random formulas.
  const int k = 6;
  const int n = 12;
  Rng rng(20261019);
  const MatrixClickModel model = RandomModel(rng, n, k);
  std::vector<BidsTable> shapes;
  for (int i = 0; i < n; ++i) {
    shapes.push_back(RandomTable(rng, k, /*allow_heavy=*/false));
  }
  CompiledBidsCache cache;
  int64_t lookups = 0;
  std::vector<double> prob(static_cast<size_t>(k + 1) * 4);
  std::vector<double> want(static_cast<size_t>(k) + 1);
  std::vector<double> got(static_cast<size_t>(k) + 1);
  for (int round = 0; round < 20; ++round) {
    for (AdvertiserId i = 0; i < n; ++i) {
      BidsTable bids;
      for (const BidRow& row : shapes[static_cast<size_t>(i)].rows()) {
        const Money zero = rng.Bernoulli(0.5) ? 0.0 : -0.0;
        bids.AddBid(row.formula,
                    rng.Bernoulli(0.3)
                        ? zero
                        : static_cast<Money>(rng.UniformInt(1, 50)));
      }
      const CompiledBids& cached = cache.Get(i, bids, k);
      ++lookups;
      const CompiledBids fresh = CompiledBids::Compile(bids, k);
      ExpectSameCompilation(cached, fresh);
      model.OutcomeDistributions(i, prob.data());
      cached.ExpectedPayments(prob.data(), got.data(), &got[k]);
      fresh.ExpectedPayments(prob.data(), want.data(), &want[k]);
      for (int s = 0; s <= k; ++s) {
        EXPECT_EQ(Bits(got[s]), Bits(want[s])) << "round " << round;
      }
    }
  }
  EXPECT_EQ(cache.misses(), n);
  EXPECT_EQ(cache.hits(), lookups - n);
}

TEST(CompiledBidsCacheTest, StructurallyEqualFormulasHit) {
  // Formulas are compared by node identity first, then by structure: a
  // table rebuilt from fresh nodes hits, and so does a -0.0 value where
  // +0.0 was compiled, which the hit hands back bit for bit.
  CompiledBidsCache cache;
  BidsTable a;
  a.AddBid(Formula::Click() && Formula::Slot(1), 3.0);
  a.AddBid(Formula::Purchase(), 0.0);
  cache.Get(0, a, 4);
  BidsTable fresh;
  fresh.AddBid(Formula::Click() && Formula::Slot(1), 3.0);
  fresh.AddBid(Formula::Purchase(), 0.0);
  cache.Get(0, fresh, 4);
  EXPECT_EQ(cache.hits(), 1);
  BidsTable negative_zero;
  negative_zero.AddBid(Formula::Click() && Formula::Slot(1), 3.0);
  negative_zero.AddBid(Formula::Purchase(), -0.0);
  const CompiledBids& compiled = cache.Get(0, negative_zero, 4);
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(Bits(compiled.values()[1]), Bits(-0.0));
}

// Figure 5 Equalize-ROI, as in examples/expressive_program.cc.
constexpr const char kEqualizeRoi[] = R"sql(
CREATE TRIGGER bid AFTER INSERT ON Query
{
  IF amtSpent < targetSpendRate * time THEN
    UPDATE Keywords SET bid = bid + 1
    WHERE roi = ( SELECT MAX( K.roi ) FROM Keywords K )
      AND relevance > 0 AND bid < maxbid;
  ELSEIF amtSpent > targetSpendRate * time THEN
    UPDATE Keywords SET bid = bid - 1
    WHERE roi = ( SELECT MIN( K.roi ) FROM Keywords K )
      AND relevance > 0 AND bid > 0;
  ENDIF;
  UPDATE Bids SET value =
    ( SELECT SUM( K.bid ) FROM Keywords K
      WHERE K.relevance > 0.7 AND K.formula = Bids.formula );
}
)sql";

TEST(OneFormulaPaymentTest, EqualsTheKernelOnFigure5BidsTables) {
  // Every formula the planner accepts — Click, Click ∧ Slot(j) and Purchase
  // — with and without purchases. A Figure 5 program over three keywords
  // (Click, Click ∧ Slot(j), Purchase) emits a three-row Bids table: the
  // queried keyword's row holds its bid, the others the empty SUM, +0.0.
  // The planner's one-formula payment must be the kernel's matrix entry
  // under exact ==, and the unassigned payment +0.0.
  const int n = 12;
  const int k = 4;
  for (const double purchase : {0.0, 0.3}) {
    Rng rng(20261018);
    const MatrixClickModel model =
        MakeSlotIntervalClickModel(n, k, rng, 0.1, 0.9, purchase);
    for (SlotIndex slot_arg = 0; slot_arg <= k; ++slot_arg) {
      const std::vector<Formula> formulas = {
          Formula::Click(), Formula::Click() && Formula::Slot(slot_arg),
          Formula::Purchase()};
      for (int queried = 0; queried < 3; ++queried) {
        SCOPED_TRACE("purchase " + std::to_string(purchase) + ", Slot(" +
                     std::to_string(slot_arg) + "), keyword " +
                     std::to_string(queried));
        std::vector<ProgramStrategy::KeywordSpec> specs;
        for (int kw = 0; kw < 3; ++kw) {
          specs.push_back({"kw" + std::to_string(kw), formulas[kw]});
        }
        auto program = ProgramStrategy::Create(kEqualizeRoi, specs);
        ASSERT_TRUE(program.ok());
        ASSERT_NE((*program)->roi_bidder(), nullptr);
        BidsTable one;
        one.AddBid(formulas[queried], 1.0);
        const CompiledBids masks = CompiledBids::Compile(one, k);

        // An underspending account raises the queried keyword's bid by one
        // per query, up to its cap.
        AdvertiserAccount account;
        account.value_per_click.assign(3, 40.0);
        account.max_bid.assign(3, 40.0);
        account.value_gained.assign(3, 0.0);
        account.spent_per_keyword.assign(3, 0.0);
        account.target_spend_rate = 1e9;
        Query query;
        query.keyword = queried;
        query.relevance.assign(3, 0.0);
        query.relevance[queried] = 1.0;
        for (int t = 1; t <= 41; ++t) {
          query.time = t;
          BidsTable table;
          (*program)->MakeBids(query, account, &table);
          ASSERT_EQ(table.size(), 3u);
          const double bid = (*program)->TentativeBid(queried);
          EXPECT_EQ(bid, std::min(t, 40));
          const CompiledBids compiled = CompiledBids::Compile(table, k);
          for (AdvertiserId i = 0; i < n; ++i) {
            std::vector<double> prob(4 * (k + 1));
            model.OutcomeDistributions(i, prob.data());
            std::vector<double> row(k);
            double unassigned = -1.0;
            compiled.ExpectedPayments(prob.data(), row.data(), &unassigned);
            EXPECT_EQ(Bits(unassigned), Bits(0.0));
            for (SlotIndex j = 0; j < k; ++j) {
              const double score =
                  OneFormulaPayment(masks.MasksForSlot(j)[0], bid,
                                    prob.data() + 4 * j);
              ASSERT_EQ(Bits(score), Bits(row[j]))
                  << "advertiser " << i << " slot " << j << " bid " << bid;
              if (purchase == 0.0 && queried == 0) {
                // paper-roi's score: ctr × bid, bit for bit.
                ASSERT_EQ(Bits(score),
                          Bits(model.ClickProbability(i, j) * bid));
              }
            }
            EXPECT_EQ(OneFormulaPayment(masks.MasksForSlot(kNoSlot)[0], bid,
                                        prob.data() + 4 * k),
                      0.0);
          }
        }
      }
    }
  }
}

TEST(CompiledBidsCacheTest, EntriesStableAcrossCacheGrowth) {
  // The engine collects one pointer per advertiser while the cache grows;
  // earlier entries must not move (deque storage).
  CompiledBidsCache cache;
  BidsTable bids;
  bids.AddBid(Formula::Click(), 2);
  std::vector<const CompiledBids*> view;
  for (AdvertiserId i = 0; i < 200; ++i) view.push_back(&cache.Get(i, bids, 3));
  for (AdvertiserId i = 0; i < 200; ++i) {
    EXPECT_EQ(view[i], &cache.Get(i, bids, 3));
  }
}

}  // namespace
}  // namespace ssa
