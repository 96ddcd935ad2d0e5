#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/formula.h"
#include "core/formula_parser.h"

namespace ssa {
namespace {

AdvertiserOutcome Outcome(SlotIndex slot, bool clicked, bool purchased,
                          uint32_t heavy = 0) {
  AdvertiserOutcome o;
  o.slot = slot;
  o.clicked = clicked;
  o.purchased = purchased;
  o.heavy_slot_mask = heavy;
  return o;
}

TEST(FormulaTest, SlotPredicate) {
  const Formula f = Formula::Slot(2);
  EXPECT_TRUE(f.Evaluate(Outcome(2, false, false)));
  EXPECT_FALSE(f.Evaluate(Outcome(1, false, false)));
  EXPECT_FALSE(f.Evaluate(Outcome(kNoSlot, false, false)));
}

TEST(FormulaTest, ClickAndPurchasePredicates) {
  EXPECT_TRUE(Formula::Click().Evaluate(Outcome(0, true, false)));
  EXPECT_FALSE(Formula::Click().Evaluate(Outcome(0, false, true)));
  EXPECT_TRUE(Formula::Purchase().Evaluate(Outcome(0, false, true)));
  EXPECT_FALSE(Formula::Purchase().Evaluate(Outcome(0, true, false)));
}

TEST(FormulaTest, HeavyInSlotPredicate) {
  const Formula f = Formula::HeavyInSlot(1);
  EXPECT_TRUE(f.Evaluate(Outcome(0, false, false, 0b010)));
  EXPECT_FALSE(f.Evaluate(Outcome(0, false, false, 0b101)));
}

TEST(FormulaTest, Connectives) {
  const Formula f = (Formula::Click() && Formula::Slot(0)) ||
                    !Formula::Purchase();
  EXPECT_TRUE(f.Evaluate(Outcome(0, true, true)));    // click & slot0
  EXPECT_TRUE(f.Evaluate(Outcome(3, false, false)));  // !purchase
  EXPECT_FALSE(f.Evaluate(Outcome(3, true, true)));
}

TEST(FormulaTest, ConstantsAndDefault) {
  EXPECT_TRUE(Formula::True().Evaluate(Outcome(kNoSlot, false, false)));
  EXPECT_FALSE(Formula::False().Evaluate(Outcome(0, true, true)));
  Formula default_constructed;
  EXPECT_TRUE(default_constructed.Evaluate(Outcome(kNoSlot, false, false)));
}

// The Figure 3 Bids-table semantics: "5 if Purchase; 2 if Slot1 or Slot2".
TEST(FormulaTest, PaperFigure3Formulas) {
  const Formula purchase = Formula::Purchase();
  const Formula slot12 = Formula::AnySlot({0, 1});
  // Purchase in slot 1: both formulas true.
  EXPECT_TRUE(purchase.Evaluate(Outcome(0, true, true)));
  EXPECT_TRUE(slot12.Evaluate(Outcome(0, true, true)));
  // Displayed in slot 3, no purchase: neither.
  EXPECT_FALSE(purchase.Evaluate(Outcome(2, true, false)));
  EXPECT_FALSE(slot12.Evaluate(Outcome(2, true, false)));
}

TEST(FormulaTest, AnySlotEmptyIsFalse) {
  EXPECT_FALSE(Formula::AnySlot({}).Evaluate(Outcome(0, true, true)));
}

TEST(FormulaTest, DependsOnlyOnOwnPlacement) {
  EXPECT_TRUE((Formula::Click() && Formula::Slot(0))
                  .DependsOnlyOnOwnPlacement());
  EXPECT_FALSE((Formula::Click() && Formula::HeavyInSlot(0))
                   .DependsOnlyOnOwnPlacement());
  EXPECT_FALSE(Formula::Not(Formula::HeavyInSlot(3))
                   .DependsOnlyOnOwnPlacement());
}

TEST(FormulaTest, MentionsUserAction) {
  EXPECT_TRUE(Formula::Click().MentionsUserAction());
  EXPECT_TRUE((Formula::Slot(1) || Formula::Purchase()).MentionsUserAction());
  EXPECT_FALSE(Formula::Slot(1).MentionsUserAction());
}

TEST(FormulaTest, MaxSlotIndex) {
  EXPECT_EQ(Formula::Click().MaxSlotIndex(), kNoSlot);
  EXPECT_EQ((Formula::Slot(4) && Formula::HeavyInSlot(9)).MaxSlotIndex(), 9);
}

TEST(FormulaTest, StructuralEquality) {
  const Formula a = Formula::Click() && Formula::Slot(0);
  const Formula b = Formula::Click() && Formula::Slot(0);
  const Formula c = Formula::Slot(0) && Formula::Click();
  EXPECT_TRUE(a.StructurallyEquals(b));
  EXPECT_FALSE(a.StructurallyEquals(c));  // structural, not semantic
}

// The argument-free leaves are process-lifetime singletons: every call (and
// the default constructor) hands out the same node — observable through the
// address of the node's children vector — while Slot still allocates.
TEST(FormulaTest, LeafSingletonsArePointerEqual) {
  EXPECT_EQ(&Formula::True().children(), &Formula::True().children());
  EXPECT_EQ(&Formula::False().children(), &Formula::False().children());
  EXPECT_EQ(&Formula::Click().children(), &Formula::Click().children());
  EXPECT_EQ(&Formula::Purchase().children(), &Formula::Purchase().children());
  EXPECT_EQ(&Formula().children(), &Formula::True().children());
  EXPECT_NE(&Formula::Click().children(), &Formula::Purchase().children());
  EXPECT_NE(&Formula::Slot(0).children(), &Formula::Slot(0).children());
  auto parsed = ParseFormula("Click");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(&parsed->children(), &Formula::Click().children());
}

// Sharing one node changes nothing observable about the leaves.
TEST(FormulaTest, LeafSingletonsBehaveAsBefore) {
  const Formula leaves[] = {Formula::True(), Formula::False(),
                            Formula::Click(), Formula::Purchase()};
  const char* names[] = {"True", "False", "Click", "Purchase"};
  for (int l = 0; l < 4; ++l) {
    EXPECT_EQ(leaves[l].ToString(), names[l]);
    EXPECT_TRUE(leaves[l].children().empty());
    EXPECT_EQ(leaves[l].MaxSlotIndex(), kNoSlot);
    EXPECT_TRUE(leaves[l].DependsOnlyOnOwnPlacement());
    for (int m = 0; m < 4; ++m) {
      EXPECT_EQ(leaves[l].StructurallyEquals(leaves[m]), l == m);
    }
    for (SlotIndex slot : {kNoSlot, 0, 3}) {
      for (int c = 0; c < 2; ++c) {
        for (int p = 0; p < 2; ++p) {
          const bool want = l == 0 ? true : l == 1 ? false : l == 2 ? c : p;
          EXPECT_EQ(leaves[l].Evaluate(Outcome(slot, c, p)), want);
        }
      }
    }
  }
  // Composites over the shared leaves still compare structurally.
  EXPECT_TRUE((Formula::Click() && Formula::Slot(0))
                  .StructurallyEquals(Formula::Click() && Formula::Slot(0)));
  EXPECT_FALSE(Formula::Click().StructurallyEquals(Formula::Slot(0)));
}

// Strategies on different threads copy the same Click() leaf into their bid
// tables every auction; concurrent copies and destructions must be safe
// (the TSan job runs this test).
TEST(FormulaTest, ConcurrentLeafCopiesAreSafe) {
  constexpr int kThreads = 4;
  constexpr int kCopies = 20000;
  std::vector<std::thread> threads;
  std::vector<int> clicked(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &clicked] {
      std::vector<Formula> copies;
      copies.reserve(64);
      for (int c = 0; c < kCopies; ++c) {
        copies.push_back(Formula::Click());
        if (copies.size() == 64) {
          for (const Formula& f : copies) {
            clicked[t] += f.Evaluate(Outcome(0, true, false)) ? 1 : 0;
          }
          copies.clear();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(clicked[t], kCopies / 64 * 64);
  }
  EXPECT_EQ(Formula::Click().ToString(), "Click");
}

// --- Parser -----------------------------------------------------------------

TEST(FormulaParserTest, ParsesPaperExamples) {
  // Figure 4 formulas.
  auto f1 = ParseFormula("Click & Slot1");
  ASSERT_TRUE(f1.ok());
  EXPECT_TRUE(f1->Evaluate(Outcome(0, true, false)));
  EXPECT_FALSE(f1->Evaluate(Outcome(1, true, false)));

  auto f2 = ParseFormula("Purchase");
  ASSERT_TRUE(f2.ok());
  EXPECT_TRUE(f2->Evaluate(Outcome(kNoSlot, false, true)));

  auto f3 = ParseFormula("Slot1 | Slot2");
  ASSERT_TRUE(f3.ok());
  EXPECT_TRUE(f3->Evaluate(Outcome(1, false, false)));
  EXPECT_FALSE(f3->Evaluate(Outcome(2, false, false)));
}

TEST(FormulaParserTest, PrecedenceAndBeforeOr) {
  auto f = ParseFormula("Click | Purchase & Slot1");
  ASSERT_TRUE(f.ok());
  // Parsed as Click | (Purchase & Slot1).
  EXPECT_TRUE(f->Evaluate(Outcome(5, true, false)));
  EXPECT_TRUE(f->Evaluate(Outcome(0, false, true)));
  EXPECT_FALSE(f->Evaluate(Outcome(5, false, true)));
}

TEST(FormulaParserTest, NotAndParens) {
  auto f = ParseFormula("!(Slot1 | Slot2) & Click");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->Evaluate(Outcome(2, true, false)));
  EXPECT_FALSE(f->Evaluate(Outcome(0, true, false)));
}

TEST(FormulaParserTest, KeywordOperatorsCaseInsensitive) {
  auto f = ParseFormula("click AND slot2 OR NOT purchase");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->Evaluate(Outcome(1, true, true)));
  EXPECT_TRUE(f->Evaluate(Outcome(0, false, false)));
}

TEST(FormulaParserTest, HeavyPredicates) {
  auto f = ParseFormula("Heavy1 | HeavyInSlot3");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->Evaluate(Outcome(0, false, false, 0b001)));
  EXPECT_TRUE(f->Evaluate(Outcome(0, false, false, 0b100)));
  EXPECT_FALSE(f->Evaluate(Outcome(0, false, false, 0b010)));
}

TEST(FormulaParserTest, Errors) {
  EXPECT_FALSE(ParseFormula("").ok());
  EXPECT_FALSE(ParseFormula("Click &").ok());
  EXPECT_FALSE(ParseFormula("(Click").ok());
  EXPECT_FALSE(ParseFormula("Slot0").ok());   // slots are 1-based
  EXPECT_FALSE(ParseFormula("Slot").ok());    // missing index
  EXPECT_FALSE(ParseFormula("Banana").ok());  // unknown predicate
  EXPECT_FALSE(ParseFormula("Click Click").ok());
}

// Round-trip property: ToString() output reparses to an equivalent formula.
class FormulaRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(FormulaRoundTrip, ToStringReparses) {
  auto original = ParseFormula(GetParam());
  ASSERT_TRUE(original.ok());
  auto reparsed = ParseFormula(original->ToString());
  ASSERT_TRUE(reparsed.ok()) << original->ToString();
  // Compare semantics over a grid of outcomes.
  for (SlotIndex slot : {kNoSlot, 0, 1, 2, 3}) {
    for (int c = 0; c < 2; ++c) {
      for (int p = 0; p < 2; ++p) {
        for (uint32_t heavy : {0u, 1u, 7u}) {
          const AdvertiserOutcome o = Outcome(slot, c, p, heavy);
          EXPECT_EQ(original->Evaluate(o), reparsed->Evaluate(o));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formulas, FormulaRoundTrip,
    ::testing::Values("Click", "Purchase", "Slot1", "Slot4", "Heavy2", "True",
                      "False", "Click & Slot1", "Slot1 | Slot2",
                      "!(Click | Purchase) & Slot3",
                      "Purchase & (Slot1 | Slot2)",
                      "!Heavy1 & Click & !Slot2",
                      "Click & !Purchase | Slot2 & Heavy3"));

}  // namespace
}  // namespace ssa
