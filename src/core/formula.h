#ifndef SSA_CORE_FORMULA_H_
#define SSA_CORE_FORMULA_H_

#include <memory>
#include <string>
#include <vector>

#include "core/outcome.h"
#include "util/common.h"

namespace ssa {

/// A Boolean combination of outcome predicates — the unit an advertiser bids
/// on (Section II-A). Available predicates:
///
///   * Slot(j)        — "my ad was shown in slot j" (0-based internally;
///                       the parser accepts the paper's 1-based `Slot1`).
///   * Click()        — "the user clicked my ad".
///   * Purchase()     — "the user purchased via my ad".
///   * HeavyInSlot(j) — "slot j holds a heavyweight advertiser"
///                       (Section III-F extension).
///
/// Formulas are immutable trees shared by value (shallow copies share
/// subtree nodes). The argument-free leaves (True, False, Click, Purchase)
/// are process-lifetime singletons held without a reference count, so
/// copying or destroying one does no atomic read-modify-write — strategies
/// on different threads copy the same Click() leaf into their bid tables
/// every auction. All formulas over these predicates are 1-dependent in the
/// sense of Definition 1, which is what makes winner determination reduce to
/// bipartite matching (Theorem 2); `DependsOnlyOnOwnPlacement()` reports
/// whether a formula avoids the heavyweight predicates and hence fits the
/// plain fast path.
class Formula {
 public:
  enum class Op {
    kTrue,
    kFalse,
    kSlot,         // Slot(slot_arg)
    kClick,
    kPurchase,
    kHeavyInSlot,  // HeavyInSlot(slot_arg)
    kNot,
    kAnd,
    kOr,
  };

  /// Constructs the constant-true formula (default so containers work).
  /// Allocation-free: it shares the True() singleton.
  Formula();

  // -- Leaf constructors -----------------------------------------------------
  // True/False/Click/Purchase return the same immortal node on every call
  // (pointer-equal); Slot and HeavyInSlot allocate.

  static Formula True();
  static Formula False();
  /// Predicate: this advertiser is shown in slot `j` (0-based).
  static Formula Slot(SlotIndex j);
  static Formula Click();
  static Formula Purchase();
  /// Predicate: slot `j` (0-based) holds a heavyweight advertiser.
  static Formula HeavyInSlot(SlotIndex j);

  // -- Connectives -----------------------------------------------------------

  static Formula Not(Formula f);
  static Formula And(Formula a, Formula b);
  static Formula Or(Formula a, Formula b);
  /// N-ary disjunction of Slot(j) for j in `slots` — the common "display me
  /// in any of these positions" bid (e.g. Figure 3's `Slot1 | Slot2`).
  static Formula AnySlot(const std::vector<SlotIndex>& slots);

  Formula operator!() const { return Not(*this); }
  friend Formula operator&&(const Formula& a, const Formula& b) {
    return And(a, b);
  }
  friend Formula operator||(const Formula& a, const Formula& b) {
    return Or(a, b);
  }

  // -- Inspection ------------------------------------------------------------

  Op op() const { return node_->op; }
  /// Slot argument of a kSlot / kHeavyInSlot node.
  SlotIndex slot_arg() const { return node_->slot; }
  /// Children of a connective node.
  const std::vector<Formula>& children() const { return node_->children; }

  /// Truth value of the formula under a concrete outcome.
  bool Evaluate(const AdvertiserOutcome& outcome) const;

  /// True iff the formula never mentions HeavyInSlot — i.e. its event depends
  /// only on this advertiser's own placement (plus click/purchase, which the
  /// model makes 1-dependent), so Theorem 2's fast path applies.
  bool DependsOnlyOnOwnPlacement() const;

  /// True iff the formula mentions Click or Purchase.
  bool MentionsUserAction() const;

  /// Largest slot index referenced (by Slot or HeavyInSlot); -1 if none.
  SlotIndex MaxSlotIndex() const;

  /// Text form, parseable by ParseFormula; e.g. "(Click & Slot1) | Purchase".
  std::string ToString() const;

  /// Structural equality (same tree shape and predicates).
  bool StructurallyEquals(const Formula& other) const;

 private:
  struct Node {
    Op op;
    SlotIndex slot = kNoSlot;
    std::vector<Formula> children;
  };

  explicit Formula(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}
  static Formula Make(Op op, SlotIndex slot, std::vector<Formula> children);
  /// Wraps a never-destroyed node in an aliasing shared_ptr with an empty
  /// owner: no control block, so copies and destructions touch no counter,
  /// and copies made during static destruction stay valid.
  static Formula Immortal(const Node* node);

  std::shared_ptr<const Node> node_;
};

}  // namespace ssa

#endif  // SSA_CORE_FORMULA_H_
