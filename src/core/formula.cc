#include "core/formula.h"

#include <algorithm>
#include <utility>

namespace ssa {

Formula Formula::Make(Op op, SlotIndex slot, std::vector<Formula> children) {
  auto node = std::make_shared<Node>();
  node->op = op;
  node->slot = slot;
  node->children = std::move(children);
  return Formula(std::move(node));
}

Formula Formula::Immortal(const Node* node) {
  return Formula(std::shared_ptr<const Node>(std::shared_ptr<const Node>(),
                                             node));
}

Formula::Formula() : Formula(True()) {}

// The leaf nodes are leaked on purpose: a function-local pointer keeps them
// reachable (so leak checkers stay quiet) and nothing ever frees them.
Formula Formula::True() {
  static const Node* const node = new Node{Op::kTrue};
  return Immortal(node);
}

Formula Formula::False() {
  static const Node* const node = new Node{Op::kFalse};
  return Immortal(node);
}

Formula Formula::Slot(SlotIndex j) {
  SSA_CHECK(j >= 0);
  return Make(Op::kSlot, j, {});
}

Formula Formula::Click() {
  static const Node* const node = new Node{Op::kClick};
  return Immortal(node);
}

Formula Formula::Purchase() {
  static const Node* const node = new Node{Op::kPurchase};
  return Immortal(node);
}

Formula Formula::HeavyInSlot(SlotIndex j) {
  SSA_CHECK(j >= 0);
  return Make(Op::kHeavyInSlot, j, {});
}

Formula Formula::Not(Formula f) {
  return Make(Op::kNot, kNoSlot, {std::move(f)});
}

Formula Formula::And(Formula a, Formula b) {
  return Make(Op::kAnd, kNoSlot, {std::move(a), std::move(b)});
}

Formula Formula::Or(Formula a, Formula b) {
  return Make(Op::kOr, kNoSlot, {std::move(a), std::move(b)});
}

Formula Formula::AnySlot(const std::vector<SlotIndex>& slots) {
  if (slots.empty()) return False();
  Formula f = Slot(slots[0]);
  for (size_t i = 1; i < slots.size(); ++i) f = Or(f, Slot(slots[i]));
  return f;
}

bool Formula::Evaluate(const AdvertiserOutcome& outcome) const {
  switch (node_->op) {
    case Op::kTrue:
      return true;
    case Op::kFalse:
      return false;
    case Op::kSlot:
      return outcome.slot == node_->slot;
    case Op::kClick:
      return outcome.clicked;
    case Op::kPurchase:
      return outcome.purchased;
    case Op::kHeavyInSlot:
      return node_->slot < 32 &&
             (outcome.heavy_slot_mask >> node_->slot) & 1u;
    case Op::kNot:
      return !node_->children[0].Evaluate(outcome);
    case Op::kAnd:
      return node_->children[0].Evaluate(outcome) &&
             node_->children[1].Evaluate(outcome);
    case Op::kOr:
      return node_->children[0].Evaluate(outcome) ||
             node_->children[1].Evaluate(outcome);
  }
  SSA_CHECK_MSG(false, "corrupt formula node");
  return false;
}

bool Formula::DependsOnlyOnOwnPlacement() const {
  if (node_->op == Op::kHeavyInSlot) return false;
  return std::all_of(node_->children.begin(), node_->children.end(),
                     [](const Formula& c) {
                       return c.DependsOnlyOnOwnPlacement();
                     });
}

bool Formula::MentionsUserAction() const {
  if (node_->op == Op::kClick || node_->op == Op::kPurchase) return true;
  return std::any_of(node_->children.begin(), node_->children.end(),
                     [](const Formula& c) { return c.MentionsUserAction(); });
}

SlotIndex Formula::MaxSlotIndex() const {
  SlotIndex m = (node_->op == Op::kSlot || node_->op == Op::kHeavyInSlot)
                    ? node_->slot
                    : kNoSlot;
  for (const Formula& c : node_->children) {
    m = std::max(m, c.MaxSlotIndex());
  }
  return m;
}

std::string Formula::ToString() const {
  switch (node_->op) {
    case Op::kTrue:
      return "True";
    case Op::kFalse:
      return "False";
    case Op::kSlot:
      return "Slot" + std::to_string(node_->slot + 1);  // paper is 1-based
    case Op::kClick:
      return "Click";
    case Op::kPurchase:
      return "Purchase";
    case Op::kHeavyInSlot:
      return "Heavy" + std::to_string(node_->slot + 1);
    case Op::kNot:
      return "!" + node_->children[0].ToString();
    case Op::kAnd:
      return "(" + node_->children[0].ToString() + " & " +
             node_->children[1].ToString() + ")";
    case Op::kOr:
      return "(" + node_->children[0].ToString() + " | " +
             node_->children[1].ToString() + ")";
  }
  return "?";
}

bool Formula::StructurallyEquals(const Formula& other) const {
  if (node_ == other.node_) return true;
  if (node_->op != other.node_->op) return false;
  if (node_->slot != other.node_->slot) return false;
  if (node_->children.size() != other.node_->children.size()) return false;
  for (size_t i = 0; i < node_->children.size(); ++i) {
    if (!node_->children[i].StructurallyEquals(other.node_->children[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace ssa
