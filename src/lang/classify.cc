#include "lang/classify.h"

#include <cstring>
#include <vector>

namespace ssa {
namespace lang {
namespace {

using Op = CompiledProgram::Op;
using PlanStmt = CompiledProgram::Stmt;

/// Structural predicates over one plan. Each takes a node or statement and
/// says whether it is exactly the named piece of Figure 5.
class Matcher {
 public:
  Matcher(const CompiledProgram& plan, const EqualizeRoiLayout& layout)
      : plan_(plan), l_(layout) {}

  bool Program(const std::vector<PlanStmt>& body) const {
    if (body.size() != 2 || body[0].kind != PlanStmt::Kind::kIf) return false;
    const PlanStmt& branch = body[0];
    if (branch.branches.size() != 2 || !branch.else_body.empty()) {
      return false;
    }
    const auto& [under_test, under_body] = branch.branches[0];
    const auto& [over_test, over_body] = branch.branches[1];
    return SpendTest(under_test, Op::kLt) && under_body.size() == 1 &&
           StepUpdate(under_body[0], AggregateFn::kMax, Op::kAdd, Op::kLt) &&
           SpendTest(over_test, Op::kGt) && over_body.size() == 1 &&
           StepUpdate(over_body[0], AggregateFn::kMin, Op::kSub, Op::kGt) &&
           BidsUpdate(body[1]);
  }

 private:
  const CompiledProgram::Node* NodeOf(int32_t i, Op op) const {
    if (i < 0 || i >= static_cast<int32_t>(plan_.nodes.size())) return nullptr;
    const CompiledProgram::Node& n = plan_.nodes[i];
    return n.op == op ? &n : nullptr;
  }

  bool Column(int32_t i, int32_t hops, int32_t column) const {
    const CompiledProgram::Node* n = NodeOf(i, Op::kColumn);
    return n != nullptr && n->a == hops && n->b == column;
  }

  bool Scalar(int32_t i, int32_t slot) const {
    const CompiledProgram::Node* n = NodeOf(i, Op::kScalar);
    return n != nullptr && n->a == slot;
  }

  /// A literal with exactly the bits of `value`.
  bool Number(int32_t i, double value) const {
    const CompiledProgram::Node* n = NodeOf(i, Op::kNumber);
    return n != nullptr && std::memcmp(&n->number, &value, sizeof value) == 0;
  }

  /// `lhs op rhs` with children at `*lhs` and `*rhs`.
  bool Binary(int32_t i, Op op, int32_t* lhs, int32_t* rhs) const {
    const CompiledProgram::Node* n = NodeOf(i, op);
    if (n == nullptr) return false;
    *lhs = n->a;
    *rhs = n->b;
    return true;
  }

  /// `(SELECT fn(...) FROM Keywords ...)`, with its WHERE and aggregated
  /// nodes at `*where` and `*agg`.
  bool KeywordsSubquery(int32_t i, AggregateFn fn, int32_t* where,
                        int32_t* agg) const {
    const CompiledProgram::Node* n = NodeOf(i, Op::kSubquery);
    if (n == nullptr || n->a < 0 ||
        n->a >= static_cast<int32_t>(plan_.subqueries.size())) {
      return false;
    }
    const CompiledProgram::Subquery& q = plan_.subqueries[n->a];
    if (q.fn != fn || q.table != l_.keywords) return false;
    *where = q.where;
    *agg = q.agg;
    return true;
  }

  /// `amtSpent cmp targetSpendRate * time`.
  bool SpendTest(int32_t i, Op cmp) const {
    int32_t spent, target, rate, time;
    return Binary(i, cmp, &spent, &target) && Scalar(spent, l_.amt_spent) &&
           Binary(target, Op::kMul, &rate, &time) &&
           Scalar(rate, l_.target_spend_rate) && Scalar(time, l_.time);
  }

  /// UPDATE Keywords SET bid = bid step 1
  /// WHERE roi = (SELECT fn(K.roi) FROM Keywords K)
  ///   AND relevance > 0 AND bid guard (maxbid when guard is '<', else 0).
  bool StepUpdate(const PlanStmt& s, AggregateFn fn, Op step,
                  Op guard) const {
    if (s.kind != PlanStmt::Kind::kUpdate || s.table != l_.keywords ||
        s.assignments.size() != 1 || s.assignments[0].first != l_.bid) {
      return false;
    }
    int32_t bid, one;
    if (!Binary(s.assignments[0].second, step, &bid, &one) ||
        !Column(bid, 0, l_.bid) || !Number(one, 1.0)) {
      return false;
    }
    int32_t tests, bound, top, relevant, roi, extreme, sub_where, sub_roi;
    int32_t relevance, zero, guarded, limit;
    if (!Binary(s.where, Op::kAnd, &tests, &bound) ||
        !Binary(tests, Op::kAnd, &top, &relevant) ||
        !Binary(top, Op::kEq, &roi, &extreme) || !Column(roi, 0, l_.roi) ||
        !KeywordsSubquery(extreme, fn, &sub_where, &sub_roi) ||
        sub_where != -1 || !Column(sub_roi, 0, l_.roi) ||
        !Binary(relevant, Op::kGt, &relevance, &zero) ||
        !Column(relevance, 0, l_.relevance) || !Number(zero, 0.0) ||
        !Binary(bound, guard, &guarded, &limit) ||
        !Column(guarded, 0, l_.bid)) {
      return false;
    }
    return guard == Op::kLt ? Column(limit, 0, l_.maxbid) : Number(limit, 0.0);
  }

  /// UPDATE Bids SET value = (SELECT SUM(K.bid) FROM Keywords K
  ///   WHERE K.relevance > 0.7 AND K.formula = Bids.formula).
  bool BidsUpdate(const PlanStmt& s) const {
    if (s.kind != PlanStmt::Kind::kUpdate || s.table != l_.bids ||
        s.where != -1 || s.assignments.size() != 1 ||
        s.assignments[0].first != l_.bids_value) {
      return false;
    }
    int32_t where, bid, relevant, same, relevance, cut, formula, outer;
    return KeywordsSubquery(s.assignments[0].second, AggregateFn::kSum,
                            &where, &bid) &&
           Column(bid, 0, l_.bid) &&
           Binary(where, Op::kAnd, &relevant, &same) &&
           Binary(relevant, Op::kGt, &relevance, &cut) &&
           Column(relevance, 0, l_.relevance) && Number(cut, 0.7) &&
           Binary(same, Op::kEq, &formula, &outer) &&
           Column(formula, 0, l_.formula) &&
           Column(outer, 1, l_.bids_formula);
  }

  const CompiledProgram& plan_;
  const EqualizeRoiLayout& l_;
};

}  // namespace

bool IsEqualizeRoi(const CompiledProgram& plan, int event,
                   const EqualizeRoiLayout& layout) {
  if (event < 0 || event >= static_cast<int>(plan.events.size())) {
    return false;
  }
  const std::vector<std::vector<PlanStmt>>& bodies = plan.events[event].bodies;
  return bodies.size() == 1 && Matcher(plan, layout).Program(bodies[0]);
}

}  // namespace lang
}  // namespace ssa
