#include "lang/interpreter.h"

#include <algorithm>
#include <array>
#include <vector>

namespace ssa {
namespace lang {
namespace {

using Op = CompiledProgram::Op;
using PlanStmt = CompiledProgram::Stmt;

/// An evaluated expression. It never owns a string: `str` points at a plan
/// literal or a table cell, and neither moves while an expression runs.
struct Operand {
  Value::Type type = Value::Type::kNull;
  double number = 0.0;
  const std::string* str = nullptr;

  static Operand Number(double v) {
    return Operand{Value::Type::kNumber, v, nullptr};
  }
  static Operand Bool(bool b) { return Number(b ? 1.0 : 0.0); }
  static Operand Of(const Value& v) {
    if (v.is_number()) return Number(v.number());
    if (v.is_string()) return Operand{Value::Type::kString, 0.0, &v.str()};
    return Operand{};
  }

  bool is_null() const { return type == Value::Type::kNull; }
  bool is_number() const { return type == Value::Type::kNumber; }
  /// Same rules as Value::Truthy and Value::EqualsValue.
  bool Truthy() const { return is_number() && number != 0.0; }
  bool Equals(const Operand& o) const {
    if (is_null() || o.is_null() || type != o.type) return false;
    return is_number() ? number == o.number : *str == *o.str;
  }

  Value ToValue() const {
    if (is_number()) return Value::Number(number);
    if (type == Value::Type::kString) return Value::String(*str);
    return Value::Null();
  }
};

/// The row bound by an UPDATE or a subquery; `outer` is the enclosing one.
struct Frame {
  const Value* row;
  const Frame* outer;
};

/// Kept value of one reusable subquery within one UPDATE execution.
struct Reused {
  bool ready = false;
  Operand value;
};

/// `n` default-constructed elements: inline up to N, on the heap past it,
/// so the per-UPDATE scratch stays off the allocator for real programs.
template <typename T, size_t N>
class ScratchArray {
 public:
  explicit ScratchArray(size_t n) {
    if (n > N) {
      heap_.resize(n);
      data_ = heap_.data();
    }
  }
  ScratchArray(const ScratchArray&) = delete;
  ScratchArray& operator=(const ScratchArray&) = delete;

  T* data() { return data_; }

 private:
  std::array<T, N> inline_{};
  std::vector<T> heap_;
  T* data_ = inline_.data();
};

/// One run of one trigger body. All mutable state lives here, on the
/// caller's stack; the plan is only read.
class Executor {
 public:
  Executor(const CompiledProgram& plan, Database* db,
           const std::optional<double>* scalars)
      : plan_(plan), db_(db), scalars_(scalars) {}

  Status Run(const std::vector<PlanStmt>& body) {
    ExecBody(body);
    if (!ok_) return Status::InvalidArgument(std::move(error_));
    return Status::Ok();
  }

 private:
  Operand Fail(std::string message) {
    if (ok_) {
      ok_ = false;
      error_ = std::move(message);
    }
    return Operand{};
  }

  Operand Eval(int32_t index, const Frame* frame) {
    if (!ok_) return Operand{};
    const CompiledProgram::Node& n = plan_.nodes[index];
    switch (n.op) {
      case Op::kNull:
        return Operand{};
      case Op::kNumber:
        return Operand::Number(n.number);
      case Op::kString:
        return Operand{Value::Type::kString, 0.0, &plan_.strings[n.a]};
      case Op::kColumn: {
        for (int32_t hop = n.a; hop > 0; --hop) frame = frame->outer;
        return Operand::Of(frame->row[n.b]);
      }
      case Op::kScalar: {
        const std::optional<double>& v = scalars_[n.a];
        if (!v.has_value()) {
          return Fail("unknown identifier '" + plan_.scalar_names[n.a] + "'");
        }
        return Operand::Number(*v);
      }
      case Op::kFail:
        return Fail(plan_.strings[n.a]);
      case Op::kNeg: {
        const Operand v = Eval(n.a, frame);
        if (v.is_null()) return v;
        if (!v.is_number()) return Fail("negating a non-number");
        return Operand::Number(-v.number);
      }
      case Op::kNot:
        return Operand::Bool(!Eval(n.a, frame).Truthy());
      case Op::kSubquery:
        return EvalSubquery(plan_.subqueries[n.a], frame);
      default:
        return EvalBinary(n, frame);
    }
  }

  Operand EvalBinary(const CompiledProgram::Node& n, const Frame* frame) {
    // Short-circuiting logic first.
    if (n.op == Op::kAnd) {
      const Operand lhs = Eval(n.a, frame);
      if (!ok_ || !lhs.Truthy()) return Operand::Bool(false);
      return Operand::Bool(Eval(n.b, frame).Truthy());
    }
    if (n.op == Op::kOr) {
      const Operand lhs = Eval(n.a, frame);
      if (!ok_) return Operand{};
      if (lhs.Truthy()) return Operand::Bool(true);
      return Operand::Bool(Eval(n.b, frame).Truthy());
    }

    const Operand lhs = Eval(n.a, frame);
    const Operand rhs = Eval(n.b, frame);
    if (!ok_) return Operand{};

    switch (n.op) {
      case Op::kEq:
        return Operand::Bool(lhs.Equals(rhs));
      case Op::kNe:
        if (lhs.is_null() || rhs.is_null()) return Operand::Bool(false);
        return Operand::Bool(!lhs.Equals(rhs));
      default:
        break;
    }

    // Remaining operators need numbers; NULL propagates (comparisons false,
    // arithmetic NULL).
    const bool comparison = n.op == Op::kLt || n.op == Op::kLe ||
                            n.op == Op::kGt || n.op == Op::kGe;
    if (lhs.is_null() || rhs.is_null()) {
      return comparison ? Operand::Bool(false) : Operand{};
    }
    if (!lhs.is_number() || !rhs.is_number()) {
      return Fail("arithmetic on non-numeric values");
    }
    const double a = lhs.number;
    const double b = rhs.number;
    switch (n.op) {
      case Op::kAdd:
        return Operand::Number(a + b);
      case Op::kSub:
        return Operand::Number(a - b);
      case Op::kMul:
        return Operand::Number(a * b);
      case Op::kDiv:
        if (b == 0.0) return Operand{};  // SQL-ish: division by zero
        return Operand::Number(a / b);
      case Op::kLt:
        return Operand::Bool(a < b);
      case Op::kLe:
        return Operand::Bool(a <= b);
      case Op::kGt:
        return Operand::Bool(a > b);
      case Op::kGe:
        return Operand::Bool(a >= b);
      default:
        return Fail("unhandled binary operator");
    }
  }

  Operand EvalSubquery(const CompiledProgram::Subquery& q,
                       const Frame* frame) {
    if (q.reuse_slot >= 0 && reused_[q.reuse_slot].ready) {
      return reused_[q.reuse_slot].value;
    }
    const Table* table = db_->table(q.table);
    double sum = 0.0;
    double best = 0.0;
    int64_t count = 0;
    for (int row = 0; row < table->num_rows(); ++row) {
      const Frame bound{table->Row(row), frame};
      bool keep = true;
      if (q.where >= 0) keep = Eval(q.where, &bound).Truthy();
      Operand cell;
      if (keep && ok_) cell = Eval(q.agg, &bound);
      if (!ok_) return Operand{};
      if (!keep || cell.is_null()) continue;
      if (q.fn != AggregateFn::kCount && !cell.is_number()) {
        return Fail("aggregate over non-numeric column '" +
                    plan_.strings[q.agg_name] + "'");
      }
      const double v = q.fn == AggregateFn::kCount ? 0.0 : cell.number;
      if (count == 0) {
        best = v;
      } else if (q.fn == AggregateFn::kMax) {
        best = std::max(best, v);
      } else if (q.fn == AggregateFn::kMin) {
        best = std::min(best, v);
      }
      sum += v;
      ++count;
    }

    Operand result;
    switch (q.fn) {
      case AggregateFn::kCount:
        result = Operand::Number(static_cast<double>(count));
        break;
      case AggregateFn::kSum:
        result = Operand::Number(sum);
        break;
      case AggregateFn::kMax:
      case AggregateFn::kMin:
        if (count > 0) result = Operand::Number(best);
        break;
      case AggregateFn::kAvg:
        if (count > 0) {
          result = Operand::Number(sum / static_cast<double>(count));
        }
        break;
    }
    if (q.reuse_slot >= 0) reused_[q.reuse_slot] = Reused{true, result};
    return result;
  }

  void ExecBody(const std::vector<PlanStmt>& body) {
    for (const PlanStmt& stmt : body) {
      if (!ok_) return;
      switch (stmt.kind) {
        case PlanStmt::Kind::kUpdate:
          ExecUpdate(stmt);
          break;
        case PlanStmt::Kind::kIf:
          ExecIf(stmt);
          break;
        case PlanStmt::Kind::kFail:
          Fail(plan_.strings[stmt.message]);
          break;
      }
    }
  }

  void ExecUpdate(const PlanStmt& stmt) {
    Table* table = db_->table(stmt.table);
    ScratchArray<Reused, 4> reused(stmt.num_reuse_slots);
    reused_ = reused.data();
    ScratchArray<Value, 4> staged(stmt.assignments.size());
    Value* new_values = staged.data();
    for (int row = 0; row < table->num_rows(); ++row) {
      const Frame bound{table->Row(row), nullptr};
      bool keep = true;
      if (stmt.where >= 0) keep = Eval(stmt.where, &bound).Truthy();
      if (keep && ok_) {
        // All RHS evaluated against the pre-update row (SQL semantics).
        for (size_t i = 0; i < stmt.assignments.size(); ++i) {
          new_values[i] = Eval(stmt.assignments[i].second, &bound).ToValue();
        }
      }
      if (!ok_) break;
      if (!keep) continue;
      Value* cells = table->MutableRow(row);
      for (size_t i = 0; i < stmt.assignments.size(); ++i) {
        cells[stmt.assignments[i].first] = std::move(new_values[i]);
      }
    }
    reused_ = nullptr;
  }

  void ExecIf(const PlanStmt& stmt) {
    for (const auto& [cond, body] : stmt.branches) {
      const Operand v = Eval(cond, nullptr);
      if (!ok_) return;
      if (v.Truthy()) {
        ExecBody(body);
        return;
      }
    }
    ExecBody(stmt.else_body);
  }

  const CompiledProgram& plan_;
  Database* db_;
  const std::optional<double>* scalars_;
  Reused* reused_ = nullptr;  // the running UPDATE's kept subquery values
  bool ok_ = true;
  std::string error_;
};

}  // namespace

Status Interpreter::Fire(const CompiledProgram& plan, int event, Database* db,
                         const std::optional<double>* scalars,
                         size_t num_scalars) {
  SSA_CHECK(num_scalars == plan.scalar_names.size());
  SSA_CHECK(db->num_tables() >= static_cast<int>(plan.table_columns.size()));
  for (size_t i = 0; i < plan.table_columns.size(); ++i) {
    SSA_CHECK_MSG(db->table(static_cast<int>(i))->num_columns() ==
                      plan.table_columns[i],
                  "database schema differs from the compiled program's");
  }
  if (event < 0) return Status::Ok();  // no trigger fires on this table
  SSA_CHECK(event < static_cast<int>(plan.events.size()));
  for (const std::vector<PlanStmt>& body : plan.events[event].bodies) {
    SSA_RETURN_IF_ERROR(Executor(plan, db, scalars).Run(body));
  }
  return Status::Ok();
}

Status Interpreter::FireTriggers(const ParsedProgram& program,
                                 const std::string& table, Database* db,
                                 const ScalarEnv& scalars) {
  std::vector<std::string> names;
  std::vector<std::optional<double>> values;
  for (const auto& [name, value] : scalars.vars) {
    names.push_back(name);
    values.emplace_back(value);
  }
  const CompiledProgram plan = CompileProgram(program, *db, std::move(names));
  return Fire(plan, plan.FindEvent(table), db, values.data(), values.size());
}

}  // namespace lang
}  // namespace ssa
