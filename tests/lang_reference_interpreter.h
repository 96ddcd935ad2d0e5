// Test-only reference interpreter for the bidding-program language: a
// direct AST walker that resolves every name by string lookup at each
// evaluation and re-runs every subquery each time it is reached. It is the
// executable specification the compiled executor (src/lang/) is checked
// against, statement for statement and bit for bit, by lang_fuzz_test.

#ifndef SSA_TESTS_LANG_REFERENCE_INTERPRETER_H_
#define SSA_TESTS_LANG_REFERENCE_INTERPRETER_H_

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "db/table.h"
#include "lang/parser.h"
#include "util/status.h"

namespace ssa {
namespace lang {
namespace reference {

/// A row bound into scope during evaluation, addressable by alias or table
/// name (innermost binding wins for unqualified names).
struct RowBinding {
  Table* table;
  int row;
  std::string alias;  // may equal the table name
};

struct EvalContext {
  Database* db;
  const std::map<std::string, double>* scalars;
  std::vector<RowBinding> bindings;  // innermost last
  bool ok = true;
  std::string error;

  Value Fail(std::string message) {
    if (ok) {
      ok = false;
      error = std::move(message);
    }
    return Value::Null();
  }
};

inline Value Eval(const Expr& e, EvalContext* ctx);

inline Value ResolveColumn(const std::string& qualifier,
                           const std::string& column, EvalContext* ctx) {
  // Qualified: find the binding whose alias or table name matches.
  if (!qualifier.empty()) {
    for (auto it = ctx->bindings.rbegin(); it != ctx->bindings.rend(); ++it) {
      if (it->alias == qualifier || it->table->name() == qualifier) {
        const int col = it->table->ColumnIndex(column);
        if (col < 0) {
          return ctx->Fail("no column '" + column + "' in '" + qualifier +
                           "'");
        }
        return it->table->At(it->row, col);
      }
    }
    return ctx->Fail("unknown table or alias '" + qualifier + "'");
  }
  // Unqualified: innermost row that has the column, else a scalar variable.
  for (auto it = ctx->bindings.rbegin(); it != ctx->bindings.rend(); ++it) {
    const int col = it->table->ColumnIndex(column);
    if (col >= 0) return it->table->At(it->row, col);
  }
  auto var = ctx->scalars->find(column);
  if (var != ctx->scalars->end()) return Value::Number(var->second);
  return ctx->Fail("unknown identifier '" + column + "'");
}

inline Value EvalBinary(const Expr& e, EvalContext* ctx) {
  // Short-circuiting logic first.
  if (e.op == BinaryOp::kAnd) {
    const Value lhs = Eval(*e.lhs, ctx);
    if (!ctx->ok || !lhs.Truthy()) return Value::Bool(false);
    return Value::Bool(Eval(*e.rhs, ctx).Truthy());
  }
  if (e.op == BinaryOp::kOr) {
    const Value lhs = Eval(*e.lhs, ctx);
    if (!ctx->ok) return Value::Null();
    if (lhs.Truthy()) return Value::Bool(true);
    return Value::Bool(Eval(*e.rhs, ctx).Truthy());
  }

  const Value lhs = Eval(*e.lhs, ctx);
  const Value rhs = Eval(*e.rhs, ctx);
  if (!ctx->ok) return Value::Null();

  switch (e.op) {
    case BinaryOp::kEq:
      return Value::Bool(lhs.EqualsValue(rhs));
    case BinaryOp::kNe:
      if (lhs.is_null() || rhs.is_null()) return Value::Bool(false);
      return Value::Bool(!lhs.EqualsValue(rhs));
    default:
      break;
  }

  // Remaining operators need numbers; NULL propagates (comparisons false,
  // arithmetic NULL).
  const bool comparison = e.op == BinaryOp::kLt || e.op == BinaryOp::kLe ||
                          e.op == BinaryOp::kGt || e.op == BinaryOp::kGe;
  if (lhs.is_null() || rhs.is_null()) {
    return comparison ? Value::Bool(false) : Value::Null();
  }
  if (!lhs.is_number() || !rhs.is_number()) {
    return ctx->Fail("arithmetic on non-numeric values");
  }
  const double a = lhs.number();
  const double b = rhs.number();
  switch (e.op) {
    case BinaryOp::kAdd:
      return Value::Number(a + b);
    case BinaryOp::kSub:
      return Value::Number(a - b);
    case BinaryOp::kMul:
      return Value::Number(a * b);
    case BinaryOp::kDiv:
      if (b == 0.0) return Value::Null();  // SQL-ish: division by zero
      return Value::Number(a / b);
    case BinaryOp::kLt:
      return Value::Bool(a < b);
    case BinaryOp::kLe:
      return Value::Bool(a <= b);
    case BinaryOp::kGt:
      return Value::Bool(a > b);
    case BinaryOp::kGe:
      return Value::Bool(a >= b);
    default:
      return ctx->Fail("unhandled binary operator");
  }
}

inline Value EvalSubquery(const Expr& e, EvalContext* ctx) {
  Table* table = ctx->db->GetTable(e.from_table);
  if (table == nullptr) {
    return ctx->Fail("unknown table '" + e.from_table + "' in subquery");
  }
  const std::string alias =
      e.from_alias.empty() ? e.from_table : e.from_alias;

  double sum = 0.0;
  double best = 0.0;
  int64_t count = 0;
  for (int row = 0; row < table->num_rows(); ++row) {
    ctx->bindings.push_back(RowBinding{table, row, alias});
    bool keep = true;
    if (e.where != nullptr) keep = Eval(*e.where, ctx).Truthy();
    Value cell;
    if (keep && ctx->ok) {
      cell = ResolveColumn(e.agg_qualifier, e.agg_column, ctx);
    }
    ctx->bindings.pop_back();
    if (!ctx->ok) return Value::Null();
    if (!keep || cell.is_null()) continue;
    if (e.aggregate != AggregateFn::kCount && !cell.is_number()) {
      return ctx->Fail("aggregate over non-numeric column '" + e.agg_column +
                       "'");
    }
    const double v = e.aggregate == AggregateFn::kCount ? 0.0 : cell.number();
    if (count == 0) {
      best = v;
    } else if (e.aggregate == AggregateFn::kMax) {
      best = std::max(best, v);
    } else if (e.aggregate == AggregateFn::kMin) {
      best = std::min(best, v);
    }
    sum += v;
    ++count;
  }

  switch (e.aggregate) {
    case AggregateFn::kCount:
      return Value::Number(static_cast<double>(count));
    case AggregateFn::kSum:
      return Value::Number(sum);
    case AggregateFn::kMax:
    case AggregateFn::kMin:
      return count == 0 ? Value::Null() : Value::Number(best);
    case AggregateFn::kAvg:
      return count == 0 ? Value::Null()
                        : Value::Number(sum / static_cast<double>(count));
  }
  return Value::Null();
}

inline Value Eval(const Expr& e, EvalContext* ctx) {
  if (!ctx->ok) return Value::Null();
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kColumnRef:
      return ResolveColumn(e.qualifier, e.column, ctx);
    case Expr::Kind::kUnaryMinus: {
      const Value v = Eval(*e.operand, ctx);
      if (v.is_null()) return v;
      if (!v.is_number()) return ctx->Fail("negating a non-number");
      return Value::Number(-v.number());
    }
    case Expr::Kind::kNot:
      return Value::Bool(!Eval(*e.operand, ctx).Truthy());
    case Expr::Kind::kBinary:
      return EvalBinary(e, ctx);
    case Expr::Kind::kSubquery:
      return EvalSubquery(e, ctx);
  }
  return ctx->Fail("corrupt expression node");
}

inline void ExecStmt(const Stmt& stmt, EvalContext* ctx);

inline void ExecBody(const std::vector<StmtPtr>& body, EvalContext* ctx) {
  for (const StmtPtr& stmt : body) {
    if (!ctx->ok) return;
    ExecStmt(*stmt, ctx);
  }
}

inline void ExecUpdate(const Stmt& stmt, EvalContext* ctx) {
  Table* table = ctx->db->GetTable(stmt.table);
  if (table == nullptr) {
    ctx->Fail("unknown table '" + stmt.table + "' in UPDATE");
    return;
  }
  // Resolve target columns once.
  std::vector<int> columns;
  columns.reserve(stmt.assignments.size());
  for (const Assignment& a : stmt.assignments) {
    const int col = table->ColumnIndex(a.column);
    if (col < 0) {
      ctx->Fail("no column '" + a.column + "' in '" + stmt.table + "'");
      return;
    }
    columns.push_back(col);
  }
  for (int row = 0; row < table->num_rows(); ++row) {
    ctx->bindings.push_back(RowBinding{table, row, table->name()});
    bool keep = true;
    if (stmt.where != nullptr) keep = Eval(*stmt.where, ctx).Truthy();
    std::vector<Value> new_values;
    if (keep && ctx->ok) {
      // All RHS evaluated against the pre-update row (SQL semantics).
      new_values.reserve(stmt.assignments.size());
      for (const Assignment& a : stmt.assignments) {
        new_values.push_back(Eval(*a.value, ctx));
      }
    }
    ctx->bindings.pop_back();
    if (!ctx->ok) return;
    if (!keep) continue;
    for (size_t i = 0; i < columns.size(); ++i) {
      table->Set(row, columns[i], std::move(new_values[i]));
    }
  }
}

inline void ExecIf(const Stmt& stmt, EvalContext* ctx) {
  for (const auto& [cond, body] : stmt.branches) {
    const Value v = Eval(*cond, ctx);
    if (!ctx->ok) return;
    if (v.Truthy()) {
      ExecBody(body, ctx);
      return;
    }
  }
  ExecBody(stmt.else_body, ctx);
}

inline void ExecStmt(const Stmt& stmt, EvalContext* ctx) {
  switch (stmt.kind) {
    case Stmt::Kind::kUpdate:
      ExecUpdate(stmt, ctx);
      break;
    case Stmt::Kind::kIf:
      ExecIf(stmt, ctx);
      break;
  }
}

/// Fires every trigger declared AFTER INSERT ON `table`, in declaration
/// order, stopping at the first error.
inline Status FireTriggers(const ParsedProgram& program,
                           const std::string& table, Database* db,
                           const std::map<std::string, double>& scalars) {
  for (const TriggerDecl& trigger : program.triggers) {
    if (trigger.table != table) continue;
    EvalContext ctx;
    ctx.db = db;
    ctx.scalars = &scalars;
    ExecBody(trigger.body, &ctx);
    if (!ctx.ok) return Status::InvalidArgument(ctx.error);
  }
  return Status::Ok();
}

}  // namespace reference
}  // namespace lang
}  // namespace ssa

#endif  // SSA_TESTS_LANG_REFERENCE_INTERPRETER_H_
