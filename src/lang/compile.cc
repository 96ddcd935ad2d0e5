#include <algorithm>
#include <utility>

#include "lang/plan.h"

namespace ssa {
namespace lang {
namespace {

using Op = CompiledProgram::Op;
using PlanStmt = CompiledProgram::Stmt;

/// Resolves names against the static scope. The rows a program can see at
/// any point are fixed by its syntax: an UPDATE binds its table's row, a
/// subquery binds its FROM row inside the enclosing scope. So every lookup
/// the tree walker did per evaluation can be done here once, with the same
/// innermost-first rules.
class Compiler {
 public:
  Compiler(const Database& schema, CompiledProgram* plan)
      : schema_(schema), plan_(plan) {}

  std::vector<PlanStmt> CompileBody(const std::vector<StmtPtr>& body) {
    std::vector<PlanStmt> out;
    out.reserve(body.size());
    for (const StmtPtr& stmt : body) out.push_back(CompileStmt(*stmt));
    return out;
  }

 private:
  /// A row in scope: the table it comes from and the name it answers to.
  struct Binding {
    int32_t table;
    const std::string* alias;
  };

  /// Read-set summary of a subquery being compiled.
  struct OpenSubquery {
    size_t level;  // scope depth of its own binding
    bool reads_outer = false;
    bool reads_assigned = false;
  };

  /// The UPDATE whose expressions are being compiled.
  struct OpenUpdate {
    int32_t table;
    std::vector<int32_t> assigned;  // column indices
    int32_t num_reuse_slots = 0;
  };

  int32_t TableIndex(const std::string& name) const {
    for (int i = 0; i < schema_.num_tables(); ++i) {
      if (schema_.table(i)->name() == name) return i;
    }
    return -1;
  }

  int32_t AddString(std::string s) {
    plan_->strings.push_back(std::move(s));
    return static_cast<int32_t>(plan_->strings.size() - 1);
  }

  int32_t AddNode(Op op, int32_t a = -1, int32_t b = -1, double number = 0) {
    plan_->nodes.push_back(CompiledProgram::Node{op, a, b, number});
    return static_cast<int32_t>(plan_->nodes.size() - 1);
  }

  int32_t FailNode(std::string message) {
    return AddNode(Op::kFail, AddString(std::move(message)));
  }

  /// A column read of the row bound at scope depth `depth`.
  int32_t ColumnNode(size_t depth, int32_t column) {
    const int32_t table = scope_[depth].table;
    for (OpenSubquery& sub : open_subqueries_) {
      if (depth < sub.level) sub.reads_outer = true;
      if (update_ != nullptr && table == update_->table &&
          std::count(update_->assigned.begin(), update_->assigned.end(),
                     column) > 0) {
        sub.reads_assigned = true;
      }
    }
    const auto hops = static_cast<int32_t>(scope_.size() - 1 - depth);
    return AddNode(Op::kColumn, hops, column);
  }

  int32_t CompileRef(const std::string& qualifier, const std::string& column) {
    // Qualified: the innermost binding whose alias or table name matches.
    if (!qualifier.empty()) {
      for (size_t depth = scope_.size(); depth-- > 0;) {
        const Table* table = schema_.table(scope_[depth].table);
        if (*scope_[depth].alias == qualifier || table->name() == qualifier) {
          const int col = table->ColumnIndex(column);
          if (col < 0) {
            return FailNode("no column '" + column + "' in '" + qualifier +
                            "'");
          }
          return ColumnNode(depth, col);
        }
      }
      return FailNode("unknown table or alias '" + qualifier + "'");
    }
    // Unqualified: the innermost row that has the column, else a scalar.
    for (size_t depth = scope_.size(); depth-- > 0;) {
      const int col = schema_.table(scope_[depth].table)->ColumnIndex(column);
      if (col >= 0) return ColumnNode(depth, col);
    }
    const auto& names = plan_->scalar_names;
    const auto slot = std::find(names.begin(), names.end(), column);
    if (slot != names.end()) {
      return AddNode(Op::kScalar, static_cast<int32_t>(slot - names.begin()));
    }
    return FailNode("unknown identifier '" + column + "'");
  }

  static Op BinaryOpCode(BinaryOp op) {
    switch (op) {
      case BinaryOp::kAdd:
        return Op::kAdd;
      case BinaryOp::kSub:
        return Op::kSub;
      case BinaryOp::kMul:
        return Op::kMul;
      case BinaryOp::kDiv:
        return Op::kDiv;
      case BinaryOp::kEq:
        return Op::kEq;
      case BinaryOp::kNe:
        return Op::kNe;
      case BinaryOp::kLt:
        return Op::kLt;
      case BinaryOp::kLe:
        return Op::kLe;
      case BinaryOp::kGt:
        return Op::kGt;
      case BinaryOp::kGe:
        return Op::kGe;
      case BinaryOp::kAnd:
        return Op::kAnd;
      case BinaryOp::kOr:
        return Op::kOr;
    }
    return Op::kNull;
  }

  int32_t CompileExpr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        if (e.literal.is_number()) {
          return AddNode(Op::kNumber, -1, -1, e.literal.number());
        }
        if (e.literal.is_string()) {
          return AddNode(Op::kString, AddString(e.literal.str()));
        }
        return AddNode(Op::kNull);
      case Expr::Kind::kColumnRef:
        return CompileRef(e.qualifier, e.column);
      case Expr::Kind::kUnaryMinus:
        return AddNode(Op::kNeg, CompileExpr(*e.operand));
      case Expr::Kind::kNot:
        return AddNode(Op::kNot, CompileExpr(*e.operand));
      case Expr::Kind::kBinary: {
        const int32_t lhs = CompileExpr(*e.lhs);
        const int32_t rhs = CompileExpr(*e.rhs);
        return AddNode(BinaryOpCode(e.op), lhs, rhs);
      }
      case Expr::Kind::kSubquery:
        return CompileSubquery(e);
    }
    return FailNode("corrupt expression node");
  }

  int32_t CompileSubquery(const Expr& e) {
    const int32_t table = TableIndex(e.from_table);
    if (table < 0) {
      return FailNode("unknown table '" + e.from_table + "' in subquery");
    }
    CompiledProgram::Subquery sub;
    sub.fn = e.aggregate;
    sub.table = table;
    sub.agg_name = AddString(e.agg_column);

    open_subqueries_.push_back(OpenSubquery{scope_.size()});
    scope_.push_back(
        Binding{table, e.from_alias.empty() ? &e.from_table : &e.from_alias});
    if (e.where != nullptr) sub.where = CompileExpr(*e.where);
    sub.agg = CompileRef(e.agg_qualifier, e.agg_column);
    scope_.pop_back();
    const OpenSubquery reads = open_subqueries_.back();
    open_subqueries_.pop_back();

    if (update_ != nullptr && !reads.reads_outer && !reads.reads_assigned) {
      sub.reuse_slot = update_->num_reuse_slots++;
    }
    plan_->subqueries.push_back(sub);
    return AddNode(Op::kSubquery,
                   static_cast<int32_t>(plan_->subqueries.size() - 1));
  }

  PlanStmt FailStmt(std::string message) {
    PlanStmt out;
    out.kind = PlanStmt::Kind::kFail;
    out.message = AddString(std::move(message));
    return out;
  }

  PlanStmt CompileStmt(const Stmt& stmt) {
    if (stmt.kind == Stmt::Kind::kIf) {
      PlanStmt out;
      out.kind = PlanStmt::Kind::kIf;
      for (const auto& [cond, body] : stmt.branches) {
        const int32_t c = CompileExpr(*cond);
        out.branches.emplace_back(c, CompileBody(body));
      }
      out.else_body = CompileBody(stmt.else_body);
      return out;
    }

    const int32_t table = TableIndex(stmt.table);
    if (table < 0) {
      return FailStmt("unknown table '" + stmt.table + "' in UPDATE");
    }
    OpenUpdate update{table, {}};
    for (const Assignment& a : stmt.assignments) {
      const int col = schema_.table(table)->ColumnIndex(a.column);
      if (col < 0) {
        return FailStmt("no column '" + a.column + "' in '" + stmt.table +
                        "'");
      }
      update.assigned.push_back(col);
    }

    PlanStmt out;
    out.kind = PlanStmt::Kind::kUpdate;
    out.table = table;
    update_ = &update;
    scope_.push_back(Binding{table, &schema_.table(table)->name()});
    if (stmt.where != nullptr) out.where = CompileExpr(*stmt.where);
    for (size_t i = 0; i < stmt.assignments.size(); ++i) {
      out.assignments.emplace_back(update.assigned[i],
                                   CompileExpr(*stmt.assignments[i].value));
    }
    scope_.pop_back();
    update_ = nullptr;
    out.num_reuse_slots = update.num_reuse_slots;
    return out;
  }

  const Database& schema_;
  CompiledProgram* plan_;
  std::vector<Binding> scope_;  // innermost last
  std::vector<OpenSubquery> open_subqueries_;
  OpenUpdate* update_ = nullptr;
};

}  // namespace

int CompiledProgram::FindEvent(std::string_view table) const {
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].table == table) return static_cast<int>(i);
  }
  return -1;
}

CompiledProgram CompileProgram(const ParsedProgram& program,
                               const Database& schema,
                               std::vector<std::string> scalar_names) {
  CompiledProgram plan;
  plan.scalar_names = std::move(scalar_names);
  for (int i = 0; i < schema.num_tables(); ++i) {
    plan.table_columns.push_back(schema.table(i)->num_columns());
  }
  Compiler compiler(schema, &plan);
  for (const TriggerDecl& trigger : program.triggers) {
    std::vector<PlanStmt> body = compiler.CompileBody(trigger.body);
    int event = plan.FindEvent(trigger.table);
    if (event < 0) {
      plan.events.push_back(CompiledProgram::Event{trigger.table, {}});
      event = static_cast<int>(plan.events.size() - 1);
    }
    plan.events[event].bodies.push_back(std::move(body));
  }
  plan.nodes.shrink_to_fit();
  plan.subqueries.shrink_to_fit();
  return plan;
}

}  // namespace lang
}  // namespace ssa
