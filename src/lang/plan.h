#ifndef SSA_LANG_PLAN_H_
#define SSA_LANG_PLAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "db/table.h"
#include "lang/parser.h"

namespace ssa {
namespace lang {

/// A bidding program compiled against one table schema and one list of
/// scalar names, ready to run many times. Every name is resolved here, once:
///   * tables become indices into the Database (`Database::table(i)`);
///   * column references become (binding hops, column index), where a hop
///     walks from the innermost bound row to the row of the enclosing
///     UPDATE or subquery;
///   * scalar variables become slots, in the order of `scalar_names`;
///   * each trigger is filed under the table it fires on.
///
/// A name that does not resolve compiles into a node that fails, with the
/// message the language has always given, when it is evaluated. A program
/// that names an unknown column in a branch that never runs still succeeds.
///
/// The plan is immutable once CompileProgram returns. Running it keeps all
/// mutable state (bound rows, reused subquery values) in a per-run context
/// on the stack, so one plan may run on any thread, and on several threads
/// at once against different databases.
struct CompiledProgram {
  enum class Op : uint8_t {
    kNull,
    kNumber,  // literal `number`
    kString,  // literal strings[a]
    kColumn,  // cell b of the row `a` hops out from the innermost row
    kScalar,  // scalar slot a; fails as unknown identifier when not provided
    kFail,    // fails with strings[a]
    kNeg,     // -nodes[a]
    kNot,     // NOT nodes[a]
    kAnd,     // short-circuit binary ops over nodes[a], nodes[b]
    kOr,
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kSubquery,  // subqueries[a]
  };

  /// One expression node; children are indices into `nodes`.
  struct Node {
    Op op = Op::kNull;
    int32_t a = -1;
    int32_t b = -1;
    double number = 0.0;
  };

  /// A scalar aggregate subquery. It binds each row of `table` in turn and
  /// aggregates `agg` over the rows where `where` holds.
  struct Subquery {
    AggregateFn fn = AggregateFn::kMax;
    int32_t table = -1;
    int32_t where = -1;     // node, or -1 for none
    int32_t agg = -1;       // node read per kept row
    int32_t agg_name = -1;  // strings[] index, for the non-numeric error
    /// Slot in the enclosing UPDATE's per-run value cache, or -1. Set when
    /// the subquery reads no outer row and no column that UPDATE assigns,
    /// so its value cannot change while that UPDATE runs.
    int32_t reuse_slot = -1;
  };

  struct Stmt {
    enum class Kind : uint8_t { kUpdate, kIf, kFail };
    Kind kind = Kind::kFail;

    // kUpdate: one (column, value node) per SET assignment.
    int32_t table = -1;
    std::vector<std::pair<int32_t, int32_t>> assignments;
    int32_t where = -1;
    int32_t num_reuse_slots = 0;

    // kIf: (condition node, body) per IF / ELSEIF, then the ELSE body.
    std::vector<std::pair<int32_t, std::vector<Stmt>>> branches;
    std::vector<Stmt> else_body;

    // kFail: the statement fails with strings[message] when it runs.
    int32_t message = -1;
  };

  /// The trigger bodies that fire AFTER INSERT ON one table, in declaration
  /// order.
  struct Event {
    std::string table;
    std::vector<std::vector<Stmt>> bodies;
  };

  /// Index into `events` of the triggers that fire on `table`, or -1 when
  /// none do.
  int FindEvent(std::string_view table) const;

  std::vector<Node> nodes;
  std::vector<Subquery> subqueries;
  std::vector<std::string> strings;  // literals, names, failure messages
  std::vector<Event> events;
  std::vector<std::string> scalar_names;  // slot -> name
  /// Column count of each schema table; checked against the Database at
  /// every run.
  std::vector<int> table_columns;
};

/// Compiles `program` against the tables of `schema` (their names, columns
/// and order; rows are ignored) and the scalar variable names, which become
/// slots 0, 1, ... in the given order. Never fails: unresolved names become
/// failing nodes (see CompiledProgram).
CompiledProgram CompileProgram(const ParsedProgram& program,
                               const Database& schema,
                               std::vector<std::string> scalar_names);

}  // namespace lang
}  // namespace ssa

#endif  // SSA_LANG_PLAN_H_
