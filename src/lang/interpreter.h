#ifndef SSA_LANG_INTERPRETER_H_
#define SSA_LANG_INTERPRETER_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>

#include "db/table.h"
#include "lang/parser.h"
#include "lang/plan.h"
#include "util/status.h"

namespace ssa {
namespace lang {

/// Scalar variables visible to a bidding program — the automatically
/// maintained quantities of Section II-B (amtSpent, time, targetSpendRate,
/// ...). Unqualified identifiers that match no column of a bound row
/// resolve here.
struct ScalarEnv {
  std::map<std::string, double> vars;

  void Set(const std::string& name, double value) { vars[name] = value; }
};

/// Executes compiled bidding programs against a per-advertiser Database.
/// SQL-lite semantics:
///   * UPDATE evaluates all SET expressions against the pre-update row
///     (simultaneous assignment), for every row satisfying WHERE;
///   * scalar aggregate subqueries see the subquery row (via its alias or
///     table name) plus any outer row (correlated refs like Bids.formula)
///     plus the scalar environment;
///   * comparisons/logic are numeric (0/1); NULL compares false; strings
///     support = and <>;
///   * MAX/MIN/AVG over an empty set yield NULL, SUM/COUNT yield 0.
///
/// A subquery the compiler marked reusable (see CompiledProgram::Subquery)
/// runs at most once per execution of its UPDATE, the first time it is
/// reached, and later reads within that execution take the kept value.
/// Subqueries have no side effects and such a subquery's inputs do not
/// change while the UPDATE runs, so the results are bitwise those of
/// re-running it at every reach.
class Interpreter {
 public:
  /// Runs the triggers of `plan.events[event]` in declaration order,
  /// stopping at the first error. `db` must have the schema the plan was
  /// compiled against; `scalars` holds one entry per
  /// `plan.scalar_names`, and an empty entry reads as an unknown
  /// identifier. `plan` is only read.
  static Status Fire(const CompiledProgram& plan, int event, Database* db,
                     const std::optional<double>* scalars,
                     size_t num_scalars);

  /// Fires every trigger declared AFTER INSERT ON `table` (the Section II-B
  /// activation model: the engine "inserts" the query, programs react).
  /// Compiles the program against `db` and the names in `scalars`, then
  /// runs it: the ad-hoc form of CompileProgram + Fire.
  static Status FireTriggers(const ParsedProgram& program,
                             const std::string& table, Database* db,
                             const ScalarEnv& scalars);
};

}  // namespace lang
}  // namespace ssa

#endif  // SSA_LANG_INTERPRETER_H_
