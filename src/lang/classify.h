#ifndef SSA_LANG_CLASSIFY_H_
#define SSA_LANG_CLASSIFY_H_

#include <cstdint>

#include "lang/plan.h"

namespace ssa {
namespace lang {

/// Where the inputs of Figure 5's Equalize-ROI program live in the schema
/// and scalar list a plan was compiled against: table indices, column
/// indices and scalar slots, as CompileProgram resolves them.
struct EqualizeRoiLayout {
  int32_t keywords = -1;  // tables
  int32_t bids = -1;
  int32_t formula = -1;  // Keywords columns
  int32_t maxbid = -1;
  int32_t roi = -1;
  int32_t bid = -1;
  int32_t relevance = -1;
  int32_t bids_formula = -1;  // Bids columns
  int32_t bids_value = -1;
  int32_t amt_spent = -1;  // scalar slots
  int32_t time = -1;
  int32_t target_spend_rate = -1;
};

/// True when the triggers of `plan.events[event]` are exactly one body of
/// this shape over `layout` (Figure 5, with the spend test in multiplied
/// form and the overspending branch's '>'):
///
///   IF amtSpent < targetSpendRate * time THEN
///     UPDATE Keywords SET bid = bid + 1
///     WHERE roi = (SELECT MAX(K.roi) FROM Keywords K)
///       AND relevance > 0 AND bid < maxbid;
///   ELSEIF amtSpent > targetSpendRate * time THEN
///     UPDATE Keywords SET bid = bid - 1
///     WHERE roi = (SELECT MIN(K.roi) FROM Keywords K)
///       AND relevance > 0 AND bid > 0;
///   ENDIF;
///   UPDATE Bids SET value = (SELECT SUM(K.bid) FROM Keywords K
///     WHERE K.relevance > 0.7 AND K.formula = Bids.formula);
///
/// The match is structural: node ops, operand order, tables, columns,
/// binding hops, aggregate functions, scalar slots and the bits of every
/// constant. Source text, aliases and the trigger's name play no part, so
/// two programs match exactly when they compile to the same plan shape.
/// `event` is an index from FindEvent; -1 never matches.
bool IsEqualizeRoi(const CompiledProgram& plan, int event,
                   const EqualizeRoiLayout& layout);

}  // namespace lang
}  // namespace ssa

#endif  // SSA_LANG_CLASSIFY_H_
