#ifndef RCC_OPTIMIZER_VIEW_MATCHING_H_
#define RCC_OPTIMIZER_VIEW_MATCHING_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "plan/expr.h"

namespace rcc {

/// Inclusive/exclusive range bounds extracted from predicate conjuncts on a
/// single column.
struct RangeBound {
  std::optional<Value> lo;
  std::optional<Value> hi;
  bool lo_strict = false;  // lo excluded (col > lo)
  bool hi_strict = false;  // hi excluded (col < hi)
  bool has_eq = false;     // an equality pins the column
  /// Source positions of the winning lo/hi literals (Expr::kNoOffset when the
  /// literal carried none). Lets the optimizer stamp synthesized seek-bound
  /// literals so the plan cache can parameterize them; the residual re-checks
  /// every conjunct, so a reused (possibly wider) seek stays exact.
  size_t lo_offset = Expr::kNoOffset;
  size_t hi_offset = Expr::kNoOffset;
};

/// Per-column bounds implied by `conjuncts` for operand `op`. Only conjuncts
/// of the form <column> <cmp> <literal> (or mirrored) contribute; with
/// `params`, so does a parameter, read as its bound value. A column
/// reference matches when its qualifier resolves to `op` via `aliases`, or —
/// for bare references — when `schema` contains the column.
std::map<std::string, RangeBound> ExtractBounds(
    const std::vector<const Expr*>& conjuncts, InputOperandId op,
    const AliasMap& aliases, const Schema& schema,
    const std::vector<Value>* params = nullptr);

/// Combined selectivity of the bounds against `stats` (uniformity and
/// independence assumptions).
double BoundsSelectivity(const std::map<std::string, RangeBound>& bounds,
                         const TableStats& stats);

/// View matching (paper §3.2.3 / [GL01], restricted to the prototype's view
/// class: per-table selection+projection views). A view matches an operand
/// access when
///   (a) it projects every needed column, and
///   (b) its selection predicate is *subsumed* by the query's predicate on
///       that operand: every view range is implied by the extracted bounds.
/// Matching views can substitute the base-table access; the optimizer wraps
/// the substitute in a SwitchUnion with a currency guard.
std::vector<const ViewDef*> MatchViews(
    const Catalog& catalog, const std::string& table_name,
    const std::set<std::string>& needed_columns,
    const std::map<std::string, RangeBound>& bounds);

/// True when `bounds` imply `range` (the query can only select rows the view
/// contains).
bool RangeSubsumed(const ColumnRange& range,
                   const std::map<std::string, RangeBound>& bounds);

}  // namespace rcc

#endif  // RCC_OPTIMIZER_VIEW_MATCHING_H_
