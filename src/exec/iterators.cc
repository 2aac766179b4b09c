#include "exec/iterators.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "common/logging.h"
#include "common/strings.h"
#include "exec/read_handle.h"
#include "exec/remote.h"
#include "exec/switch_union.h"

namespace rcc {

namespace {

/// Concatenated string key for hash tables; numeric values render uniformly
/// so cross-type equality (INT 42 vs DOUBLE 42.0) hashes identically, in
/// line with Value::Compare.
std::string HashKeyOf(const std::vector<Value>& vals, bool* has_null) {
  std::string key;
  for (const Value& v : vals) {
    if (v.is_null()) *has_null = true;
    key += v.ToString();
    key += '\x1f';
  }
  return key;
}

/// Common base handling the op/ctx pair and residual evaluation.
class IterBase : public RowIterator {
 public:
  IterBase(const PhysicalOp& op, ExecContext* ctx) : op_(op), ctx_(ctx) {}

  const RowLayout& layout() const override { return op_.layout; }

 protected:
  /// The execution's EXISTS/IN evaluator (see ExecContext::subqueries).
  const SubqueryEvaluator* subq() const { return ctx_->subqueries; }

  /// The scope holding `row` nested in `outer`. Which row an expression
  /// reads at which depth was fixed when the plan was bound (plan/bind.h).
  EvalScope ScopeOf(const Row& row, const EvalScope* outer) const {
    return EvalScope{&row, outer, ctx_->params};
  }

  /// Evaluates every expression of `exprs` in `scope`.
  Result<std::vector<Value>> EvalAll(
      const std::vector<std::unique_ptr<Expr>>& exprs,
      const EvalScope& scope) const {
    std::vector<Value> values;
    values.reserve(exprs.size());
    for (const auto& e : exprs) {
      RCC_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, scope, subq()));
      values.push_back(std::move(v));
    }
    return values;
  }

  Result<bool> PassesResidual(const Row& row, const EvalScope* outer) const {
    if (op_.residual == nullptr) return true;
    return EvalPredicate(*op_.residual, ScopeOf(row, outer), subq());
  }

  const PhysicalOp& op_;
  ExecContext* ctx_;
};

// -- Scan ---------------------------------------------------------------------

class ScanIterator : public IterBase {
 public:
  using IterBase::IterBase;

  Status Open(const EvalScope* outer) override {
    outer_ = outer;
    table_ = ctx_->reader->ScanTable(op_.target);
    if (table_ == nullptr) {
      return Status::NotFound("scan target '" + op_.target.name +
                              "' not available");
    }
    if (table_->schema().num_columns() != op_.layout.num_slots()) {
      return Status::Internal("scan layout mismatch for " + op_.target.name);
    }
    // Evaluate (possibly parameterized) seek bounds in the scope the scan
    // is opened in; at the plan root only parameters are in scope.
    lo_.clear();
    hi_.clear();
    const EvalScope top{nullptr, nullptr, ctx_->params};
    const EvalScope& seek_scope = outer != nullptr ? *outer : top;
    for (const auto& e : op_.seek_lo) {
      RCC_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, seek_scope, subq()));
      lo_.push_back(std::move(v));
    }
    for (const auto& e : op_.seek_hi) {
      RCC_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, seek_scope, subq()));
      hi_.push_back(std::move(v));
    }

    if (!op_.index_name.empty()) {
      const SecondaryIndex* index = table_->FindIndex(op_.index_name);
      if (index == nullptr) {
        return Status::NotFound("index '" + op_.index_name + "' not on " +
                                op_.target.name);
      }
      pks_ = index->Range(lo_.empty() ? nullptr : &lo_,
                          hi_.empty() ? nullptr : &hi_);
      pk_pos_ = 0;
      use_index_ = true;
    } else {
      use_index_ = false;
      it_ = lo_.empty() ? table_->rows().begin()
                        : table_->rows().lower_bound(lo_);
      end_ = table_->rows().end();
    }
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    while (true) {
      const Row* candidate = nullptr;
      if (use_index_) {
        if (pk_pos_ >= pks_.size()) return false;
        candidate = table_->Get(pks_[pk_pos_++]);
        if (candidate == nullptr) continue;  // index raced storage (unused)
      } else {
        if (it_ == end_) return false;
        if (!hi_.empty() && Table::ExceedsUpper(it_->first, hi_)) return false;
        candidate = &it_->second;
        ++it_;
      }
      RCC_ASSIGN_OR_RETURN(bool ok, PassesResidual(*candidate, outer_));
      if (ok) {
        *out = *candidate;
        return true;
      }
    }
  }

  Status Close() override {
    table_ = nullptr;
    pks_.clear();
    return Status::OK();
  }

 private:
  const EvalScope* outer_ = nullptr;
  const Table* table_ = nullptr;
  TableKey lo_;
  TableKey hi_;
  bool use_index_ = false;
  std::vector<TableKey> pks_;
  size_t pk_pos_ = 0;
  std::map<TableKey, Row, TableKeyLess>::const_iterator it_;
  std::map<TableKey, Row, TableKeyLess>::const_iterator end_;
};

// -- Filter / Project ---------------------------------------------------------

class FilterIterator : public IterBase {
 public:
  FilterIterator(const PhysicalOp& op, ExecContext* ctx,
                 std::unique_ptr<RowIterator> child)
      : IterBase(op, ctx), child_(std::move(child)) {}

  Status Open(const EvalScope* outer) override {
    outer_ = outer;
    return child_->Open(outer);
  }

  Result<bool> Next(Row* out) override {
    while (true) {
      Row row;
      RCC_ASSIGN_OR_RETURN(bool more, child_->Next(&row));
      if (!more) return false;
      RCC_ASSIGN_OR_RETURN(bool ok, PassesResidual(row, outer_));
      if (ok) {
        *out = std::move(row);
        return true;
      }
    }
  }

  Status Close() override { return child_->Close(); }

 private:
  std::unique_ptr<RowIterator> child_;
  const EvalScope* outer_ = nullptr;
};

class ProjectIterator : public IterBase {
 public:
  ProjectIterator(const PhysicalOp& op, ExecContext* ctx,
                  std::unique_ptr<RowIterator> child)
      : IterBase(op, ctx), child_(std::move(child)) {}

  Status Open(const EvalScope* outer) override {
    outer_ = outer;
    seen_.clear();
    return child_->Open(outer);
  }

  Result<bool> Next(Row* out) override {
    Row row;
    while (true) {
      RCC_ASSIGN_OR_RETURN(bool more, child_->Next(&row));
      if (!more) return false;
      RCC_ASSIGN_OR_RETURN(bool keep, ProjectRow(row, out));
      if (keep) return true;
    }
  }

  Status Close() override {
    seen_.clear();
    return child_->Close();
  }

 private:
  /// Projects one input row; false = dropped as a DISTINCT duplicate.
  Result<bool> ProjectRow(const Row& row, Row* out) {
    RCC_ASSIGN_OR_RETURN(Row result, EvalAll(op_.exprs, ScopeOf(row, outer_)));
    if (op_.distinct) {
      bool ignore = false;
      std::string key = HashKeyOf(result, &ignore);
      if (!seen_.insert(std::move(key)).second) return false;  // duplicate
    }
    *out = std::move(result);
    return true;
  }

  std::unique_ptr<RowIterator> child_;
  const EvalScope* outer_ = nullptr;
  std::set<std::string> seen_;  // DISTINCT bookkeeping
};

// -- Joins --------------------------------------------------------------------

class NestedLoopJoinIterator : public IterBase {
 public:
  NestedLoopJoinIterator(const PhysicalOp& op, ExecContext* ctx,
                         std::unique_ptr<RowIterator> outer_child,
                         std::unique_ptr<RowIterator> inner_child)
      : IterBase(op, ctx),
        outer_child_(std::move(outer_child)),
        inner_child_(std::move(inner_child)) {}

  Status Open(const EvalScope* outer) override {
    outer_ = outer;
    have_left_ = false;
    inner_open_ = false;
    return outer_child_->Open(outer);
  }

  Result<bool> Next(Row* out) override {
    while (true) {
      if (!have_left_) {
        RCC_ASSIGN_OR_RETURN(bool more, outer_child_->Next(&left_row_));
        if (!more) return false;
        have_left_ = true;
        left_scope_ = ScopeOf(left_row_, outer_);
        if (inner_open_) RCC_RETURN_NOT_OK(inner_child_->Close());
        RCC_RETURN_NOT_OK(inner_child_->Open(&left_scope_));
        inner_open_ = true;
      }
      Row right_row;
      RCC_ASSIGN_OR_RETURN(bool more, inner_child_->Next(&right_row));
      if (!more) {
        have_left_ = false;
        continue;
      }
      Row combined = left_row_;
      combined.insert(combined.end(), right_row.begin(), right_row.end());
      RCC_ASSIGN_OR_RETURN(bool ok, PassesResidual(combined, outer_));
      if (ok) {
        *out = std::move(combined);
        return true;
      }
    }
  }

  Status Close() override {
    Status st = outer_child_->Close();
    if (inner_open_) {
      Status st2 = inner_child_->Close();
      inner_open_ = false;
      if (st.ok()) st = st2;
    }
    have_left_ = false;
    return st;
  }

 private:
  std::unique_ptr<RowIterator> outer_child_;
  std::unique_ptr<RowIterator> inner_child_;
  const EvalScope* outer_ = nullptr;
  Row left_row_;
  EvalScope left_scope_;
  bool have_left_ = false;
  bool inner_open_ = false;
};

class HashJoinIterator : public IterBase {
 public:
  HashJoinIterator(const PhysicalOp& op, ExecContext* ctx,
                   std::unique_ptr<RowIterator> probe_child,
                   std::unique_ptr<RowIterator> build_child)
      : IterBase(op, ctx),
        probe_child_(std::move(probe_child)),
        build_child_(std::move(build_child)) {}

  Status Open(const EvalScope* outer) override {
    outer_ = outer;
    table_.clear();
    matches_ = nullptr;
    match_pos_ = 0;
    // Build side = right child, keys in exprs2.
    RCC_RETURN_NOT_OK(build_child_->Open(outer));
    Row row;
    while (true) {
      RCC_ASSIGN_OR_RETURN(bool more, build_child_->Next(&row));
      if (!more) break;
      RCC_ASSIGN_OR_RETURN(std::vector<Value> keys,
                           EvalAll(op_.exprs2, ScopeOf(row, outer_)));
      bool has_null = false;
      std::string key = HashKeyOf(keys, &has_null);
      if (has_null) continue;  // NULL keys never join
      table_[key].push_back(row);
    }
    RCC_RETURN_NOT_OK(build_child_->Close());
    return probe_child_->Open(outer);
  }

  Result<bool> Next(Row* out) override {
    while (true) {
      if (matches_ != nullptr && match_pos_ < matches_->size()) {
        Row combined = probe_row_;
        const Row& right = (*matches_)[match_pos_++];
        combined.insert(combined.end(), right.begin(), right.end());
        RCC_ASSIGN_OR_RETURN(bool ok, PassesResidual(combined, outer_));
        if (!ok) continue;
        *out = std::move(combined);
        return true;
      }
      RCC_ASSIGN_OR_RETURN(bool more, probe_child_->Next(&probe_row_));
      if (!more) return false;
      RCC_ASSIGN_OR_RETURN(std::vector<Value> keys,
                           EvalAll(op_.exprs, ScopeOf(probe_row_, outer_)));
      bool has_null = false;
      std::string key = HashKeyOf(keys, &has_null);
      if (has_null) continue;
      auto it = table_.find(key);
      matches_ = it == table_.end() ? nullptr : &it->second;
      match_pos_ = 0;
    }
  }

  Status Close() override {
    table_.clear();
    matches_ = nullptr;
    return probe_child_->Close();
  }

 private:
  std::unique_ptr<RowIterator> probe_child_;
  std::unique_ptr<RowIterator> build_child_;
  const EvalScope* outer_ = nullptr;
  std::unordered_map<std::string, std::vector<Row>> table_;
  Row probe_row_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

// -- Sort ---------------------------------------------------------------------

class SortIterator : public IterBase {
 public:
  SortIterator(const PhysicalOp& op, ExecContext* ctx,
               std::unique_ptr<RowIterator> child)
      : IterBase(op, ctx), child_(std::move(child)) {}

  Status Open(const EvalScope* outer) override {
    rows_.clear();
    pos_ = 0;
    RCC_RETURN_NOT_OK(child_->Open(outer));
    Row row;
    std::vector<std::pair<std::vector<Value>, Row>> keyed;
    while (true) {
      RCC_ASSIGN_OR_RETURN(bool more, child_->Next(&row));
      if (!more) break;
      const EvalScope scope = ScopeOf(row, outer);
      std::vector<Value> keys;
      for (const auto& sk : op_.sort_keys) {
        RCC_ASSIGN_OR_RETURN(Value v, EvalExpr(*sk.expr, scope, subq()));
        keys.push_back(std::move(v));
      }
      keyed.emplace_back(std::move(keys), row);
    }
    RCC_RETURN_NOT_OK(child_->Close());
    std::stable_sort(keyed.begin(), keyed.end(),
                     [this](const auto& a, const auto& b) {
                       for (size_t i = 0; i < op_.sort_keys.size(); ++i) {
                         int c = a.first[i].Compare(b.first[i]);
                         if (c == 0) continue;
                         return op_.sort_keys[i].descending ? c > 0 : c < 0;
                       }
                       return false;
                     });
    rows_.reserve(keyed.size());
    for (auto& kv : keyed) rows_.push_back(std::move(kv.second));
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    if (pos_ >= rows_.size()) return false;
    *out = rows_[pos_++];
    return true;
  }

  Status Close() override {
    rows_.clear();
    return Status::OK();
  }

 private:
  std::unique_ptr<RowIterator> child_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

// -- Aggregation --------------------------------------------------------------

struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool sum_is_int = true;
  int64_t isum = 0;
  Value min;
  Value max;
  bool seen = false;
};

class HashAggregateIterator : public IterBase {
 public:
  HashAggregateIterator(const PhysicalOp& op, ExecContext* ctx,
                        std::unique_ptr<RowIterator> child)
      : IterBase(op, ctx), child_(std::move(child)) {}

  Status Open(const EvalScope* outer) override {
    groups_.clear();
    order_.clear();
    pos_ = 0;
    RCC_RETURN_NOT_OK(child_->Open(outer));
    Row row;
    while (true) {
      RCC_ASSIGN_OR_RETURN(bool more, child_->Next(&row));
      if (!more) break;
      const EvalScope scope = ScopeOf(row, outer);
      RCC_ASSIGN_OR_RETURN(std::vector<Value> keys, EvalAll(op_.exprs, scope));
      bool ignore = false;
      std::string key = HashKeyOf(keys, &ignore);
      auto it = groups_.find(key);
      if (it == groups_.end()) {
        it = groups_.emplace(key, GroupState{}).first;
        it->second.keys = keys;
        it->second.aggs.resize(op_.aggs.size());
        order_.push_back(key);
      }
      RCC_RETURN_NOT_OK(Update(&it->second, scope));
    }
    RCC_RETURN_NOT_OK(child_->Close());
    // Global aggregate over empty input still yields one row.
    if (groups_.empty() && op_.exprs.empty()) {
      GroupState g;
      g.aggs.resize(op_.aggs.size());
      groups_.emplace("", std::move(g));
      order_.push_back("");
    }
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    if (pos_ >= order_.size()) return false;
    const GroupState& g = groups_[order_[pos_++]];
    Row result = g.keys;
    for (size_t i = 0; i < op_.aggs.size(); ++i) {
      result.push_back(Finalize(op_.aggs[i], g.aggs[i]));
    }
    *out = std::move(result);
    return true;
  }

  Status Close() override {
    groups_.clear();
    order_.clear();
    return Status::OK();
  }

 private:
  struct GroupState {
    std::vector<Value> keys;
    std::vector<AggState> aggs;
  };

  Status Update(GroupState* g, const EvalScope& scope) {
    for (size_t i = 0; i < op_.aggs.size(); ++i) {
      const AggItem& item = op_.aggs[i];
      AggState& st = g->aggs[i];
      if (item.star) {
        ++st.count;
        continue;
      }
      RCC_ASSIGN_OR_RETURN(Value v, EvalExpr(*item.arg, scope, subq()));
      if (v.is_null()) continue;  // aggregates ignore NULLs
      ++st.count;
      if (v.is_numeric()) {
        st.sum += v.AsDouble();
        if (v.is_int()) {
          st.isum += v.AsInt();
        } else {
          st.sum_is_int = false;
        }
      }
      if (!st.seen || v.Compare(st.min) < 0) st.min = v;
      if (!st.seen || st.max.Compare(v) < 0) st.max = v;
      st.seen = true;
    }
    return Status::OK();
  }

  static Value Finalize(const AggItem& item, const AggState& st) {
    if (item.func == "count") return Value::Int(st.count);
    if (item.func == "sum") {
      if (st.count == 0) return Value::Null();
      return st.sum_is_int ? Value::Int(st.isum) : Value::Double(st.sum);
    }
    if (item.func == "avg") {
      if (st.count == 0) return Value::Null();
      return Value::Double(st.sum / static_cast<double>(st.count));
    }
    if (item.func == "min") return st.seen ? st.min : Value::Null();
    if (item.func == "max") return st.seen ? st.max : Value::Null();
    return Value::Null();
  }

  std::unique_ptr<RowIterator> child_;
  std::map<std::string, GroupState> groups_;
  std::vector<std::string> order_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<RowIterator>> BuildIterator(const PhysicalOp& op,
                                                   ExecContext* ctx) {
  switch (op.kind) {
    case PhysOpKind::kLocalScan:
      return std::unique_ptr<RowIterator>(new ScanIterator(op, ctx));
    case PhysOpKind::kRemoteQuery:
      return std::unique_ptr<RowIterator>(new RemoteQueryIterator(op, ctx));
    case PhysOpKind::kFilter: {
      RCC_ASSIGN_OR_RETURN(auto child, BuildIterator(*op.children[0], ctx));
      return std::unique_ptr<RowIterator>(
          new FilterIterator(op, ctx, std::move(child)));
    }
    case PhysOpKind::kProject: {
      RCC_ASSIGN_OR_RETURN(auto child, BuildIterator(*op.children[0], ctx));
      return std::unique_ptr<RowIterator>(
          new ProjectIterator(op, ctx, std::move(child)));
    }
    case PhysOpKind::kNestedLoopJoin: {
      RCC_ASSIGN_OR_RETURN(auto left, BuildIterator(*op.children[0], ctx));
      RCC_ASSIGN_OR_RETURN(auto right, BuildIterator(*op.children[1], ctx));
      return std::unique_ptr<RowIterator>(new NestedLoopJoinIterator(
          op, ctx, std::move(left), std::move(right)));
    }
    case PhysOpKind::kHashJoin: {
      RCC_ASSIGN_OR_RETURN(auto left, BuildIterator(*op.children[0], ctx));
      RCC_ASSIGN_OR_RETURN(auto right, BuildIterator(*op.children[1], ctx));
      return std::unique_ptr<RowIterator>(new HashJoinIterator(
          op, ctx, std::move(left), std::move(right)));
    }
    case PhysOpKind::kSort: {
      RCC_ASSIGN_OR_RETURN(auto child, BuildIterator(*op.children[0], ctx));
      return std::unique_ptr<RowIterator>(
          new SortIterator(op, ctx, std::move(child)));
    }
    case PhysOpKind::kHashAggregate: {
      RCC_ASSIGN_OR_RETURN(auto child, BuildIterator(*op.children[0], ctx));
      return std::unique_ptr<RowIterator>(
          new HashAggregateIterator(op, ctx, std::move(child)));
    }
    case PhysOpKind::kSwitchUnion: {
      RCC_ASSIGN_OR_RETURN(auto local, BuildIterator(*op.children[0], ctx));
      RCC_ASSIGN_OR_RETURN(auto remote, BuildIterator(*op.children[1], ctx));
      return std::unique_ptr<RowIterator>(new SwitchUnionIterator(
          op, ctx, std::move(local), std::move(remote)));
    }
  }
  return Status::Internal("unknown physical operator");
}

}  // namespace rcc
