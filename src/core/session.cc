#include "core/session.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <optional>
#include <string_view>

#include "common/strings.h"
#include "exec/switch_union.h"
#include "sql/parser.h"

namespace rcc {

namespace {

/// Skips what the lexer skips between tokens: whitespace and `--` line
/// comments.
size_t SkipSpace(const std::string& s, size_t i) {
  while (i < s.size()) {
    if (std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    } else if (s.compare(i, 2, "--") == 0) {
      while (i < s.size() && s[i] != '\n') ++i;
    } else {
      break;
    }
  }
  return i;
}

/// Consumes `word` (case-insensitive, whole-word) at *pos after skipping
/// whitespace and comments; advances *pos past it on match.
bool MatchWord(const std::string& s, size_t* pos, const char* word) {
  size_t i = SkipSpace(s, *pos);
  size_t j = 0;
  while (word[j] != '\0') {
    if (i + j >= s.size() || AsciiToLowerChar(s[i + j]) != word[j]) {
      return false;
    }
    ++j;
  }
  if (i + j < s.size()) {
    unsigned char next = static_cast<unsigned char>(s[i + j]);
    if (std::isalnum(next) || next == '_') return false;
  }
  *pos = i + j;
  return true;
}

/// Recognizes SELECT and EXPLAIN [ANALYZE] SELECT statements without
/// parsing — every text the parser reads as one. `*body` is set to the
/// offset of the SELECT keyword, so the substring from there is a plain
/// SELECT whose byte offsets match what the plan cache normalizes.
bool SniffSelect(const std::string& sql, size_t* body, bool* is_explain,
                 bool* is_analyze) {
  size_t pos = 0;
  *is_explain = MatchWord(sql, &pos, "explain");
  *is_analyze = *is_explain && MatchWord(sql, &pos, "analyze");
  size_t at = SkipSpace(sql, pos);
  size_t probe = pos;
  if (!MatchWord(sql, &probe, "select")) return false;
  *body = at;
  return true;
}

bool IsSetSeparator(char c) {
  return c == ' ' || c == '=' || c == ';' || c == '\t' || c == '\n' ||
         c == '\r';
}

/// Recognizes `SET <name> [=] <value>`: exactly three words separated by
/// spaces, tabs, line breaks, `=` or `;`, the first one SET.
bool SplitSet(std::string_view sql, std::string_view* name,
              std::string_view* value) {
  std::string_view words[3];
  size_t count = 0;
  size_t i = 0;
  while (i < sql.size()) {
    if (IsSetSeparator(sql[i])) {
      ++i;
      continue;
    }
    size_t start = i;
    while (i < sql.size() && !IsSetSeparator(sql[i])) ++i;
    if (count == 3) return false;
    words[count++] = sql.substr(start, i - start);
    if (count == 1 && !EqualsIgnoreCase(words[0], "SET")) return false;
  }
  if (count != 3) return false;
  *name = words[1];
  *value = words[2];
  return true;
}

}  // namespace

std::optional<QueryResult> Session::ApplySet(const std::string& sql) {
  std::string_view name;
  std::string_view value;
  if (!SplitSet(sql, &name, &value)) return std::nullopt;
  QueryResult out;
  if (EqualsIgnoreCase(name, "DEGRADE")) {
    DegradeMode mode;
    if (EqualsIgnoreCase(value, "NONE")) {
      mode = DegradeMode::kNone;
    } else if (EqualsIgnoreCase(value, "BOUNDED")) {
      mode = DegradeMode::kBounded;
    } else if (EqualsIgnoreCase(value, "ALWAYS")) {
      mode = DegradeMode::kAlways;
    } else {
      return std::nullopt;
    }
    set_degrade_mode(mode);
    out.message = "degrade mode " + std::string(DegradeModeName(mode));
  } else if (EqualsIgnoreCase(name, "TRACE")) {
    const bool on = EqualsIgnoreCase(value, "ON");
    if (!on && !EqualsIgnoreCase(value, "OFF")) return std::nullopt;
    set_trace_enabled(on);
    out.message = on ? "trace ON" : "trace OFF";
  } else if (EqualsIgnoreCase(name, "DEADLINE")) {
    // A bare non-negative integer (milliseconds); anything else is not a
    // SET DEADLINE statement and falls through to the SQL parser's error.
    int64_t ms = 0;
    for (char c : value) {
      if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
      ms = ms * 10 + (c - '0');
      if (ms > 86400000) return std::nullopt;  // cap at 24h: overflow/typos
    }
    set_deadline_ms(ms);
    out.message = ms > 0 ? "deadline " + std::to_string(ms) + "ms"
                         : "deadline OFF";
  } else {
    return std::nullopt;
  }
  out.executed_at = system_->Now();
  return out;
}

Deadline Session::ResolveDeadline(const StatementOptions& opts) const {
  int64_t ms = opts.deadline_ms;
  if (ms <= 0) ms = deadline_ms();
  if (ms <= 0) ms = opts.default_deadline_ms;
  if (ms <= 0) return Deadline::None();
  return Deadline::After(opts.enqueued_at, ms);
}

Result<QueryResult> Session::Execute(const std::string& sql,
                                     const StatementOptions& opts) {
  // Session options are handled before SQL parsing (like BEGIN TIMEORDERED,
  // they configure the session rather than run a query).
  if (std::optional<QueryResult> set = ApplySet(sql)) return std::move(*set);
  SelectRequest req;
  size_t body_pos = 0;
  if (!SniffSelect(sql, &body_pos, &req.explain, &req.analyze)) {
    RCC_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
    return ExecuteStatement(stmt);
  }
  // Read the session modes exactly once: a concurrent SET DEGRADE / BEGIN
  // TIMEORDERED takes effect at the next query's admission, never mid-query.
  req.body = std::string_view(sql).substr(body_pos);
  req.degrade = degrade_mode();
  if (in_timeordered()) req.floor_cell = &timeline_floor_;
  req.trace = trace_enabled();
  req.session_tag = id_;
  req.deadline = ResolveDeadline(opts);
  req.shed_hint = opts.shed_hint;
  req.router = router_;
  return system_->ExecuteSelect(req);
}

Result<QueryResult> Session::ExecuteStatement(const Statement& stmt) {
  QueryResult out;
  switch (stmt.kind) {
    case StatementKind::kInsert:
      return ExecuteInsert(*stmt.insert);
    case StatementKind::kUpdate:
      return ExecuteUpdate(*stmt.update);
    case StatementKind::kDelete:
      return ExecuteDelete(*stmt.del);
    case StatementKind::kBeginTimeOrdered:
      timeordered_.store(true, std::memory_order_release);
      timeline_floor_.store(-1, std::memory_order_release);
      if (system_->history_sink() != nullptr) {
        system_->history_sink()->OnSessionMode(id_, true, system_->Now());
      }
      out.message = "timeline consistency ON";
      return out;
    case StatementKind::kEndTimeOrdered:
      timeordered_.store(false, std::memory_order_release);
      timeline_floor_.store(-1, std::memory_order_release);
      if (system_->history_sink() != nullptr) {
        system_->history_sink()->OnSessionMode(id_, false, system_->Now());
      }
      out.message = "timeline consistency OFF";
      return out;
    case StatementKind::kSelect:
    case StatementKind::kExplain:
      break;
  }
  // The plan cache keys on statement text, so queries enter from theirs.
  return Status::InvalidArgument(
      "SELECT and EXPLAIN run through Session::Execute");
}

std::vector<Result<QueryResult>> Session::ExecuteBatch(
    const std::vector<std::string>& sqls, int workers) {
  ConcurrentBatchOptions opts;
  opts.workers = workers;
  opts.degrade = degrade_mode();
  opts.session_tag = id_;
  opts.router = router_;
  if (in_timeordered()) {
    opts.timeline_floor = timeline_floor();
    opts.floor_cell = &timeline_floor_;
  }
  return system_->ExecuteConcurrent(sqls, opts);
}

namespace {

Result<QueryResult> ForwardTransaction(RccSystem* system,
                                       std::vector<RowOp> ops,
                                       const char* verb) {
  int64_t affected = static_cast<int64_t>(ops.size());
  RCC_ASSIGN_OR_RETURN(TxnTimestamp ts,
                       system->backend()->ExecuteTransaction(std::move(ops)));
  QueryResult out;
  out.rows_affected = affected;
  out.executed_at = system->Now();
  out.message = std::string(verb) + " " + std::to_string(affected) +
                " row(s), committed as txn " + std::to_string(ts) +
                " at the back-end";
  return out;
}

using Assignments = std::vector<std::pair<std::string, std::unique_ptr<Expr>>>;

/// UPDATE (`kind` kUpdate) and DELETE: the back end finds the target rows
/// the way it finds any SELECT's, by planning
///   SELECT <every column>, <assigned expressions> FROM <table> WHERE <where>
/// (clustered-key seek, secondary index or scan) over the master tables.
/// Each returned row becomes one op: its first num_columns slots are the
/// pre-image, and for UPDATE the trailing slots overwrite the assigned
/// columns. Ops are logged in clustered-key order whatever access path the
/// optimizer picked.
Result<QueryResult> ForwardDml(RccSystem* system, RowOp::Kind kind,
                               const std::string& table,
                               const Assignments& assignments,
                               const Expr* where, const char* verb) {
  BackendServer* backend = system->backend();
  const TableDef* def = backend->catalog().FindTable(table);
  if (def == nullptr) return Status::NotFound("table " + table + " not found");
  auto select = std::make_unique<SelectStmt>();
  for (const Column& c : def->schema.columns()) {
    select->items.push_back({Expr::MakeColumn(def->name, c.name), ""});
  }
  std::vector<size_t> positions;
  for (const auto& [col, expr] : assignments) {
    auto idx = def->schema.FindColumn(col);
    if (!idx) return Status::NotFound("column " + col + " not in " + table);
    positions.push_back(*idx);
    select->items.push_back({expr->Clone(), ""});
  }
  select->from.push_back(TableRef{def->name, def->name, nullptr});
  if (where != nullptr) select->where = where->Clone();
  RCC_ASSIGN_OR_RETURN(ExecutedQuery found,
                       backend->ExecuteQuery(std::move(select)));

  const Table* master = backend->table(def->name);
  const size_t width = def->schema.num_columns();
  std::vector<RowOp> ops;
  ops.reserve(found.rows.size());
  for (Row& row : found.rows) {
    RowOp op;
    op.kind = kind;
    op.table = def->name;
    // Log the pre-image key: if an assignment touched a clustered-key
    // column, replicas must delete the old row image, not upsert blindly.
    op.key = master->KeyOf(row);
    if (kind == RowOp::Kind::kUpdate) {
      for (size_t i = 0; i < positions.size(); ++i) {
        row[positions[i]] = std::move(row[width + i]);
      }
      row.resize(width);
      op.row = std::move(row);
    }
    ops.push_back(std::move(op));
  }
  if (ops.empty()) {
    QueryResult out;
    out.message = std::string(verb) + " 0 row(s)";
    out.executed_at = system->Now();
    return out;
  }
  std::sort(ops.begin(), ops.end(), [](const RowOp& a, const RowOp& b) {
    return TableKeyLess()(a.key, b.key);
  });
  return ForwardTransaction(system, std::move(ops), verb);
}

}  // namespace

Result<QueryResult> Session::ExecuteInsert(const InsertStmt& stmt) {
  const TableDef* def = system_->backend()->catalog().FindTable(stmt.table);
  if (def == nullptr) {
    return Status::NotFound("table " + stmt.table + " not found");
  }
  // Map listed columns (or the full schema) to positions.
  std::vector<size_t> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < def->schema.num_columns(); ++i) {
      positions.push_back(i);
    }
  } else {
    for (const std::string& c : stmt.columns) {
      auto idx = def->schema.FindColumn(c);
      if (!idx) {
        return Status::NotFound("column " + c + " not in " + stmt.table);
      }
      positions.push_back(*idx);
    }
  }
  std::vector<RowOp> ops;
  EvalScope empty;
  for (const auto& exprs : stmt.rows) {
    if (exprs.size() != positions.size()) {
      return Status::InvalidArgument("VALUES arity mismatch");
    }
    Row row(def->schema.num_columns(), Value::Null());
    for (size_t i = 0; i < exprs.size(); ++i) {
      RCC_ASSIGN_OR_RETURN(Value v, EvalExpr(*exprs[i], empty, nullptr));
      row[positions[i]] = std::move(v);
    }
    RowOp op;
    op.kind = RowOp::Kind::kInsert;
    op.table = def->name;
    op.row = std::move(row);
    ops.push_back(std::move(op));
  }
  return ForwardTransaction(system_, std::move(ops), "inserted");
}

Result<QueryResult> Session::ExecuteUpdate(const UpdateStmt& stmt) {
  return ForwardDml(system_, RowOp::Kind::kUpdate, stmt.table,
                    stmt.assignments, stmt.where.get(), "updated");
}

Result<QueryResult> Session::ExecuteDelete(const DeleteStmt& stmt) {
  return ForwardDml(system_, RowOp::Kind::kDelete, stmt.table, {},
                    stmt.where.get(), "deleted");
}

Result<QueryPlan> Session::Prepare(const std::string& sql) const {
  RCC_ASSIGN_OR_RETURN(auto select, ParseSelect(sql));
  return system_->cache()->Prepare(*select);
}

Status Session::VerifyConstraint(const QueryPlan& plan) const {
  CacheDbms* cache = system_->cache();
  BackendServer* backend = system_->backend();
  const UpdateLog& log = backend->log();
  SimTimeMs now = system_->Now();
  TxnTimestamp latest = backend->oracle().last_committed();

  // Determine, per input operand, the snapshot it would be served from if
  // the plan ran right now (re-evaluating the currency guards).
  std::map<InputOperandId, semantics::CopyState> sources;
  // One reader for the whole walk, so each region's guard verdict and its
  // as_of come from the same pinned snapshot.
  EventStream scratch;
  CacheDbms::Reader reader(cache);
  ExecContext ctx;
  ctx.reader = &reader;
  ctx.clock = backend->clock();
  ctx.events = &scratch;

  std::function<void(const PhysicalOp&)> walk = [&](const PhysicalOp& op) {
    if (op.kind == PhysOpKind::kSwitchUnion) {
      bool local = SwitchUnionIterator::EvaluateGuard(op, &ctx);
      TxnTimestamp as_of = latest;
      if (local) {
        // The guard passed, so the region is known.
        as_of = reader.Snapshot(op.guard_region)->as_of;
      }
      for (InputOperandId oid : op.children[0]->delivered.AllOperands()) {
        if (oid < plan.resolved.operands.size()) {
          semantics::CopyState cs;
          cs.table = plan.resolved.operands[oid].table->name;
          cs.as_of = as_of;
          sources[oid] = cs;
        }
      }
      return;  // don't descend: children share the decision
    }
    if (op.kind == PhysOpKind::kRemoteQuery) {
      for (InputOperandId oid : op.remote_operands) {
        if (oid < plan.resolved.operands.size()) {
          semantics::CopyState cs;
          cs.table = plan.resolved.operands[oid].table->name;
          cs.as_of = latest;
          sources[oid] = cs;
        }
      }
      return;
    }
    if (op.kind == PhysOpKind::kLocalScan && op.target.is_view) {
      // Unguarded local access (ablation mode).
      const ViewDef* view = cache->catalog().FindView(op.target.name);
      const RegionSnapshot* snap =
          view != nullptr ? reader.Snapshot(view->region) : nullptr;
      semantics::CopyState cs;
      cs.table = plan.resolved.operands[op.operand].table->name;
      cs.as_of = snap != nullptr ? snap->as_of : latest;
      sources[op.operand] = cs;
      return;
    }
    for (const auto& child : op.children) walk(*child);
  };
  walk(*plan.root);
  for (const auto& [stmt_ptr, sub] : plan.subplans) walk(*sub.root);

  for (const CcTuple& tuple : plan.resolved.constraint.tuples) {
    std::vector<semantics::CopyState> copies;
    for (InputOperandId oid : tuple.operands) {
      auto it = sources.find(oid);
      if (it != sources.end()) copies.push_back(it->second);
    }
    // Currency: every copy must be within the bound.
    for (const semantics::CopyState& cs : copies) {
      SimTimeMs staleness = semantics::CurrencyOf(log, cs.table, cs.as_of, now);
      if (staleness > tuple.bound_ms) {
        return Status::ConstraintViolation(
            "copy of " + cs.table + " is " + std::to_string(staleness) +
            "ms stale, bound is " + std::to_string(tuple.bound_ms) + "ms");
      }
    }
    // Consistency: the class must be attributable to one snapshot.
    if (!semantics::MutuallyConsistent(log, copies)) {
      return Status::ConstraintViolation(
          "consistency class " + tuple.ToString() +
          " spans incompatible snapshots");
    }
  }
  return Status::OK();
}

}  // namespace rcc
