#include "backend/backend_server.h"

#include "common/strings.h"
#include "exec/event_stream.h"
#include "semantics/resolver.h"

namespace rcc {

Status BackendServer::CreateTable(const TableDef& def) {
  RCC_RETURN_NOT_OK(catalog_.AddTable(def));
  std::vector<size_t> key =
      Catalog::ResolveColumns(def.schema, def.clustered_key);
  auto table = std::make_unique<Table>(def.name, def.schema, std::move(key));
  for (const IndexDef& idx : def.secondary_indexes) {
    std::vector<size_t> cols = Catalog::ResolveColumns(def.schema, idx.columns);
    RCC_RETURN_NOT_OK(table->CreateSecondaryIndex(idx.name, std::move(cols)));
  }
  tables_[ToLower(def.name)] = std::move(table);
  plans_.Invalidate();
  return Status::OK();
}

Status BackendServer::BulkLoad(const std::string& table_name,
                               const std::vector<Row>& rows) {
  Table* table = mutable_table(table_name);
  if (table == nullptr) {
    return Status::NotFound("table " + table_name + " not found");
  }
  for (const Row& row : rows) {
    RCC_RETURN_NOT_OK(table->Insert(row));
  }
  return RefreshStats(table_name);
}

Status BackendServer::RefreshStats(const std::string& table_name) {
  const Table* table = this->table(table_name);
  if (table == nullptr) {
    return Status::NotFound("table " + table_name + " not found");
  }
  catalog_.SetStats(table_name, ComputeTableStats(*table));
  plans_.Invalidate();
  return Status::OK();
}

Result<TxnTimestamp> BackendServer::ExecuteTransaction(
    std::vector<RowOp> ops) {
  // Apply to master tables first (strict 2PL with a single writer collapses
  // to immediate application); abort-free by validating before applying.
  for (RowOp& op : ops) {
    Table* table = mutable_table(op.table);
    if (table == nullptr) {
      return Status::NotFound("table " + op.table + " not found");
    }
    switch (op.kind) {
      case RowOp::Kind::kInsert:
        RCC_RETURN_NOT_OK(table->Insert(op.row));
        op.key = table->KeyOf(op.row);
        break;
      case RowOp::Kind::kUpdate: {
        // The logged key is the *pre-image* primary key: replicas use it to
        // find the row this update replaces. Writers that didn't set it are
        // declaring the key unchanged; a key-changing update is applied as
        // delete(old) + insert(new) at the master.
        TableKey new_key = table->KeyOf(op.row);
        if (op.key.empty()) op.key = new_key;
        if (op.key != new_key) {
          if (table->Get(op.key) == nullptr) {
            return Status::NotFound("update pre-image not found in " +
                                    op.table);
          }
          RCC_RETURN_NOT_OK(table->Delete(op.key));
          RCC_RETURN_NOT_OK(table->Insert(op.row));
        } else {
          RCC_RETURN_NOT_OK(table->Update(op.row));
        }
        break;
      }
      case RowOp::Kind::kDelete:
        RCC_RETURN_NOT_OK(table->Delete(op.key));
        break;
    }
  }
  CommittedTxn txn;
  txn.commit_time = clock_->Now();
  txn.id = oracle_.NextCommit(txn.commit_time);
  txn.ops = std::move(ops);
  TxnTimestamp id = txn.id;
  if (commit_observer_) commit_observer_(txn);
  log_.Append(std::move(txn));
  return id;
}

Result<ExecutedQuery> BackendServer::Execute(const BackendCall& call) {
  // A hit re-chooses each range-priced access path at these values; a
  // choice that flips makes it a miss, and the new plan replaces the entry.
  const std::string key = PlanCache::TypedKey(call.tmpl.key, call.params);
  PlanCache::LookupResult found = plans_.LookupTemplate(
      key, call.params, [&](const PlanCacheEntry& e) {
        return !e.range_priced ||
               AccessPathsHold(*e.plan, call.params, catalog_, costs_);
      });
  std::shared_ptr<const PlanCacheEntry> entry;
  if (found.hit) {
    entry = std::move(found.hit->entry);
  } else {
    RCC_ASSIGN_OR_RETURN(entry, Plan(call, key, found.version_at_lookup));
  }
  EventStream events;
  ExecContext ctx;
  ctx.reader = this;
  ctx.clock = clock_;
  ctx.events = &events;
  ctx.params = &call.params;
  return ExecutePlan(*entry->plan, &ctx);
}

Result<std::shared_ptr<const PlanCacheEntry>> BackendServer::Plan(
    const BackendCall& call, const std::string& key, uint64_t version) {
  // Bind each slot as a literal stamped with its slot number as offset, so
  // ParameterizePlan finds every site a value reached. (A slot without a
  // value stays a parameter and fails at execution as unbound.)
  std::unique_ptr<SelectStmt> stmt = CloneSelectStmt(*call.tmpl.stmt);
  VisitStmtNodes(stmt.get(), [&](Expr* e) {
    if (e->kind != ExprKind::kParam || e->param_index >= call.params.size()) {
      return;
    }
    e->kind = ExprKind::kLiteral;
    e->literal = call.params[e->param_index];
    e->literal_offset = e->param_index;
  });
  RCC_ASSIGN_OR_RETURN(ResolvedQuery resolved, ResolveQuery(*stmt, catalog_));
  OptimizerOptions opts;
  opts.mode = PlanMode::kBackend;
  opts.costs = costs_;
  RCC_ASSIGN_OR_RETURN(QueryPlan plan,
                       Optimize(std::move(resolved), catalog_, opts));
  std::vector<ParamSlot> slots(call.params.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    slots[i] = ParamSlot{i, call.params[i]};
  }
  auto entry = std::make_shared<PlanCacheEntry>();
  entry->parameterized = ParameterizePlan(&plan, slots, catalog_);
  entry->range_priced = HasRangePricedScan(plan);
  entry->creation_values = call.params;
  entry->plan = std::make_shared<const QueryPlan>(std::move(plan));
  // A value-bound plan runs but is not kept: the next call of its template
  // with other values re-plans either way, and replacing the entry on every
  // such call cost more than the rare exact repeat saved.
  if (entry->parameterized) {
    plans_.InsertTemplate(key, entry, version);
  }
  return std::shared_ptr<const PlanCacheEntry>(std::move(entry));
}

Result<ExecutedQuery> BackendServer::ExecuteQuery(const SelectStmt& stmt) {
  return ExecuteQuery(CloneSelectStmt(stmt));
}

Result<ExecutedQuery> BackendServer::ExecuteQuery(
    std::unique_ptr<SelectStmt> stmt) {
  std::vector<std::unique_ptr<Expr>> args;
  QueryTemplate tmpl =
      MakeTemplate(std::move(stmt), /*outer_refs=*/false, &args);
  std::vector<Value> params;
  params.reserve(args.size());
  for (const auto& arg : args) {
    RCC_ASSIGN_OR_RETURN(Value v, EvalExpr(*arg, EvalScope{}, nullptr));
    params.push_back(std::move(v));
  }
  return Execute(BackendCall{tmpl, params});
}

void BackendServer::RegisterRegionHeartbeat(const RegionDef& region,
                                            SimulationScheduler* scheduler) {
  heartbeat_.Beat(region.cid, clock_->Now());
  RegionId cid = region.cid;
  scheduler->SchedulePeriodic(
      clock_->Now() + region.heartbeat_interval, region.heartbeat_interval,
      [this, cid](SimTimeMs now) { heartbeat_.Beat(cid, now); });
}

const Table* BackendServer::table(std::string_view name) const {
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

Table* BackendServer::mutable_table(std::string_view name) {
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

}  // namespace rcc
