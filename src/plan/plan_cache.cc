#include "plan/plan_cache.h"

#include <chrono>
#include <functional>

#include "common/strings.h"
#include "sql/lexer.h"

namespace rcc {

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

char SlotTypeChar(TokenType t) {
  switch (t) {
    case TokenType::kInt:
      return 'i';
    case TokenType::kDouble:
      return 'f';
    default:
      return 's';
  }
}

}  // namespace

NormalizedSql NormalizeSql(std::string_view sql) {
  NormalizedSql out;
  auto tokens = Tokenize(sql);
  if (!tokens.ok()) return out;  // ok stays false; caller takes the slow path
  out.text.reserve(sql.size());
  bool currency_seen = false;
  for (const Token& t : *tokens) {
    if (t.type == TokenType::kEnd) break;
    if (!out.text.empty()) out.text.push_back(' ');
    switch (t.type) {
      case TokenType::kInt:
      case TokenType::kDouble:
      case TokenType::kString: {
        if (!currency_seen) {
          out.text.push_back('?');
          out.text += std::to_string(out.slots.size());
          out.text.push_back(SlotTypeChar(t.type));
          ParamSlot slot;
          slot.offset = t.offset;
          slot.value = t.type == TokenType::kInt ? Value::Int(t.int_value)
                       : t.type == TokenType::kDouble
                           ? Value::Double(t.double_value)
                           : Value::Str(t.text);
          out.slots.push_back(std::move(slot));
        } else if (t.type == TokenType::kString) {
          out.text.push_back('\'');
          out.text += t.text;
          out.text.push_back('\'');
        } else {
          out.text += t.text;
        }
        break;
      }
      case TokenType::kIdent: {
        std::string lower = ToLower(t.text);
        if (lower == "currency") currency_seen = true;
        out.text += lower;
        break;
      }
      default:
        out.text += t.text;
        break;
    }
  }
  out.ok = true;
  return out;
}

// ---------------------------------------------------------------------------
// ParameterizePlan

namespace {

struct RewriteState {
  // offset -> slot index
  std::unordered_map<size_t, size_t> by_offset;
  std::vector<size_t> matched;
  size_t rewritten = 0;
};

void RewriteStmt(SelectStmt* s, RewriteState* st);

void RewriteExpr(Expr* e, RewriteState* st) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kLiteral && e->literal_offset != Expr::kNoOffset) {
    auto it = st->by_offset.find(e->literal_offset);
    if (it != st->by_offset.end()) {
      e->kind = ExprKind::kParam;
      e->param_index = it->second;
      ++st->matched[it->second];
      ++st->rewritten;
    }
  }
  RewriteExpr(e->left.get(), st);
  RewriteExpr(e->right.get(), st);
  for (auto& a : e->args) RewriteExpr(a.get(), st);
  if (e->subquery) RewriteStmt(e->subquery.get(), st);
}

void RewriteStmt(SelectStmt* s, RewriteState* st) {
  if (s == nullptr) return;
  for (auto& item : s->items) RewriteExpr(item.expr.get(), st);
  for (auto& ref : s->from) {
    if (ref.subquery) RewriteStmt(ref.subquery.get(), st);
  }
  RewriteExpr(s->where.get(), st);
  for (auto& g : s->group_by) RewriteExpr(g.get(), st);
  RewriteExpr(s->having.get(), st);
  for (auto& o : s->order_by) RewriteExpr(o.expr.get(), st);
}

void RewriteOp(PhysicalOp* op, RewriteState* st) {
  if (op == nullptr) return;
  for (auto& e : op->seek_lo) RewriteExpr(e.get(), st);
  for (auto& e : op->seek_hi) RewriteExpr(e.get(), st);
  RewriteExpr(op->residual.get(), st);
  if (op->remote_stmt) RewriteStmt(op->remote_stmt.get(), st);
  for (auto& e : op->exprs) RewriteExpr(e.get(), st);
  for (auto& e : op->exprs2) RewriteExpr(e.get(), st);
  for (auto& a : op->aggs) RewriteExpr(a.arg.get(), st);
  for (auto& k : op->sort_keys) RewriteExpr(k.expr.get(), st);
  for (auto& c : op->children) RewriteOp(c.get(), st);
}

/// True when `e` contains a literal with no recorded source position. After
/// rewriting, such a node in a seek bound means the optimizer synthesized it
/// from something we can't tie to a slot — reuse with other values would keep
/// a stale seek, so the entry must stay value-bound.
bool HasProvenancelessLiteral(const Expr* e) {
  if (e == nullptr) return false;
  if (e->kind == ExprKind::kLiteral && e->literal_offset == Expr::kNoOffset) {
    return true;
  }
  if (HasProvenancelessLiteral(e->left.get())) return true;
  if (HasProvenancelessLiteral(e->right.get())) return true;
  for (const auto& a : e->args) {
    if (HasProvenancelessLiteral(a.get())) return true;
  }
  return false;
}

/// Value-dependent planning survives in two places: seek bounds whose
/// literals lack provenance, and scans of *partial* materialized views
/// (matched because this query's literal range fit the view's column range —
/// a different value could select outside the view).
bool ValueGenericOp(const PhysicalOp* op, const Catalog& catalog) {
  if (op == nullptr) return true;
  for (const auto& e : op->seek_lo) {
    if (HasProvenancelessLiteral(e.get())) return false;
  }
  for (const auto& e : op->seek_hi) {
    if (HasProvenancelessLiteral(e.get())) return false;
  }
  if (op->kind == PhysOpKind::kLocalScan && op->target.is_view) {
    const ViewDef* def = catalog.FindView(op->target.name);
    if (def == nullptr || !def->predicate.empty()) return false;
  }
  for (const auto& c : op->children) {
    if (!ValueGenericOp(c.get(), catalog)) return false;
  }
  return true;
}

}  // namespace

ParameterizeOutcome ParameterizePlan(QueryPlan* plan,
                                     const std::vector<ParamSlot>& slots,
                                     const Catalog& catalog) {
  ParameterizeOutcome out;
  RewriteState st;
  st.matched.assign(slots.size(), 0);
  for (size_t i = 0; i < slots.size(); ++i) st.by_offset[slots[i].offset] = i;
  RewriteOp(plan->root.get(), &st);
  for (auto& [stmt, sub] : plan->subplans) {
    (void)stmt;
    RewriteOp(sub.root.get(), &st);
  }
  out.rewritten = st.rewritten;

  // Eligibility for value-generic reuse: every slot surfaced in the plan
  // (an unmatched slot means its value was absorbed into a planning
  // decision), and no value-dependent structure survives.
  bool all_matched = true;
  for (size_t m : st.matched) {
    if (m == 0) all_matched = false;
  }
  bool generic = ValueGenericOp(plan->root.get(), catalog);
  for (const auto& [stmt, sub] : plan->subplans) {
    (void)stmt;
    if (!ValueGenericOp(sub.root.get(), catalog)) generic = false;
  }
  out.parameterized = all_matched && generic;
  return out;
}

// ---------------------------------------------------------------------------
// PlanCache

PlanCache::PlanCache(Config cfg) : cfg_(cfg) {
  if (cfg_.shards == 0) cfg_.shards = 1;
  if (cfg_.capacity_per_shard == 0) cfg_.capacity_per_shard = 1;
  l1_.reserve(cfg_.shards);
  l2_.reserve(cfg_.shards);
  for (size_t i = 0; i < cfg_.shards; ++i) {
    l1_.push_back(std::make_unique<Shard<L1Node>>());
    l2_.push_back(std::make_unique<Shard<L2Node>>());
  }
}

std::string PlanCache::MakeKey(std::string_view text, DegradeMode degrade,
                               bool timeordered) {
  std::string key(text);
  key.push_back('\x1f');
#ifdef RCC_PLANCACHE_MUTATE
  // Planted bug (conformance-oracle target): the degrade mode is dropped
  // from the key, so a plan created under SET DEGRADE NONE collides with —
  // and is served under — ALWAYS/BOUNDED, and vice versa.
  (void)degrade;
  key.push_back('x');
#else
  switch (degrade) {
    case DegradeMode::kNone:
      key.push_back('n');
      break;
    case DegradeMode::kBounded:
      key.push_back('b');
      break;
    case DegradeMode::kAlways:
      key.push_back('a');
      break;
  }
#endif
  key.push_back(timeordered ? 't' : '-');
  return key;
}

size_t PlanCache::ShardOf(std::string_view key) const {
  return std::hash<std::string_view>{}(key) % cfg_.shards;
}

PlanCache::LookupResult PlanCache::Lookup(
    std::string_view sql, DegradeMode degrade, bool timeordered,
    const std::vector<Value>* priced_at) {
  const double start_ms = lookup_ms_ != nullptr ? NowMs() : 0;
  LookupResult out;
  out.version_at_lookup = version();

  auto record_hit = [&](std::shared_ptr<const PlanCacheEntry> entry,
                        std::vector<Value> params) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (hits_counter_ != nullptr) hits_counter_->Add(1);
    if (lookup_ms_ != nullptr) lookup_ms_->Observe(NowMs() - start_ms);
    out.hit = PlanCacheHit{std::move(entry), std::move(params)};
  };
  auto priced = [&](const PlanCacheEntry& e) {
    return priced_at == nullptr || !e.parameterized ||
           e.creation_values == *priced_at;
  };
  auto record_miss = [&]() {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (misses_counter_ != nullptr) misses_counter_->Add(1);
    if (lookup_ms_ != nullptr) lookup_ms_->Observe(NowMs() - start_ms);
  };

  // L1: exact raw text. The common case for fixed query pools; skips the
  // lexer entirely.
  const std::string l1_key = MakeKey(sql, degrade, timeordered);
  {
    Shard<L1Node>& shard = *l1_[ShardOf(l1_key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(l1_key);
    if (it != shard.map.end() &&
        it->second.entry->version != out.version_at_lookup) {
      shard.lru.erase(it->second.lru);
      shard.map.erase(it);
    } else if (it != shard.map.end() && priced(*it->second.entry)) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru);
      record_hit(it->second.entry, it->second.params);
      return out;
    }
  }

  // L2: normalized template.
  out.norm = NormalizeSql(sql);
  if (!out.norm.ok) {
    record_miss();
    return out;
  }
  const std::string l2_key = MakeKey(out.norm.text, degrade, timeordered);
  std::shared_ptr<const PlanCacheEntry> entry;
  {
    Shard<L2Node>& shard = *l2_[ShardOf(l2_key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(l2_key);
    if (it != shard.map.end()) {
      if (it->second.entry->version == out.version_at_lookup) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru);
        entry = it->second.entry;
      } else {
        shard.lru.erase(it->second.lru);
        shard.map.erase(it);
      }
    }
  }
  if (entry == nullptr || !priced(*entry)) {
    record_miss();
    return out;
  }
  std::vector<Value> params;
  params.reserve(out.norm.slots.size());
  for (const ParamSlot& s : out.norm.slots) params.push_back(s.value);
  if (!entry->parameterized) {
    // Value-bound: only an exact value match may reuse the plan. Types
    // already agree (the template's typed slots force it); compare values.
    if (params.size() != entry->creation_values.size()) {
      record_miss();
      return out;
    }
    for (size_t i = 0; i < params.size(); ++i) {
      if (params[i].type() != entry->creation_values[i].type() ||
          params[i].Compare(entry->creation_values[i]) != 0) {
        record_miss();
        return out;
      }
    }
  }
  // Promote to L1 so the next identical text skips the lexer.
  {
    Shard<L1Node>& shard = *l1_[ShardOf(l1_key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.map.try_emplace(l1_key);
    if (inserted) {
      shard.lru.push_front(l1_key);
      it->second.lru = shard.lru.begin();
      it->second.entry = entry;
      it->second.params = params;
      if (shard.map.size() > cfg_.capacity_per_shard) {
        shard.map.erase(shard.lru.back());
        shard.lru.pop_back();
      }
    } else {
      it->second.entry = entry;
      it->second.params = params;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru);
    }
  }
  record_hit(std::move(entry), std::move(params));
  return out;
}

void PlanCache::Insert(const NormalizedSql& norm, std::string_view raw_sql,
                       DegradeMode degrade, bool timeordered,
                       std::shared_ptr<PlanCacheEntry> entry,
                       uint64_t version_at_lookup) {
  if (!norm.ok || entry == nullptr) return;
  // The catalog moved while this plan was being built: it may already be
  // stale, so execute it but never publish it.
  if (version() != version_at_lookup) return;
  entry->version = version_at_lookup;
  std::shared_ptr<const PlanCacheEntry> frozen = std::move(entry);

  const std::string l2_key = MakeKey(norm.text, degrade, timeordered);
  {
    Shard<L2Node>& shard = *l2_[ShardOf(l2_key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.map.try_emplace(l2_key);
    if (inserted) {
      shard.lru.push_front(l2_key);
      it->second.lru = shard.lru.begin();
    } else {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru);
    }
    it->second.entry = frozen;
    if (shard.map.size() > cfg_.capacity_per_shard) {
      shard.map.erase(shard.lru.back());
      shard.lru.pop_back();
    }
  }

  std::vector<Value> params;
  params.reserve(norm.slots.size());
  for (const ParamSlot& s : norm.slots) params.push_back(s.value);
  const std::string l1_key = MakeKey(raw_sql, degrade, timeordered);
  {
    Shard<L1Node>& shard = *l1_[ShardOf(l1_key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.map.try_emplace(l1_key);
    if (inserted) {
      shard.lru.push_front(l1_key);
      it->second.lru = shard.lru.begin();
    } else {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru);
    }
    it->second.entry = frozen;
    it->second.params = std::move(params);
    if (shard.map.size() > cfg_.capacity_per_shard) {
      shard.map.erase(shard.lru.back());
      shard.lru.pop_back();
    }
  }
}

void PlanCache::Invalidate() {
  version_.fetch_add(1, std::memory_order_acq_rel);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  if (invalidations_counter_ != nullptr) invalidations_counter_->Add(1);
}

size_t PlanCache::size() const {
  size_t n = 0;
  for (const auto& s : l1_) {
    std::lock_guard<std::mutex> lock(s->mu);
    n += s->map.size();
  }
  for (const auto& s : l2_) {
    std::lock_guard<std::mutex> lock(s->mu);
    n += s->map.size();
  }
  return n;
}

void PlanCache::SetInstruments(obs::Counter* hits, obs::Counter* misses,
                               obs::Counter* invalidations,
                               obs::Histogram* lookup_ms) {
  hits_counter_ = hits;
  misses_counter_ = misses;
  invalidations_counter_ = invalidations;
  lookup_ms_ = lookup_ms;
}

}  // namespace rcc
