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
};

void RewriteNode(Expr* e, RewriteState* st) {
  if (e->kind != ExprKind::kLiteral || e->literal_offset == Expr::kNoOffset) {
    return;
  }
  auto it = st->by_offset.find(e->literal_offset);
  if (it == st->by_offset.end()) return;
  e->kind = ExprKind::kParam;
  e->param_index = it->second;
  ++st->matched[it->second];
}

void RewriteExpr(Expr* e, RewriteState* st) {
  VisitNodes(e, [st](Expr* n) { RewriteNode(n, st); });
}

void RewriteOp(PhysicalOp* op, RewriteState* st) {
  if (op == nullptr) return;
  for (auto& e : op->seek_lo) RewriteExpr(e.get(), st);
  for (auto& e : op->seek_hi) RewriteExpr(e.get(), st);
  RewriteExpr(op->residual.get(), st);
  if (op->remote_stmt) {
    VisitStmtNodes(op->remote_stmt.get(),
                   [st](Expr* n) { RewriteNode(n, st); });
  }
  for (auto& a : op->remote_args) RewriteExpr(a.get(), st);
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
  return AnyNode(e, [](const Expr& n) {
    return n.kind == ExprKind::kLiteral && n.literal_offset == Expr::kNoOffset;
  });
}

/// Value-dependent planning that can change rows survives in two places:
/// seek bounds whose literals lack provenance, and scans of *partial*
/// materialized views (matched because this query's literal range fit the
/// view's column range — a different value could select outside the view).
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

bool ParameterizePlan(QueryPlan* plan, const std::vector<ParamSlot>& slots,
                      const Catalog& catalog) {
  RewriteState st;
  st.matched.assign(slots.size(), 0);
  for (size_t i = 0; i < slots.size(); ++i) st.by_offset[slots[i].offset] = i;
  RewriteOp(plan->root.get(), &st);
  for (auto& [stmt, sub] : plan->subplans) {
    (void)stmt;
    RewriteOp(sub.root.get(), &st);
  }

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
  return all_matched && generic;
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

std::string PlanCache::ContextKey(std::string_view text, DegradeMode degrade,
                                  bool timeordered, bool match_views) {
  std::string key;
  key.reserve(text.size() + 4);
  key.append(text);
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
  key.push_back(match_views ? 'v' : 'r');
  return key;
}

size_t PlanCache::ShardOf(std::string_view key) const {
  return std::hash<std::string_view>{}(key) % cfg_.shards;
}

void PlanCache::Count(bool hit, double start_ms) {
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  obs::Counter* counter = hit ? hits_counter_ : misses_counter_;
  if (counter != nullptr) counter->Add(1);
  if (lookup_ms_ != nullptr) lookup_ms_->Observe(NowMs() - start_ms);
}

bool PlanCache::Reusable(const PlanCacheEntry& e,
                         const std::vector<Value>& params) {
  if (e.parameterized) return true;
  // Value-bound: only an exact value match may reuse the plan. Types
  // already agree (the template's typed slots force it); compare values.
  if (params.size() != e.creation_values.size()) return false;
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i].type() != e.creation_values[i].type() ||
        params[i].Compare(e.creation_values[i]) != 0) {
      return false;
    }
  }
  return true;
}

template <typename Node>
std::optional<Node> PlanCache::Find(Level<Node>& level, const std::string& key,
                                    uint64_t version) {
  Shard<Node>& shard = *level[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return std::nullopt;
  if (it->second.entry->version != version) {
    shard.lru.erase(it->second.lru);
    shard.map.erase(it);
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru);
  return it->second;
}

template <typename Node>
void PlanCache::Put(Level<Node>& level, const std::string& key, Node node) {
  Shard<Node>& shard = *level[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.try_emplace(key);
  if (inserted) {
    shard.lru.push_front(key);
    node.lru = shard.lru.begin();
  } else {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru);
    node.lru = it->second.lru;
  }
  it->second = std::move(node);
  if (shard.map.size() > cfg_.capacity_per_shard) {
    shard.map.erase(shard.lru.back());
    shard.lru.pop_back();
  }
}

std::string PlanCache::TypedKey(std::string_view key,
                                const std::vector<Value>& params) {
  std::string out(key);
  out.push_back('\x1f');
  for (const Value& v : params) {
    out.push_back("nifs"[static_cast<int>(v.type())]);
  }
  return out;
}

PlanCache::LookupResult PlanCache::Lookup(std::string_view sql,
                                          DegradeMode degrade,
                                          bool timeordered) {
  const double start_ms = lookup_ms_ != nullptr ? NowMs() : 0;
  LookupResult out;
  out.version_at_lookup = version();

  // L1: exact raw text. The common case for fixed query pools; skips the
  // lexer entirely.
  const std::string l1_key = ContextKey(sql, degrade, timeordered, true);
  std::optional<L1Node> exact = Find(l1_, l1_key, out.version_at_lookup);
  if (exact) {
    Count(true, start_ms);
    out.hit = PlanCacheHit{std::move(exact->entry), std::move(exact->params)};
    return out;
  }

  // L2: normalized template.
  out.norm = NormalizeSql(sql);
  std::optional<L2Node> found;
  if (out.norm.ok) {
    found = Find(l2_, ContextKey(out.norm.text, degrade, timeordered, true),
                 out.version_at_lookup);
  }
  std::vector<Value> params;
  params.reserve(out.norm.slots.size());
  for (const ParamSlot& s : out.norm.slots) params.push_back(s.value);
  if (!found || !Reusable(*found->entry, params)) {
    Count(false, start_ms);
    return out;
  }
  // Promote to L1 so the next identical text skips the lexer.
  Put(l1_, l1_key, L1Node{found->entry, params, {}});
  Count(true, start_ms);
  out.hit = PlanCacheHit{std::move(found->entry), std::move(params)};
  return out;
}

PlanCache::LookupResult PlanCache::LookupTemplate(
    const std::string& key, const std::vector<Value>& params,
    const std::function<bool(const PlanCacheEntry&)>& fits) {
  const double start_ms = lookup_ms_ != nullptr ? NowMs() : 0;
  LookupResult out;
  out.version_at_lookup = version();
  std::optional<L2Node> found = Find(l2_, key, out.version_at_lookup);
  const bool hit =
      found && Reusable(*found->entry, params) && fits(*found->entry);
  Count(hit, start_ms);
  if (hit) out.hit = PlanCacheHit{std::move(found->entry), {}};
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
  std::vector<Value> params;
  params.reserve(norm.slots.size());
  for (const ParamSlot& s : norm.slots) params.push_back(s.value);
  Put(l2_, ContextKey(norm.text, degrade, timeordered, true),
      L2Node{frozen, {}});
  Put(l1_, ContextKey(raw_sql, degrade, timeordered, true),
      L1Node{frozen, std::move(params), {}});
}

void PlanCache::InsertTemplate(const std::string& key,
                               std::shared_ptr<PlanCacheEntry> entry,
                               uint64_t version_at_lookup) {
  if (version() != version_at_lookup) return;
  entry->version = version_at_lookup;
  Put(l2_, key, L2Node{std::move(entry), {}});
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
