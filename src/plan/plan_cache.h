#ifndef RCC_PLAN_PLAN_CACHE_H_
#define RCC_PLAN_PLAN_CACHE_H_

#include <atomic>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "exec/exec_context.h"
#include "obs/metrics.h"
#include "plan/physical.h"

namespace rcc {

/// One literal stripped out of the query text during normalization.
struct ParamSlot {
  /// Byte offset of the literal's token in the original text; matches
  /// Expr::literal_offset when the statement is parsed with
  /// ParseOptions::record_literal_offsets.
  size_t offset = 0;
  /// The literal's value in this particular query text.
  Value value;
};

/// Literal-stripped query text plus the extracted parameter slots.
///
/// Normalization rules (the cache-key anatomy, DESIGN.md §12):
///  - literal tokens become *typed* slots `?<n>i` / `?<n>f` / `?<n>s`, so
///    `SELECT 1`, `SELECT 1.0` and `SELECT '1'` normalize to distinct
///    templates (a plan built for an int literal is never reused for a
///    string);
///  - NULL is a keyword, not a literal token: it stays as text and is never
///    parameterized;
///  - identifiers are lowercased, whitespace is canonicalized;
///  - once the token CURRENCY is seen, slotting stops for the rest of the
///    statement: currency-clause bounds select the C&C constraint and hence
///    the plan, so they must stay in the key verbatim. (Conservative — any
///    literal after a currency clause also stays in the key, which only
///    reduces sharing, never correctness.)
struct NormalizedSql {
  bool ok = false;  // false: lexing failed; caller falls back to a full parse
  std::string text;
  std::vector<ParamSlot> slots;
};

NormalizedSql NormalizeSql(std::string_view sql);

/// An immutable cached plan. The QueryPlan is shared by every concurrent
/// execution (execution only reads it); all mutation (ParameterizePlan)
/// happens before the entry is published to the cache.
struct PlanCacheEntry {
  std::shared_ptr<const QueryPlan> plan;
  /// True: the plan is value-generic — every slot literal was rewritten to a
  /// kParam and no value-dependent planning decision that could change its
  /// rows (partial-view match, provenance-less seek bound) survives. False:
  /// value-bound — the entry only matches queries whose slot values equal
  /// creation_values exactly.
  bool parameterized = false;
  /// Some scan's access path was priced at a range on a slot. Rows stay
  /// exact at any values, but the path may not be the cheapest: the back end
  /// re-chooses it on each hit (AccessPathsHold). False for point lookups,
  /// which then pay nothing.
  bool range_priced = false;
  /// Slot values the plan was built from (also the params to bind when a
  /// value-bound entry hits: binding identical values is identical to the
  /// literals the plan was optimized with).
  std::vector<Value> creation_values;
  /// Statement text the plan was built from. The fleet router prices a
  /// peer's plan at the anchor's literals by planning this text on it, so
  /// Eq. 1 costs of a value-generic template compare like for like.
  std::string creation_sql;
  /// The normalized template of creation_sql (NormalizedSql::text): the
  /// entry's L2 key text. An L1 hit carries it too, so the fleet router
  /// hands the anchor's to every peer and lexes a routed text at most once.
  std::string template_text;
  /// Degrade mode the plan was created under. The cache key includes the
  /// mode, so on every legitimate hit this equals the session's current
  /// mode; executing with it is what makes the RCC_PLANCACHE_MUTATE build
  /// (key drops the mode) an observable stale-plan bug for the sim oracle.
  DegradeMode created_degrade = DegradeMode::kNone;
  bool created_timeordered = false;
  /// PlanCache version at creation; the entry is dead once the cache's
  /// version moves (catalog / statistics / view-set / region-health change).
  uint64_t version = 0;
};

/// A successful lookup: the entry plus the parameter values to bind for this
/// query text (slot order).
struct PlanCacheHit {
  std::shared_ptr<const PlanCacheEntry> entry;
  std::vector<Value> params;
};

/// Rewrites plan literals that came from parameter slots into kParam nodes
/// (matched by source byte offset; a slot can match several clones: seek
/// bound, residual, remote branch). True when the plan returns the right
/// rows at any slot values (see PlanCacheEntry::parameterized). A scan
/// whose access path was priced at a range literal stays value-generic:
/// the path's cost, not its rows, depends on the value.
bool ParameterizePlan(QueryPlan* plan, const std::vector<ParamSlot>& slots,
                      const Catalog& catalog);

/// Sharded LRU plan cache with two levels and versioned invalidation.
///
///  - L1: exact raw text (+ context) -> entry + captured params. A hit skips
///    even the lexer — the common case for fixed query pools.
///  - L2: normalized template (+ context) -> entry. A hit costs one lex pass;
///    the slot values become the bind parameters.
///
/// The context suffix is (degrade mode, timeordered flag, view matching):
/// the same SQL under SET DEGRADE NONE and ALWAYS are *different* cache keys,
/// because degrade mode changes run-time behavior (refusal vs degraded
/// serve); view matching off keys the fleet's all-remote backend-tier plan
/// apart from the view-matched one. Invalidation is a single version bump:
/// entries are validated lazily on lookup and dropped when their version is
/// stale.
///
/// Thread safety: shards carry their own mutexes; entries are immutable
/// shared_ptrs, so a hit handed to one session stays valid while another
/// session invalidates or evicts.
class PlanCache {
 public:
  struct Config {
    size_t shards = 8;
    size_t capacity_per_shard = 128;
  };

  PlanCache() : PlanCache(Config{}) {}
  explicit PlanCache(Config cfg);

  struct LookupResult {
    std::optional<PlanCacheHit> hit;
    /// Filled when normalization ran (every L1 miss); reused by Insert so
    /// the miss path lexes exactly once.
    NormalizedSql norm;
    /// Cache version observed at lookup time; Insert refuses to publish a
    /// plan if the version moved while the caller was optimizing.
    uint64_t version_at_lookup = 0;
  };

  /// The view-matched plan for raw text `sql`: L1, then (one lex) L2, whose
  /// hit is promoted into L1.
  LookupResult Lookup(std::string_view sql, DegradeMode degrade,
                      bool timeordered);

  /// Publishes a freshly built plan under both levels. `norm` and
  /// `version_at_lookup` come from the Lookup that missed.
  void Insert(const NormalizedSql& norm, std::string_view raw_sql,
              DegradeMode degrade, bool timeordered,
              std::shared_ptr<PlanCacheEntry> entry,
              uint64_t version_at_lookup);

  /// The template level alone, for a caller that already holds a template
  /// key and the slot values it binds: no raw text, no lexing, and L1 is
  /// neither read nor promoted into. The fleet router's peers and backend
  /// tier key by ContextKey on the anchor entry's template_text, the back
  /// end by TypedKey. A found entry hits only if it may run with `params`
  /// and `fits` accepts it (called outside any lock); a refusal counts as a
  /// miss. A hit leaves `hit->params` empty: the caller binds its own.
  LookupResult LookupTemplate(
      const std::string& key, const std::vector<Value>& params,
      const std::function<bool(const PlanCacheEntry&)>& fits);
  void InsertTemplate(const std::string& key,
                      std::shared_ptr<PlanCacheEntry> entry,
                      uint64_t version_at_lookup);

  /// `text` (raw at L1, a normalized template at L2) keyed under its
  /// context.
  static std::string ContextKey(std::string_view text, DegradeMode degrade,
                                bool timeordered, bool match_views);
  /// A back-end template key typed by the values bound to it, so a slot's
  /// type is what it carries.
  static std::string TypedKey(std::string_view key,
                              const std::vector<Value>& params);

  /// Drops every cached plan (lazily): catalog, statistics, view-set or
  /// region-health changes call this.
  void Invalidate();

  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }
  /// Live entries across both levels (diagnostics; takes every shard lock).
  size_t size() const;

  /// Optional registry-backed instruments (hit/miss/invalidation counters,
  /// lookup latency histogram in ms).
  void SetInstruments(obs::Counter* hits, obs::Counter* misses,
                      obs::Counter* invalidations, obs::Histogram* lookup_ms);

 private:
  struct L2Node {
    std::shared_ptr<const PlanCacheEntry> entry;
    std::list<std::string>::iterator lru;
  };
  struct L1Node {
    std::shared_ptr<const PlanCacheEntry> entry;
    std::vector<Value> params;
    std::list<std::string>::iterator lru;
  };
  template <typename Node>
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, Node> map;
    std::list<std::string> lru;  // front = most recent
  };
  template <typename Node>
  using Level = std::vector<std::unique_ptr<Shard<Node>>>;

  /// Whether `e` may run with `params`.
  static bool Reusable(const PlanCacheEntry& e,
                       const std::vector<Value>& params);
  size_t ShardOf(std::string_view key) const;
  void Count(bool hit, double start_ms);
  /// The live node under `key`, made most recent; a stale one is dropped.
  template <typename Node>
  std::optional<Node> Find(Level<Node>& level, const std::string& key,
                           uint64_t version);
  /// Inserts or replaces `key`'s node, most recent first, evicting the least
  /// recent node past capacity.
  template <typename Node>
  void Put(Level<Node>& level, const std::string& key, Node node);

  Config cfg_;
  Level<L1Node> l1_;
  Level<L2Node> l2_;
  std::atomic<uint64_t> version_{1};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> invalidations_{0};
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* invalidations_counter_ = nullptr;
  obs::Histogram* lookup_ms_ = nullptr;
};

}  // namespace rcc

#endif  // RCC_PLAN_PLAN_CACHE_H_
