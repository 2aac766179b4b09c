#include "sim/oracle.h"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

#include "common/strings.h"
#include "exec/exec_context.h"
#include "semantics/model.h"

namespace rcc {
namespace sim {

namespace {

/// Per-region state derived from the install/health event stream — the
/// oracle's independent reconstruction of what each replica reflected.
struct RegionState {
  bool known = false;
  TxnTimestamp as_of = kInitialTimestamp;
  bool hb_known = false;
  SimTimeMs hb = -1;
  RegionHealth health = RegionHealth::kHealthy;

  bool certified() const {
    return known && hb_known && HeartbeatValid(health);
  }
};

/// A serve buffered until its query's answer event arrives (which carries
/// the constraint). `candidates` starts with the region snapshot at serve
/// time and grows with every snapshot the region installs before the answer:
/// in serial mode the retry policy advances the scheduler mid-query, so the
/// rows of a local serve may legitimately come from any of those snapshots.
struct ServeRec {
  HistoryEvent ev;
  TxnTimestamp as_of_at_serve = kInitialTimestamp;
  std::vector<TxnTimestamp> candidates;
};

struct PendingQuery {
  std::vector<ServeRec> serves;
  /// Index into `serves` of the one serve of each operand
  /// (operand-served-once).
  std::map<InputOperandId, size_t> operand_serve;
  /// Guard probes observed for this query (R6): a refusal is only
  /// unjustifiable when at least one guard probed a certified local branch
  /// and none of them saw a withdrawn heartbeat.
  int guard_probes = 0;
  bool guards_all_known = true;
  /// Heartbeat values this query validly claimed per region, as
  /// (hb_known, hb) pairs. Under MVCC a query that has served local rows
  /// stays pinned to that region snapshot, so a later probe may re-see a
  /// heartbeat the install stream has since superseded — acceptable exactly
  /// when the query itself claimed it before (the first claim per region
  /// must match the install stream).
  std::map<RegionId, std::vector<std::pair<bool, SimTimeMs>>> claimed;
  /// First local-serve snapshot epoch per region (structural R4): every
  /// local serve of one region within one query must come from the same
  /// published snapshot.
  std::map<RegionId, uint64_t> serve_epoch;
  /// Fleet dispatch decision for this query, when a route event preceded
  /// its guard/serve/answer events (route-serve-node).
  bool routed = false;
  int route_node = 0;
  bool route_backend = false;
};

struct SessionState {
  bool timeordered = false;
  SimTimeMs floor = -1;
};

/// Tries every combination of per-serve snapshot candidates (one choice per
/// serve — operands produced by one serve share its snapshot) against
/// semantics::MutuallyConsistent. Capped: the candidate sets are tiny (one
/// entry plus mid-query installs), so the cap only guards degenerate input.
bool AnyChoiceConsistent(
    const UpdateLog& log,
    const std::vector<std::pair<const ServeRec*, std::vector<std::string>>>&
        groups) {
  int budget = 256;
  std::vector<semantics::CopyState> copies;
  std::function<bool(size_t)> rec = [&](size_t i) -> bool {
    if (budget-- <= 0) return false;
    if (i == groups.size()) return semantics::MutuallyConsistent(log, copies);
    for (TxnTimestamp as_of : groups[i].first->candidates) {
      size_t mark = copies.size();
      for (const std::string& table : groups[i].second) {
        copies.push_back({table, as_of});
      }
      if (rec(i + 1)) return true;
      copies.resize(mark);
    }
    return false;
  };
  return rec(0);
}

}  // namespace

std::string Violation::ToString() const {
  return StrPrintf("[%s] query=%llu seq=%llu: %s", rule.c_str(),
                   static_cast<unsigned long long>(query_id),
                   static_cast<unsigned long long>(seq), detail.c_str());
}

std::string OracleReport::Summary() const {
  std::string out = StrPrintf(
      "oracle: %lld answers, %lld guards, %lld serves, %lld routes checked; "
      "%lld operands uncovered; %zu violations",
      static_cast<long long>(answers_checked),
      static_cast<long long>(guards_checked),
      static_cast<long long>(serves_checked),
      static_cast<long long>(routes_checked),
      static_cast<long long>(operands_uncovered), violations.size());
  for (const Violation& v : violations) {
    out += "\n  " + v.ToString();
  }
  return out;
}

OracleReport CheckHistory(const History& history) {
  OracleReport report;
  UpdateLog shadow;
  TxnTimestamp latest = kInitialTimestamp;
  std::map<RegionId, RegionState> regions;
  std::map<uint64_t, PendingQuery> pending;
  std::map<uint64_t, SessionState> sessions;
  /// Node that first installed each region (node-region-binding). Region ids
  /// are fleet-unique by construction, so one owner per region is the
  /// topology invariant every cross-node rule rests on.
  std::map<RegionId, int> region_owner;

  auto violate = [&report](const char* rule, uint64_t query, uint64_t seq,
                           std::string detail) {
    Violation v;
    v.rule = rule;
    v.query_id = query;
    v.seq = seq;
    v.detail = std::move(detail);
    report.violations.push_back(std::move(v));
  };

  // First event naming a (non-backend) region binds it to that node; every
  // later event must agree. kBackendRegion is shared by construction (remote
  // fetches and coverage-failure probes from any node) and is skipped.
  auto check_owner = [&](RegionId region, int node, uint64_t query,
                         uint64_t seq) {
    if (region == kBackendRegion) return;
    auto [it, first] = region_owner.emplace(region, node);
    if (!first && it->second != node) {
      violate("node-region-binding", query, seq,
              StrPrintf("region %d event from node %d, but node %d owns the "
                        "region",
                        static_cast<int>(region), node, it->second));
    }
  };

  for (const HistoryEvent& ev : history.events) {
    switch (ev.kind) {
      case HistoryEvent::Kind::kCommit: {
        // Shadow update history: one skeletal op per touched table is all the
        // semantics functions consult (they ask *which* tables a transaction
        // modified, never the row images).
        CommittedTxn txn;
        txn.id = ev.txn;
        txn.commit_time = ev.at;
        for (const std::string& table : ev.tables) {
          RowOp op;
          op.table = table;
          txn.ops.push_back(std::move(op));
        }
        shadow.Append(std::move(txn));
        latest = ev.txn;
        break;
      }
      case HistoryEvent::Kind::kInstall: {
        check_owner(ev.region, ev.node, 0, ev.seq);
        RegionState& r = regions[ev.region];
        r.known = true;
        r.as_of = ev.as_of;
        r.hb_known = ev.heartbeat_known;
        r.hb = ev.heartbeat;
        // R4 allowance: a mid-query install becomes a snapshot candidate for
        // every in-flight local serve of this region.
        for (auto& [qid, pq] : pending) {
          for (ServeRec& s : pq.serves) {
            if (s.ev.local && s.ev.region == ev.region) {
              s.candidates.push_back(ev.as_of);
            }
          }
        }
        break;
      }
      case HistoryEvent::Kind::kHealth:
        check_owner(ev.region, ev.node, 0, ev.seq);
        regions[ev.region].health = ev.health_to;
        break;
      case HistoryEvent::Kind::kSession: {
        SessionState& s = sessions[ev.session];
        s.timeordered = ev.timeordered;
        s.floor = -1;
        break;
      }
      case HistoryEvent::Kind::kGuard: {
        ++report.guards_checked;
        PendingQuery& gq = pending[ev.query];
        check_owner(ev.region, ev.node, ev.query, ev.seq);
        if (gq.routed && ev.node != gq.route_node) {
          violate("route-serve-node", ev.query, ev.seq,
                  StrPrintf("guard probe ran on node %d, query was routed to "
                            "node %d",
                            ev.node, gq.route_node));
        }
        // R2: the heartbeat the guard claims must be the one the install
        // stream last published — withdrawn while quarantined/resyncing —
        // or one this query already validly claimed for the region: once the
        // query has served local rows, its MVCC pin freezes the region at
        // that snapshot, so a later probe legitimately re-sees the pinned
        // heartbeat past newer installs. The first claim per (query, region)
        // has no precedent, so it must match the install stream — a frozen
        // publication (the mvcc-mutate bug) is still caught on every fresh
        // query.
        auto rit = regions.find(ev.region);
        bool derived_known = rit != regions.end() && rit->second.certified();
        auto& claims = gq.claimed[ev.region];
        bool matches_current =
            derived_known == ev.heartbeat_known &&
            (!derived_known || rit->second.hb == ev.heartbeat);
        bool matches_prior = false;
        for (const auto& [known, hb] : claims) {
          if (known == ev.heartbeat_known && (!known || hb == ev.heartbeat)) {
            matches_prior = true;
            break;
          }
        }
        if (!matches_current && !matches_prior) {
          if (derived_known != ev.heartbeat_known) {
            violate("heartbeat-divergence", ev.query, ev.seq,
                    StrPrintf("guard saw heartbeat_known=%d for region %d, "
                              "install stream says %d",
                              ev.heartbeat_known ? 1 : 0,
                              static_cast<int>(ev.region),
                              derived_known ? 1 : 0));
          } else {
            violate("heartbeat-divergence", ev.query, ev.seq,
                    StrPrintf("guard saw heartbeat %lld for region %d, install "
                              "stream published %lld",
                              static_cast<long long>(ev.heartbeat),
                              static_cast<int>(ev.region),
                              static_cast<long long>(rit->second.hb)));
          }
        } else {
          claims.emplace_back(ev.heartbeat_known, ev.heartbeat);
        }
        ++gq.guard_probes;
        if (!ev.heartbeat_known) gq.guards_all_known = false;
        // R1: re-derive the verdict from the recorded inputs with the
        // model's rule: heartbeat > now − bound, floored by the timeline.
        bool expected = ev.heartbeat_known &&
                        ev.heartbeat > ev.at - ev.bound_ms &&
                        !(ev.floor_ms >= 0 && ev.heartbeat < ev.floor_ms);
        if (expected != ev.verdict_local) {
          violate(
              "guard-verdict", ev.query, ev.seq,
              StrPrintf("guard routed %s but hb=%lld bound=%lld now=%lld "
                        "floor=%lld requires %s",
                        ev.verdict_local ? "local" : "remote",
                        static_cast<long long>(ev.heartbeat),
                        static_cast<long long>(ev.bound_ms),
                        static_cast<long long>(ev.at),
                        static_cast<long long>(ev.floor_ms),
                        expected ? "local" : "remote"));
        }
        break;
      }
      case HistoryEvent::Kind::kServe: {
        ++report.serves_checked;
        PendingQuery& sq = pending[ev.query];
        if (ev.local) check_owner(ev.region, ev.node, ev.query, ev.seq);
        if (sq.routed) {
          if (ev.node != sq.route_node) {
            violate("route-serve-node", ev.query, ev.seq,
                    StrPrintf("serve from node %d, query was routed to "
                              "node %d",
                              ev.node, sq.route_node));
          }
          if (sq.route_backend && ev.local) {
            violate("route-serve-node", ev.query, ev.seq,
                    "local serve on a backend-tier dispatch");
          }
        }
        // R7 (structural): an overload shed is by definition a pre-emptive
        // *degraded local* serve — a shed flag on a remote fetch or on an
        // un-degraded serve means the engine shed outside the degrade
        // ladder, i.e. outside the currency rules R3 holds degraded serves
        // to.
        if (ev.shed && (!ev.degraded || !ev.local)) {
          violate("shed-shape", ev.query, ev.seq,
                  StrPrintf("shed serve must be a degraded local serve "
                            "(local=%d degraded=%d)",
                            ev.local ? 1 : 0, ev.degraded ? 1 : 0));
        }
        ServeRec rec;
        rec.ev = ev;
        if (ev.local) {
          auto rit = regions.find(ev.region);
          bool derived_known = rit != regions.end() && rit->second.certified();
          // R2 (serve side), with the same pinned-claim allowance as the
          // guard check above.
          auto& claims = sq.claimed[ev.region];
          bool matches_current = derived_known && rit->second.hb == ev.heartbeat;
          bool matches_prior = false;
          for (const auto& [known, hb] : claims) {
            if (known && hb == ev.heartbeat) {
              matches_prior = true;
              break;
            }
          }
          if (ev.heartbeat_known && !matches_current && !matches_prior) {
            violate("heartbeat-divergence", ev.query, ev.seq,
                    StrPrintf("serve claims heartbeat %lld for region %d, "
                              "install stream says %s",
                              static_cast<long long>(ev.heartbeat),
                              static_cast<int>(ev.region),
                              derived_known
                                  ? std::to_string(rit->second.hb).c_str()
                                  : "unknown"));
          } else if (ev.heartbeat_known) {
            claims.emplace_back(true, ev.heartbeat);
          }
          // Structural R4: the MVCC pin guarantees every local serve of one
          // region within one query reads the same published snapshot — the
          // recorded epochs must agree (0 = engine without versioned reads;
          // skipped).
          if (ev.epoch != 0) {
            auto [eit, first] = sq.serve_epoch.emplace(ev.region, ev.epoch);
            if (!first && eit->second != ev.epoch) {
              violate("snapshot-epoch", ev.query, ev.seq,
                      StrPrintf("local serve from region %d snapshot epoch "
                                "%llu, but an earlier serve of this query "
                                "read epoch %llu",
                                static_cast<int>(ev.region),
                                static_cast<unsigned long long>(ev.epoch),
                                static_cast<unsigned long long>(eit->second)));
            }
          }
          rec.as_of_at_serve =
              rit != regions.end() ? rit->second.as_of : kInitialTimestamp;
        } else {
          // A remote fetch reads the back-end's current snapshot.
          rec.as_of_at_serve = latest;
        }
        // operand-served-once: every serving operator records its serve once
        // per execution — re-opens (a join's inner side, an EXISTS/IN
        // subplan per outer row) re-fetch but re-decide nothing — and a
        // failed remote open records none, so a degraded serve is the only
        // one. A second serve of an operand means it was re-decided
        // mid-query, possibly from a different snapshot.
        for (InputOperandId oid : ev.operands) {
          auto [it, first] = sq.operand_serve.emplace(oid, sq.serves.size());
          if (!first) {
            violate("operand-served-once", ev.query, ev.seq,
                    StrPrintf("operand %u served again; first served by "
                              "seq %llu",
                              static_cast<unsigned>(oid),
                              static_cast<unsigned long long>(
                                  sq.serves[it->second].ev.seq)));
          }
        }
        rec.candidates.push_back(rec.as_of_at_serve);
        if (ev.local) {
          // A pinned serve may carry rows from a snapshot the region
          // published before the current install: any snapshot an earlier
          // local serve of this (query, region) could have read is a
          // candidate here too.
          for (const ServeRec& prev : sq.serves) {
            if (!prev.ev.local || prev.ev.region != ev.region) continue;
            for (TxnTimestamp c : prev.candidates) {
              if (std::find(rec.candidates.begin(), rec.candidates.end(), c) ==
                  rec.candidates.end()) {
                rec.candidates.push_back(c);
              }
            }
          }
        }
        sq.serves.push_back(std::move(rec));
        break;
      }
      case HistoryEvent::Kind::kRoute: {
        ++report.routes_checked;
        PendingQuery& rq = pending[ev.query];
        rq.routed = true;
        rq.route_node = ev.node;
        rq.route_backend = ev.backend_tier;
        for (const RouteProbe& p : ev.probes) {
          check_owner(p.region, p.node, ev.query, ev.seq);
          // route-heartbeat: the router reads the region's *current*
          // certified heartbeat — no MVCC pin allowance, unlike the guard's
          // R2. A probe claiming a heartbeat the install/health streams have
          // withdrawn is the planted RCC_FLEET_MUTATE bug.
          if (p.region != kBackendRegion) {
            auto rit = regions.find(p.region);
            bool derived_known =
                rit != regions.end() && rit->second.certified();
            if (derived_known != p.heartbeat_known) {
              violate("route-heartbeat", ev.query, ev.seq,
                      StrPrintf("probe of node %d region %d claims "
                                "heartbeat_known=%d, install/health streams "
                                "say %d",
                                p.node, static_cast<int>(p.region),
                                p.heartbeat_known ? 1 : 0,
                                derived_known ? 1 : 0));
            } else if (derived_known && rit->second.hb != p.heartbeat) {
              violate("route-heartbeat", ev.query, ev.seq,
                      StrPrintf("probe of node %d region %d claims heartbeat "
                                "%lld, install stream published %lld",
                                p.node, static_cast<int>(p.region),
                                static_cast<long long>(p.heartbeat),
                                static_cast<long long>(rit->second.hb)));
            }
          }
          // route-verdict: eligibility recomputes from the probe's recorded
          // inputs. Under DEGRADE ALWAYS any certified staleness is
          // eligible (the node may serve stale-flagged); otherwise the
          // guard's own within-bound rule applies.
          bool expected =
              p.heartbeat_known &&
              !(p.floor_ms >= 0 && p.heartbeat < p.floor_ms) &&
              (p.heartbeat > ev.at - p.bound_ms ||
               ev.degrade_mode == static_cast<int>(DegradeMode::kAlways));
          if (expected != p.eligible) {
            violate("route-verdict", ev.query, ev.seq,
                    StrPrintf("probe of node %d region %d marked %s but "
                              "hb_known=%d hb=%lld bound=%lld floor=%lld "
                              "now=%lld mode=%d requires %s",
                              p.node, static_cast<int>(p.region),
                              p.eligible ? "eligible" : "ineligible",
                              p.heartbeat_known ? 1 : 0,
                              static_cast<long long>(p.heartbeat),
                              static_cast<long long>(p.bound_ms),
                              static_cast<long long>(p.floor_ms),
                              static_cast<long long>(ev.at), ev.degrade_mode,
                              expected ? "eligible" : "ineligible"));
          }
          // route-choice: a cache-tier dispatch requires every probe of the
          // chosen node eligible.
          if (!ev.backend_tier && p.node == ev.node && !p.eligible) {
            violate("route-choice", ev.query, ev.seq,
                    StrPrintf("dispatched to node %d whose probe of region "
                              "%d was ineligible",
                              ev.node, static_cast<int>(p.region)));
          }
        }
        break;
      }
      case HistoryEvent::Kind::kAnswer: {
        ++report.answers_checked;
        PendingQuery pq;
        auto pit = pending.find(ev.query);
        if (pit != pending.end()) {
          pq = std::move(pit->second);
          pending.erase(pit);
        }
        if (pq.routed && ev.node != pq.route_node) {
          violate("route-serve-node", ev.query, ev.seq,
                  StrPrintf("answer from node %d, query was routed to node %d",
                            ev.node, pq.route_node));
        }
        if (ev.ok) {
          for (const auto& [bound, tuple_ops] : ev.tuples) {
            std::vector<std::pair<const ServeRec*, std::vector<std::string>>>
                groups;
            size_t covered = 0;
            for (InputOperandId oid : tuple_ops) {
              auto sit = pq.operand_serve.find(oid);
              if (sit == pq.operand_serve.end() || oid >= ev.tables.size()) {
                ++report.operands_uncovered;
                continue;
              }
              ++covered;
              const ServeRec& s = pq.serves[sit->second];
              // R3: staleness of the serving snapshot, measured by the
              // formal model at serve time, within the tuple's bound —
              // unless the engine explicitly served stale under ALWAYS.
              SimTimeMs staleness = semantics::CurrencyOf(
                  shadow, ev.tables[oid], s.as_of_at_serve, s.ev.at);
              if (staleness > bound) {
                bool authorized =
                    s.ev.degraded &&
                    ev.degrade_mode == static_cast<int>(DegradeMode::kAlways);
                if (!authorized) {
                  violate("currency-bound", ev.query, ev.seq,
                          StrPrintf(
                              "operand %u (%s) served %lldms stale at t=%lld, "
                              "bound %lldms, degraded=%d mode=%d",
                              static_cast<unsigned>(oid),
                              ev.tables[oid].c_str(),
                              static_cast<long long>(staleness),
                              static_cast<long long>(s.ev.at),
                              static_cast<long long>(bound),
                              s.ev.degraded ? 1 : 0, ev.degrade_mode));
                }
              }
              bool grouped = false;
              for (auto& [serve, tables] : groups) {
                if (serve == &s) {
                  tables.push_back(ev.tables[oid]);
                  grouped = true;
                  break;
                }
              }
              if (!grouped) groups.push_back({&s, {ev.tables[oid]}});
            }
            // R4: the whole class must be attributable to one snapshot.
            if (covered >= 2 && !AnyChoiceConsistent(shadow, groups)) {
              violate("consistency-class", ev.query, ev.seq,
                      StrPrintf("no snapshot assignment makes the %zu-operand "
                                "class (bound %lldms) mutually consistent",
                                covered, static_cast<long long>(bound)));
            }
          }
          // R5 (serve side): no local serve below the query's floor.
          if (ev.floor_ms >= 0) {
            for (const ServeRec& s : pq.serves) {
              if (s.ev.local && s.ev.heartbeat_known &&
                  s.ev.heartbeat < ev.floor_ms) {
                violate("timeline-floor", ev.query, s.ev.seq,
                        StrPrintf("local serve at heartbeat %lld below the "
                                  "session floor %lld",
                                  static_cast<long long>(s.ev.heartbeat),
                                  static_cast<long long>(ev.floor_ms)));
              }
            }
          }
        } else {
          // R6: availability side of the degrade contract. SET DEGRADE
          // ALWAYS guarantees an answer whenever the plan probed at least
          // one guard and every probed region held a certified heartbeat —
          // the engine can always fall back to the certified local branch
          // and annotate the staleness. A refusal in that state means the
          // query executed under some *other* session's policy (the
          // stale-plan-across-degrade-modes bug: a plan cached under
          // DEGRADE NONE served on an ALWAYS session). Withdrawn heartbeats
          // (quarantine/resync) and guard-less remote-only plans refuse
          // legitimately, as do non-Unavailable failures (parse errors...).
          if (ev.degrade_mode == static_cast<int>(DegradeMode::kAlways) &&
              !ev.timeordered && pq.guard_probes > 0 && pq.guards_all_known &&
              ev.error.rfind("Unavailable", 0) == 0 &&
              ev.error.find("quarantin") == std::string::npos) {
            violate("degrade-refusal", ev.query, ev.seq,
                    StrPrintf("refused under DEGRADE ALWAYS with %d certified "
                              "guard probe(s): %s",
                              pq.guard_probes, ev.error.c_str()));
          }
        }
        // R5 (session side): a time-ordered session's floor must track its
        // high-water snapshot exactly, monotonically. Assumes the session's
        // queries are serial (the harness guarantees it).
        auto sit = sessions.find(ev.session);
        if (sit != sessions.end() && sit->second.timeordered) {
          if (ev.floor_ms != sit->second.floor) {
            violate("timeline-tracking", ev.query, ev.seq,
                    StrPrintf("query ran with floor %lld, session high-water "
                              "is %lld",
                              static_cast<long long>(ev.floor_ms),
                              static_cast<long long>(sit->second.floor)));
          }
          if (ev.ok && ev.max_seen_heartbeat > sit->second.floor) {
            sit->second.floor = ev.max_seen_heartbeat;
          }
        }
        break;
      }
    }
  }
  return report;
}

}  // namespace sim
}  // namespace rcc
