#include "core/query_result.h"

#include <algorithm>

namespace rcc {

QueryResult MakeQueryResult(CacheQueryOutcome outcome) {
  QueryResult out;
  out.layout = std::move(outcome.result.layout);
  out.rows = std::move(outcome.result.rows);
  out.shape = outcome.shape;
  out.stats = outcome.stats;
  out.constraint = std::move(outcome.constraint);
  out.executed_at = outcome.executed_at;
  if (out.stats.degraded_serves > 0) {
    out.degraded = true;
    out.staleness_ms = out.stats.degraded_staleness_ms;
    out.advisory = Status::StaleOk(
        "served from local view(s) " + std::to_string(out.staleness_ms) +
        "ms stale after remote failure");
  }
  return out;
}

std::string QueryResult::ToTable(size_t max_rows) const {
  // Column widths.
  size_t n = layout.num_slots();
  std::vector<size_t> widths(n);
  std::vector<std::string> headers(n);
  for (size_t c = 0; c < n; ++c) {
    headers[c] = layout.schema().column(c).name;
    widths[c] = headers[c].size();
  }
  size_t shown = std::min(rows.size(), max_rows);
  std::vector<std::vector<std::string>> cells(shown);
  for (size_t r = 0; r < shown; ++r) {
    cells[r].resize(n);
    for (size_t c = 0; c < n; ++c) {
      cells[r][c] = rows[r][c].ToString();
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  auto line = [&](const std::vector<std::string>& vals) {
    std::string out = "|";
    for (size_t c = 0; c < n; ++c) {
      out += " " + vals[c] + std::string(widths[c] - vals[c].size(), ' ') +
             " |";
    }
    out += "\n";
    return out;
  };
  std::string sep = "+";
  for (size_t c = 0; c < n; ++c) {
    sep += std::string(widths[c] + 2, '-') + "+";
  }
  sep += "\n";
  std::string out = sep + line(headers) + sep;
  for (size_t r = 0; r < shown; ++r) out += line(cells[r]);
  out += sep;
  if (rows.size() > shown) {
    out += "(" + std::to_string(rows.size() - shown) + " more rows)\n";
  }
  out += "(" + std::to_string(rows.size()) + " rows)\n";
  return out;
}

}  // namespace rcc
