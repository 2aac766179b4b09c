#include "obs/metrics.h"

#include "common/strings.h"

namespace rcc {
namespace obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  buckets_ = std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double v) {
  size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

namespace {

/// The instrument named `name` in `map`, created by `make` on first use.
template <typename Map, typename Make>
auto* GetOrCreate(Map& map, std::string_view name, Make make) {
  auto it = map.find(name);
  if (it == map.end()) it = map.emplace(std::string(name), make()).first;
  return it->second.get();
}

/// JSON number rendering: integers stay integral, doubles use shortest form.
std::string JsonNum(double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    return std::to_string(static_cast<int64_t>(v));
  }
  return StrPrintf("%.6g", v);
}

}  // namespace

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> guard(mu_);
  return GetOrCreate(counters_, name,
                     [] { return std::make_unique<Counter>(); });
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> guard(mu_);
  return GetOrCreate(gauges_, name, [] { return std::make_unique<Gauge>(); });
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> guard(mu_);
  return GetOrCreate(histograms_, name, [&] {
    return std::make_unique<Histogram>(std::move(bounds));
  });
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::string out = "{\n  \"schema\": \"rcc.metrics.v1\"";
  // One `"title": {"name": <value>, ...}` object per instrument kind.
  auto section = [&out](const char* title, const auto& map, auto value) {
    out += StrPrintf(",\n  \"%s\": {", title);
    bool first = true;
    for (const auto& [name, instrument] : map) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    \"" + name + "\": " + value(*instrument);
    }
    out += first ? "}" : "\n  }";
  };
  section("counters", counters_,
          [](const Counter& c) { return std::to_string(c.value()); });
  section("gauges", gauges_, [](const Gauge& g) { return JsonNum(g.value()); });
  section("histograms", histograms_, [](const Histogram& h) {
    std::string json = "{\"count\": " + std::to_string(h.count()) +
                       ", \"sum\": " + JsonNum(h.sum()) + ", \"buckets\": [";
    const std::vector<double>& bounds = h.bounds();
    for (size_t i = 0; i <= bounds.size(); ++i) {
      if (i > 0) json += ", ";
      json += "{\"le\": ";
      json += i < bounds.size() ? JsonNum(bounds[i]) : "\"+inf\"";
      json += ", \"n\": " + std::to_string(h.bucket_count(i)) + "}";
    }
    return json + "]}";
  });
  out += "\n}\n";
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

MetricsRegistry* MetricsRegistry::Global() {
  static MetricsRegistry* kGlobal = new MetricsRegistry();
  return kGlobal;
}

std::vector<double> MetricsRegistry::DefaultLatencyBucketsMs() {
  return {0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100,
          500,  1000, 5000, 10000, 50000, 100000};
}

std::string MetricsRegistry::NodeMetricName(std::string_view prefix, int node,
                                            std::string_view leaf) {
  std::string name(prefix);
  name += ".node.";
  name += std::to_string(node);
  name += '.';
  name += leaf;
  return name;
}

}  // namespace obs
}  // namespace rcc
