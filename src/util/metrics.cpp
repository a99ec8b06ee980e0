#include "util/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "util/log.hpp"

namespace vmap::metrics {

namespace {

// -1 = environment not yet consulted, 0 = off, 1 = on.
std::atomic<int> g_enabled{-1};

bool init_from_env() {
  const char* env = std::getenv("VMAP_METRICS");
  int on = 1;
  bool recognized = true;
  if (env && *env) {
    const std::string v(env);
    if (v == "0" || v == "off" || v == "false")
      on = 0;
    else if (v != "1" && v != "on" && v != "true")
      recognized = false;  // junk value: keep the default (on), warn below
  }
  int expected = -1;
  if (g_enabled.compare_exchange_strong(expected, on,
                                        std::memory_order_relaxed) &&
      !recognized) {
    // Warn exactly once, from the thread that won initialization.
    VMAP_LOG(kWarn) << "VMAP_METRICS='" << env
                    << "' is not 0/1/on/off; metrics stay enabled";
  }
  return g_enabled.load(std::memory_order_relaxed) == 1;
}

/// Name-keyed stores. Leaky singleton so metrics recorded from static
/// destructors (pool workers winding down) never touch freed memory.
/// unique_ptr values keep references stable across rehashing.
struct Registry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry* registry() {
  static Registry* r = new Registry();  // intentionally leaked
  return r;
}

double steady_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

bool enabled() {
  const int s = g_enabled.load(std::memory_order_relaxed);
  if (s < 0) return init_from_env();
  return s == 1;
}

void set_enabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (!(bounds_[i - 1] < bounds_[i]))
      bounds_[i] = bounds_[i - 1];  // tolerate, never reorder at observe time
}

void Histogram::observe(double v) {
  if (!enabled()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  counts_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.reserve(counts_.size());
  for (const auto& c : counts_)
    s.counts.push_back(c.load(std::memory_order_relaxed));
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> default_time_buckets_ms() {
  // 1 µs … 2^27 µs (~2.2 min), four rungs per octave (×2^(1/4) ≈ 1.19):
  // 109 bounds plus overflow. An interpolated quantile stays inside its
  // rung, so it is off by at most ~19% of the true value.
  std::vector<double> b;
  for (int i = 0; i <= 27 * 4; ++i) b.push_back(1e-3 * std::exp2(i / 4.0));
  return b;
}

std::vector<double> default_iteration_buckets() {
  std::vector<double> b;
  for (double v = 1.0; v <= 32768.0; v *= 2.0) b.push_back(v);
  return b;
}

Counter& counter(const std::string& name) {
  Registry* r = registry();
  std::lock_guard<std::mutex> lock(r->mutex);
  auto& slot = r->counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& gauge(const std::string& name) {
  Registry* r = registry();
  std::lock_guard<std::mutex> lock(r->mutex);
  auto& slot = r->gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& histogram(const std::string& name,
                     const std::vector<double>& bounds) {
  Registry* r = registry();
  std::lock_guard<std::mutex> lock(r->mutex);
  auto& slot = r->histograms[name];
  if (!slot)
    slot = std::make_unique<Histogram>(
        bounds.empty() ? default_time_buckets_ms() : bounds);
  return *slot;
}

std::vector<MetricValue> snapshot() {
  Registry* r = registry();
  std::lock_guard<std::mutex> lock(r->mutex);
  std::vector<MetricValue> out;
  out.reserve(r->counters.size() + r->gauges.size() + r->histograms.size());
  for (const auto& [name, c] : r->counters) {
    MetricValue m;
    m.name = name;
    m.kind = MetricValue::Kind::kCounter;
    m.value = static_cast<double>(c->value());
    out.push_back(std::move(m));
  }
  for (const auto& [name, g] : r->gauges) {
    MetricValue m;
    m.name = name;
    m.kind = MetricValue::Kind::kGauge;
    m.value = g->value();
    out.push_back(std::move(m));
  }
  for (const auto& [name, h] : r->histograms) {
    MetricValue m;
    m.name = name;
    m.kind = MetricValue::Kind::kHistogram;
    m.histogram = h->snapshot();
    out.push_back(std::move(m));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return out;
}

double histogram_quantile(const Histogram::Snapshot& snapshot, double q) {
  if (snapshot.count == 0 || snapshot.counts.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(snapshot.count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < snapshot.counts.size(); ++i) {
    const std::uint64_t in_bucket = snapshot.counts[i];
    if (in_bucket == 0) continue;
    const double next = static_cast<double>(cumulative + in_bucket);
    if (next >= rank) {
      if (i >= snapshot.bounds.size()) {
        // Overflow bucket: the true value is somewhere above the last
        // finite bound — clamp rather than invent an upper edge.
        return snapshot.bounds.empty() ? 0.0 : snapshot.bounds.back();
      }
      const double lower = i == 0 ? 0.0 : snapshot.bounds[i - 1];
      const double upper = snapshot.bounds[i];
      const double into =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, into));
    }
    cumulative += in_bucket;
  }
  return snapshot.bounds.empty() ? 0.0 : snapshot.bounds.back();
}

std::string snapshot_json() {
  Registry* r = registry();
  std::lock_guard<std::mutex> lock(r->mutex);
  std::string json = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : r->counters) {
    if (!first) json += ",";
    first = false;
    json += "\"" + name + "\":" + std::to_string(c->value());
  }
  json += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : r->gauges) {
    if (!first) json += ",";
    first = false;
    json += "\"" + name + "\":";
    append_double(json, g->value());
  }
  json += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : r->histograms) {
    if (!first) json += ",";
    first = false;
    const Histogram::Snapshot s = h->snapshot();
    json += "\"" + name + "\":{\"count\":" + std::to_string(s.count) +
            ",\"sum\":";
    append_double(json, s.sum);
    json += ",\"p50\":";
    append_double(json, histogram_quantile(s, 0.50));
    json += ",\"p90\":";
    append_double(json, histogram_quantile(s, 0.90));
    json += ",\"p99\":";
    append_double(json, histogram_quantile(s, 0.99));
    json += ",\"buckets\":[";
    for (std::size_t i = 0; i < s.counts.size(); ++i) {
      if (i) json += ",";
      json += "{\"le\":";
      if (i < s.bounds.size()) append_double(json, s.bounds[i]);
      else json += "\"+Inf\"";
      json += ",\"count\":" + std::to_string(s.counts[i]) + "}";
    }
    json += "]}";
  }
  json += "}}";
  return json;
}

namespace {

std::string prom_name(const std::string& name) {
  std::string out = "vmap_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string metrics_text() {
  Registry* r = registry();
  std::lock_guard<std::mutex> lock(r->mutex);
  std::string out;
  for (const auto& [name, c] : r->counters) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : r->gauges) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " ";
    append_double(out, g->value());
    out += "\n";
  }
  for (const auto& [name, h] : r->histograms) {
    const std::string p = prom_name(name);
    const Histogram::Snapshot s = h->snapshot();
    out += "# TYPE " + p + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < s.counts.size(); ++i) {
      cumulative += s.counts[i];
      out += p + "_bucket{le=\"";
      if (i < s.bounds.size()) append_double(out, s.bounds[i]);
      else out += "+Inf";
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    out += p + "_sum ";
    append_double(out, s.sum);
    out += "\n" + p + "_count " + std::to_string(s.count) + "\n";
  }
  return out;
}

void reset_all() {
  Registry* r = registry();
  std::lock_guard<std::mutex> lock(r->mutex);
  for (auto& [name, c] : r->counters) c->reset();
  for (auto& [name, g] : r->gauges) g->reset();
  for (auto& [name, h] : r->histograms) h->reset();
}

ScopedTimerMs::ScopedTimerMs(Histogram& hist)
    : hist_(hist), start_ms_(steady_ms()) {}

ScopedTimerMs::~ScopedTimerMs() { hist_.observe(steady_ms() - start_ms_); }

}  // namespace vmap::metrics
