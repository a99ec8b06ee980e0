#pragma once
// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms.
//
// Instruments the runtime's hot paths (CG solves, fallback-ladder rungs,
// group-lasso sweeps, dataset cache hits/misses, thread-pool batches,
// per-phase wall time) so every run can export a numeric snapshot into
// its --report JSON. Recording is lock-free (relaxed atomics) and must
// never change numerical results; registration (name lookup) takes a
// mutex, so hot paths cache the returned reference:
//
//   static metrics::Counter& solves = metrics::counter("cg.solves");
//   solves.add();
//
// Metric object references are stable for the life of the process. The
// VMAP_METRICS=0 environment variable (or set_enabled(false)) turns
// recording into a near-free no-op; the registry itself always answers
// snapshots so reports stay well-formed.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace vmap::metrics {

/// Global recording switch (default on; VMAP_METRICS=0 starts it off).
bool enabled();
void set_enabled(bool on);

namespace detail {
/// fetch_add for atomic<double> via CAS — portable across standard
/// libraries that lack lock-free floating-point fetch_add.
inline void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void set(double v) {
    if (enabled()) value_.store(v, std::memory_order_relaxed);
  }
  void add(double v) {
    if (enabled()) detail::atomic_add(value_, v);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
/// overflow bucket past the last bound. Bounds are fixed at registration
/// so snapshots from different runs are directly comparable.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  struct Snapshot {
    std::vector<double> bounds;          ///< ascending upper edges
    std::vector<std::uint64_t> counts;   ///< bounds.size() + 1 (overflow last)
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  Snapshot snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Log-spaced 1 µs … ~2.2 min ladder, four rungs per octave (every
/// upper/lower bound ratio 2^(1/4) ≈ 1.19) — the default layout for
/// wall-time histograms (values in milliseconds).
std::vector<double> default_time_buckets_ms();

/// Geometric 1 … 32768 ladder for iteration-count histograms: past the
/// group-lasso sweep cap (8000 by default, 20000 in the solver ablation),
/// so a capped solve lands in a finite bucket instead of the overflow.
std::vector<double> default_iteration_buckets();

/// Looks up (or registers) a metric by name. References stay valid for
/// the process lifetime. Re-registering a histogram under an existing
/// name keeps the first bucket layout.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name,
                     const std::vector<double>& bounds = {});

/// One registered metric, for report emission.
struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  double value = 0.0;             ///< counter/gauge payload
  Histogram::Snapshot histogram;  ///< kHistogram payload
};

/// Every registered metric, sorted by name.
std::vector<MetricValue> snapshot();

/// Interpolated quantile (q in [0, 1]) from a histogram snapshot:
/// linear within the bucket that crosses rank q·count, with the first
/// bucket anchored at 0 and observations in the +Inf overflow bucket
/// clamped to the last finite bound (the histogram cannot know more).
/// 0 when the histogram is empty.
double histogram_quantile(const Histogram::Snapshot& snapshot, double q);

/// The snapshot as a JSON object:
/// {"counters":{...},"gauges":{...},
///  "histograms":{name:{count,sum,p50,p90,p99,buckets}}}
/// The overflow bucket is reported with "le":"+Inf" (Prometheus
/// convention), never folded into the top finite bucket.
std::string snapshot_json();

/// Prometheus text exposition of every registered metric: counters and
/// gauges as single samples, histograms as cumulative _bucket{le="..."}
/// series plus _sum and _count. Names are prefixed "vmap_" and
/// non-[a-zA-Z0-9_] characters become '_'.
std::string metrics_text();

/// Zeroes every registered metric (registrations survive). Benches call
/// this before a measured phase so reports describe that run alone.
void reset_all();

/// RAII wall-time observer: adds elapsed milliseconds to a histogram on
/// destruction. For coarse phases only (one observation per scope).
class ScopedTimerMs {
 public:
  explicit ScopedTimerMs(Histogram& hist);
  ~ScopedTimerMs();
  ScopedTimerMs(const ScopedTimerMs&) = delete;
  ScopedTimerMs& operator=(const ScopedTimerMs&) = delete;

 private:
  Histogram& hist_;
  double start_ms_;
};

}  // namespace vmap::metrics
