// Metrics-registry semantics: counter/gauge arithmetic, histogram bucket
// math, the enable switch, snapshot/JSON shape, and the run-report JSON
// round trip through bench/common's write_report.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace vmap {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Metrics, CounterAddsAndResets) {
  metrics::Counter& c = metrics::counter("test.counter.basic");
  c.reset();
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, RegistryReturnsTheSameInstance) {
  metrics::Counter& a = metrics::counter("test.counter.same");
  metrics::Counter& b = metrics::counter("test.counter.same");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Metrics, GaugeSetAndAdd) {
  metrics::Gauge& g = metrics::gauge("test.gauge.basic");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, HistogramBucketMath) {
  metrics::Histogram& h =
      metrics::histogram("test.hist.buckets", {1.0, 2.0, 4.0});
  h.reset();
  for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 100.0}) h.observe(v);
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.counts[0], 2u);      // 0.5, 1.0   (<= 1)
  EXPECT_EQ(snap.counts[1], 2u);      // 1.5, 2.0   (<= 2)
  EXPECT_EQ(snap.counts[2], 2u);      // 3.0, 4.0   (<= 4)
  EXPECT_EQ(snap.counts[3], 1u);      // 100        (overflow)
  EXPECT_EQ(snap.count, 7u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 4.0 + 100.0);
}

TEST(Metrics, HistogramKeepsFirstBucketLayout) {
  metrics::Histogram& a =
      metrics::histogram("test.hist.layout", {1.0, 10.0});
  metrics::Histogram& b =
      metrics::histogram("test.hist.layout", {99.0});
  EXPECT_EQ(&a, &b);
  ASSERT_EQ(b.bounds().size(), 2u);
  EXPECT_DOUBLE_EQ(b.bounds()[1], 10.0);
}

TEST(Metrics, DisabledRecordingIsANoOp) {
  metrics::Counter& c = metrics::counter("test.counter.disabled");
  metrics::Gauge& g = metrics::gauge("test.gauge.disabled");
  metrics::Histogram& h = metrics::histogram("test.hist.disabled", {1.0});
  c.reset();
  g.reset();
  h.reset();
  metrics::set_enabled(false);
  c.add(7);
  g.set(7.0);
  h.observe(7.0);
  metrics::set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  c.add();  // recording resumes once re-enabled
  EXPECT_EQ(c.value(), 1u);
}

TEST(Metrics, CountersAreThreadSafeUnderThePool) {
  set_thread_count(4);
  metrics::Counter& c = metrics::counter("test.counter.pool");
  c.reset();
  parallel_for(0, 1000, [&](std::size_t) { c.add(); });
  set_thread_count(0);
  EXPECT_EQ(c.value(), 1000u);
}

TEST(Metrics, SnapshotJsonHasAllSections) {
  metrics::counter("test.json.counter").add(2);
  metrics::gauge("test.json.gauge").set(1.5);
  metrics::histogram("test.json.hist", {1.0}).observe(0.5);
  const std::string json = metrics::snapshot_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"+Inf\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Metrics, QuantileInterpolatesWithinABucket) {
  // 100 observations spread uniformly through one (0, 10] bucket: rank
  // q*100 lands q of the way through it, so the interpolated quantile is
  // simply 10q — checkable exactly.
  metrics::Histogram& h =
      metrics::histogram("test.hist.quantile.uniform", {10.0, 20.0});
  h.reset();
  for (int i = 0; i < 100; ++i) h.observe(5.0);
  const auto snap = h.snapshot();
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.50), 5.0);
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.90), 9.0);
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.99), 9.9);
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 1.0), 10.0);
}

TEST(Metrics, QuantileCrossesBuckets) {
  // 50 observations in (0,1], 50 in (1,2]: the median sits exactly at
  // the bucket edge; p75 is halfway into the second bucket.
  metrics::Histogram& h =
      metrics::histogram("test.hist.quantile.cross", {1.0, 2.0});
  h.reset();
  for (int i = 0; i < 50; ++i) h.observe(0.5);
  for (int i = 0; i < 50; ++i) h.observe(1.5);
  const auto snap = h.snapshot();
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.50), 1.0);
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.75), 1.5);
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.25), 0.5);
}

TEST(Metrics, QuantileClampsOverflowToLastBound) {
  // Everything in the +Inf overflow bucket: the histogram cannot resolve
  // beyond its last finite bound, so every quantile clamps there.
  metrics::Histogram& h =
      metrics::histogram("test.hist.quantile.overflow", {1.0, 8.0});
  h.reset();
  for (int i = 0; i < 10; ++i) h.observe(1000.0);
  const auto snap = h.snapshot();
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.5), 8.0);
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(snap, 0.99), 8.0);
}

TEST(Metrics, IterationBucketsResolveCappedSolves) {
  // A group-lasso solve stopped at the default 8000-sweep cap must land in
  // a finite bucket, so the sweep-count quantiles can read past 4096.
  metrics::Histogram& h = metrics::histogram(
      "test.hist.iterations.capped", metrics::default_iteration_buckets());
  h.reset();
  for (int i = 0; i < 10; ++i) h.observe(8000.0);
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), snap.bounds.size() + 1);
  EXPECT_EQ(snap.counts.back(), 0u) << "capped solve fell into +Inf";
  const auto bucket = std::lower_bound(snap.bounds.begin(),
                                       snap.bounds.end(), 8000.0) -
                      snap.bounds.begin();
  EXPECT_EQ(snap.counts[static_cast<std::size_t>(bucket)], 10u);
  EXPECT_GT(metrics::histogram_quantile(snap, 0.99), 4096.0);
}

TEST(Metrics, TimeBucketsAreFineFromAMicrosecondToTwoMinutes) {
  const std::vector<double> b = metrics::default_time_buckets_ms();
  ASSERT_GE(b.size(), 2u);
  EXPECT_DOUBLE_EQ(b.front(), 1e-3);
  EXPECT_GE(b.back(), 2.0 * 60.0 * 1e3);
  for (std::size_t i = 1; i < b.size(); ++i)
    EXPECT_LE(b[i] / b[i - 1], 1.25) << "rung " << i;
}

TEST(Metrics, TimeBucketQuantilesTrackExactQuantiles) {
  // A right-skewed, latency-like sample (log-normal around 2 ms): the
  // interpolated p50/p90/p99 must land within 25% of the exact sorted
  // quantiles. A ×4-per-rung ladder reads them 26%, 64% and 83% high.
  Rng rng(2015);
  std::vector<double> sample(20000);
  for (double& v : sample) v = std::exp(rng.normal(std::log(2.0), 1.0));
  metrics::Histogram& h = metrics::histogram(
      "test.hist.time.skewed", metrics::default_time_buckets_ms());
  h.reset();
  for (double v : sample) h.observe(v);
  const auto snap = h.snapshot();
  std::sort(sample.begin(), sample.end());
  for (double q : {0.50, 0.90, 0.99}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sample.size())));
    const double exact = sample[rank - 1];
    const double estimate = metrics::histogram_quantile(snap, q);
    EXPECT_NEAR(estimate, exact, 0.25 * exact) << "q = " << q;
  }
}

TEST(Metrics, QuantileOfEmptyHistogramIsZero) {
  metrics::Histogram& h =
      metrics::histogram("test.hist.quantile.empty", {1.0});
  h.reset();
  EXPECT_DOUBLE_EQ(metrics::histogram_quantile(h.snapshot(), 0.99), 0.0);
}

TEST(Metrics, PrometheusTextExposition) {
  metrics::counter("test.prom.counter").add(3);
  metrics::gauge("test.prom.gauge").set(1.25);
  metrics::Histogram& h =
      metrics::histogram("test.prom.hist", {1.0, 2.0});
  h.reset();
  h.observe(0.5);
  h.observe(1.5);
  h.observe(99.0);
  const std::string text = metrics::metrics_text();
  EXPECT_NE(text.find("vmap_test_prom_counter 3"), std::string::npos);
  EXPECT_NE(text.find("vmap_test_prom_gauge 1.25"), std::string::npos);
  // Cumulative buckets: le="2" includes the le="1" observation.
  EXPECT_NE(text.find("vmap_test_prom_hist_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("vmap_test_prom_hist_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("vmap_test_prom_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("vmap_test_prom_hist_count 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE vmap_test_prom_counter counter"),
            std::string::npos);
}

TEST(Metrics, ResetAllZeroesEverything) {
  metrics::Counter& c = metrics::counter("test.reset.counter");
  metrics::Histogram& h = metrics::histogram("test.reset.hist", {1.0});
  c.add(5);
  h.observe(0.5);
  metrics::reset_all();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(RunReport, JsonRoundTripThroughWriteReport) {
  const std::string path = "metrics_test_report.json";
  CliArgs args("metrics_test");
  args.add_flag("report", "", "output path");
  const char* argv[] = {"metrics_test", "--report", path.c_str()};
  ASSERT_TRUE(args.parse(3, argv));

  metrics::counter("test.report.counter").add(9);
  benchutil::RunReport report("metrics_test");
  report.scalar("answer", 42.0);
  report.scalar("fraction", 2.5);
  report.timing("phase_one", 12.5);
  benchutil::write_report(args, nullptr, report);

  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"metrics_test\""), std::string::npos);
  EXPECT_NE(json.find("\"answer\":42"), std::string::npos);
  EXPECT_NE(json.find("\"fraction\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"phase_one\":12.5"), std::string::npos);
  EXPECT_NE(json.find("\"calibration_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"resilience\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"test.report.counter\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  std::remove(path.c_str());
}

TEST(RunReport, NoPathMeansNoFile) {
  CliArgs args("metrics_test");
  args.add_flag("report", "", "output path");
  const char* argv[] = {"metrics_test"};
  ASSERT_TRUE(args.parse(1, argv));
  benchutil::RunReport report("unused");
  benchutil::write_report(args, nullptr, report);  // must not throw
  std::ifstream in("");
  EXPECT_FALSE(in.good());
}

}  // namespace
}  // namespace vmap
