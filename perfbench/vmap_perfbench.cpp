// Workload binary of the repository benchmark (see perfbench/README.md).
//
// One process runs one workload: it sets up its inputs (several times, so
// set-up time is a median), repeats the timed phase within --seconds,
// checks every output, and prints one JSON object on the last
// line of stdout with the raw per-iteration timings, counts and checks.
// perfbench/run.py turns that into the benchmark's metrics.
//
// It only calls the library's public API and times those calls
// from outside; layer detail comes from the metrics counters and the
// VMAP_TRACE spans the library already emits (run.py reads the trace).
// The bench.* spans opened here mark the calls into each layer.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chip/floorplan.hpp"
#include "core/dataset.hpp"
#include "core/eagle_eye.hpp"
#include "core/emergency.hpp"
#include "core/experiment.hpp"
#include "core/ols_model.hpp"
#include "core/online_monitor.hpp"
#include "core/pipeline.hpp"
#include "grid/power_grid.hpp"
#include "serve/fleet.hpp"
#include "sparse/csr.hpp"
#include "sparse/skyline_cholesky.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/resilience.hpp"
#include "util/trace.hpp"
#include "workload/benchmark_suite.hpp"

namespace {

using namespace vmap;
using Clock = std::chrono::steady_clock;

// --- Fixed workload parameters --------------------------------------------

constexpr std::uint64_t kRecordedSeed = 20150607;
/// Set-ups per run (set-up time is their median). design_cold's set-up only
/// builds the platform, so it is repeated more to steady a short time.
constexpr std::size_t kDesignColdSetups = 40;
constexpr std::size_t kRefitSetups = 3;
/// Datasets a run's timed iterations cycle through (one data seed each), so
/// a run's median covers several seeds' GL problems, not one seed's
/// straggler core. refit_sweep prepares one per set-up.
constexpr std::size_t kDatasetsPerRun = kRefitSetups;
/// Paper λ → internal GL budget (the experiment benches' --lambda-scale).
constexpr double kLambdaScale = 0.10;
constexpr double kTable2Lambda = 60.0;
constexpr std::size_t kTable2SensorsPerCore = 2;
const std::vector<double> kTable1Lambdas = {10, 20, 30, 40, 50, 60};
/// Serving fleet: the throughput fleet size of bench/serving_suite
/// (--chips default 32). Each chip replays the test maps from its own
/// seeded offset.
constexpr std::size_t kChips = 32;
/// Saturation rate of that fleet (decided readings/s, one producer lane and
/// two shard workers), measured on a 4-vCPU x86-64 VM with this build; the
/// saturation phase is sized from it.
constexpr double kMeasuredSaturationRate = 560000.0;
/// Open-loop offered rate (readings/s): the highest rate at which a shard
/// worker stalled for the fleet watchdog's FleetConfig::stall_timeout_ms
/// (250 ms) still finds room in its producer ring
/// (FleetConfig::producer_ring_capacity, 4096), with two shards:
/// 2 x 4096 / 0.25 s. Above it, host stalls fail readings: at half the
/// saturation rate, 8 of 30 runs on a shared 4-vCPU VM failed some. Written
/// into BENCHMARK.json's workload descriptions; keep them in step.
constexpr double kOfferedRate = 32768.0;
/// Share of a serving stage's seconds spent in the open loop; the
/// saturation phase decides enough readings to fill the rest at
/// kMeasuredSaturationRate.
constexpr double kOpenLoopShare = 0.6;
/// Closed-loop saturation: the producer keeps at most this many readings
/// admitted-but-undecided fleet-wide. Below one producer ring's capacity
/// (FleetConfig::producer_ring_capacity), so no shard can ever shed.
constexpr std::uint64_t kSaturationBacklog = 2048;
/// Length of the serving stage after each workload's timed phase: 12
/// open-loop and about 8 saturation windows.
constexpr double kProbeSeconds = 5.0;
/// Window over which the open loop's latency percentiles and the
/// saturation rate are taken before the median across windows. At
/// kOfferedRate a window holds about 800 alarm transitions, so its p99 has
/// about eight samples beyond it.
constexpr double kServeWindowS = 0.25;

// Byte-exact reference outputs at kRecordedSeed (%.17g).
constexpr double kRefTeRatio = 0.4794952681388011;
constexpr std::size_t kRefSensorsPlaced = 16;
struct SweepRef {
  double lambda;
  std::size_t sensors;
  double rel_err;
};
const std::vector<SweepRef> kRefSweep = {
    {10, 28, 0.002026904352944142},   {20, 39, 0.0016436023658873327},
    {30, 59, 0.001254515369369185},   {40, 80, 0.000827183739839788},
    {50, 118, 0.0005288428089741195}, {60, 134, 0.00046596886383410606},
};

// --- Small helpers ----------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}


double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    out += c;
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::uint64_t counter(const char* name) {
  return metrics::counter(name).value();
}

std::size_t cap_hits(const ResilienceReport& report) {
  std::size_t hits = 0;
  for (const ResilienceEvent& e : report.events())
    if (e.stage == "group_lasso" &&
        e.detail.find("iteration cap") != std::string::npos)
      ++hits;
  return hits;
}

/// Operation accounting: every fit, evaluation and reading is attempted,
/// and fails on a throw or a mismatch with the reference outputs.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, std::uint64_t ops, const std::string& what) {
    attempted += ops;
    if (ok) return;
    failed += ops;
    if (failures.size() < 20) failures.push_back(what);
  }
};

/// Named numbers reported by one process (per-layer values and counts).
using Values = std::vector<std::pair<std::string, double>>;

void put(Values& values, const std::string& name, double v) {
  for (auto& [k, old] : values)
    if (k == name) {
      old = v;
      return;
    }
  values.emplace_back(name, v);
}

// --- Platform -----------------------------------------------------------------

struct Platform {
  core::ExperimentSetup setup;
  std::unique_ptr<grid::PowerGrid> grid;
  std::unique_ptr<chip::Floorplan> floorplan;
  std::vector<workload::BenchmarkProfile> suite;
};

/// The experiment benches' platform: default_setup(), with the --quick
/// sample counts when `quick`. Its data seed is set per dataset
/// (data_config below).
Platform make_platform(bool quick) {
  Platform p;
  p.setup = core::default_setup();
  if (quick) {
    p.setup.data.train_maps_per_benchmark = 80;
    p.setup.data.test_maps_per_benchmark = 40;
    p.setup.data.warmup_steps = 150;
    p.setup.data.calibration_steps = 300;
  }
  p.grid = std::make_unique<grid::PowerGrid>(p.setup.grid);
  p.floorplan = std::make_unique<chip::Floorplan>(*p.grid, p.setup.floorplan);
  p.suite = workload::parsec_like_suite();
  return p;
}

/// Data seed of a run's k-th dataset: --seed itself for k = 0, so the
/// recorded seed's reference outputs are checked there, and a splitmix64
/// mix of it otherwise.
std::uint64_t dataset_seed(std::uint64_t seed, std::size_t k) {
  if (k == 0) return seed;
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * k;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The platform's data configuration with the run's k-th data seed. The
/// grid, floorplan and suite do not depend on the seed.
core::DataConfig data_config(const Platform& p, std::uint64_t seed,
                             std::size_t k) {
  core::DataConfig data = p.setup.data;
  data.seed = dataset_seed(seed, k);
  return data;
}

core::Dataset collect(const Platform& p, const core::DataConfig& data) {
  TraceSpan span("bench.collect");
  return core::DataCollector(*p.grid, *p.floorplan, data).collect(p.suite);
}

core::PipelineConfig table2_config() {
  core::PipelineConfig config;
  config.lambda = kTable2Lambda * kLambdaScale;
  config.sensors_per_core = kTable2SensorsPerCore;
  return config;
}

/// Stepping matrix G + C/dt of the platform's transient simulator (resistive
/// pads), factored once through the public skyline API: the envelope gives
/// the computed bytes and flops of one transient step's two triangular
/// sweeps, and the factor time is one factorization's cost.
void measure_step_matrix(const Platform& p, Values& layer) {
  const auto& g = p.grid->conductance();
  const auto& cap = p.grid->capacitance();
  const double dt = p.setup.data.dt;
  std::vector<double> values = g.values();
  for (std::size_t r = 0; r < g.rows(); ++r)
    for (std::size_t k = g.row_ptr()[r]; k < g.row_ptr()[r + 1]; ++k)
      if (g.col_idx()[k] == r) values[k] += cap[r] / dt;
  const sparse::CsrMatrix step(g.rows(), g.cols(), g.row_ptr(), g.col_idx(),
                               std::move(values));
  std::vector<double> factor_ms;
  std::size_t envelope = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    const sparse::SkylineCholesky chol(step);
    factor_ms.push_back(1e3 * seconds_since(t0));
    envelope = chol.envelope_size();
  }
  const double n = static_cast<double>(g.rows());
  const double env = static_cast<double>(envelope);
  put(layer, "grid.factor_ms", median(factor_ms));
  // Forward + back substitution each stream the envelope once (8-byte
  // values) and do one multiply-add per entry; the O(n) vector work
  // (rhs build, permutation, diagonal) is added at 8 doubles per node.
  put(layer, "transient.bytes_per_step", 2.0 * 8.0 * env + 8.0 * 8.0 * n);
  put(layer, "transient.flops_per_step", 2.0 * 2.0 * env + 6.0 * n);
}

// --- Serving stage --------------------------------------------------------------

struct ServeResult {
  double readings_per_s = 0.0;  ///< saturation phase, decided readings/s
  double p50_ms = 0.0, p99_ms = 0.0;
  std::size_t alarm_samples = 0;
  double gen_lag_p99_ms = 0.0;
  double ingest_ns = 0.0;
  double predict_ns = 0.0;
  std::uint64_t processed = 0, shed = 0, alarm_events = 0;
};

/// Replays the test maps' sensor readings through a MonitorFleet, from one
/// producer lane into `shards` shard workers, for about `seconds`: an open
/// loop at kOfferedRate for kOpenLoopShare of them, then a closed loop that
/// decides as many readings as kMeasuredSaturationRate fills the rest with,
/// as fast as the fleet takes them. Rates and latency percentiles are
/// medians over short windows, so a stall of the shared machine moves the
/// windows it hits, not the result. Every reading is an operation; it fails
/// when shed, rejected, left undecided, or when its chip's alarm
/// transitions differ from a standalone OnlineMonitor replay.
ServeResult serve_stage(const core::PlacementModel& model,
                        const linalg::Matrix& x_test, std::uint64_t seed,
                        std::size_t shards, double seconds, Ops& ops) {
  const double open_s = kOpenLoopShare * seconds;
  const auto sat_readings = static_cast<std::uint64_t>(
      (1.0 - kOpenLoopShare) * seconds * kMeasuredSaturationRate);
  const std::size_t q_count = model.sensor_rows().size();
  // Row j = the placed sensors' readings of test map j.
  const linalg::Matrix maps =
      x_test.select_rows(model.sensor_rows()).transposed();
  const std::size_t n_maps = maps.rows();
  std::vector<std::size_t> offset(kChips);
  std::mt19937_64 rng(seed ^ 0x5E12B3A7ULL);
  for (auto& o : offset) o = static_cast<std::size_t>(rng() % n_maps);
  auto values_of = [&](std::size_t chip, std::uint64_t k) {
    const double* row = maps.row_data((offset[chip] + k) % n_maps);
    return linalg::Vector(std::vector<double>(row, row + q_count));
  };

  core::OnlineMonitorConfig mc;
  mc.alarm_consecutive = 1;
  mc.release_consecutive = 1;
  serve::FleetConfig fc;
  fc.shards = shards;
  serve::MonitorFleet fleet(fc);
  auto shared = std::make_shared<const core::PlacementModel>(model);
  for (std::size_t c = 0; c < kChips; ++c)
    fleet.add_chip(core::OnlineMonitor(model, mc), shared);
  const serve::ProducerId producer = fleet.register_producer();

  std::vector<std::uint64_t> sent(kChips, 0);
  std::uint64_t total_sent = 0;
  std::uint64_t refused = 0;
  std::vector<double> ingest_ns;
  ingest_ns.reserve(static_cast<std::size_t>(open_s * kOfferedRate) + 16);
  auto send = [&](std::size_t chip) {
    serve::Reading r;
    r.chip = static_cast<serve::ChipId>(chip);
    r.sequence = ++sent[chip];
    r.values = values_of(chip, r.sequence - 1);
    ++total_sent;
    const auto t0 = Clock::now();
    const serve::IngestResult res = fleet.ingest(producer, std::move(r));
    const auto t1 = Clock::now();
    if (!res.accepted) ++refused;
    return std::pair{t0, t1};
  };
  auto wait_decided = [&] {
    while (fleet.stats().processed + refused < total_sent)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  };

  // The fleet runs on its own threads (one producer, `shards` workers):
  // keep the global pool at one thread meanwhile so no kernel fans out
  // beside them.
  const std::size_t pool_threads = thread_count();
  set_thread_count(1);
  ServeResult out;
  fleet.start();

  // Open loop: reading i is due at t0 + i / rate whatever the fleet does;
  // alarm latency counts from the due time, so generator stalls show.
  std::vector<double> lag_ms;  // ingest call minus due time, per reading
  lag_ms.reserve(static_cast<std::size_t>(open_s * kOfferedRate) + 16);
  std::optional<TraceSpan> phase(std::in_place, "bench.serve.open_loop");
  const auto open_t0 = Clock::now();
  const double period_s = 1.0 / kOfferedRate;
  for (std::uint64_t i = 0;; ++i) {
    const double due_s = static_cast<double>(i) * period_s;
    if (due_s >= open_s) break;
    const auto due = open_t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(due_s));
    while (Clock::now() < due) {
    }
    const auto [t_call, t_done] = send(i % kChips);
    lag_ms.push_back(
        std::chrono::duration<double, std::milli>(t_call - due).count());
    ingest_ns.push_back(
        std::chrono::duration<double, std::nano>(t_done - t_call).count());
  }
  wait_decided();
  phase.reset();
  std::vector<serve::AlarmEvent> events = fleet.drain_alarms();
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::floor(open_s / kServeWindowS)));
  std::vector<std::vector<double>> latency(windows);
  for (const serve::AlarmEvent& e : events) {
    const std::uint64_t index = (e.sequence - 1) * kChips + e.chip;
    if (index >= lag_ms.size()) continue;
    const auto w = static_cast<std::size_t>(
        static_cast<double>(index) * period_s / kServeWindowS);
    latency[std::min(w, windows - 1)].push_back(lag_ms[index] +
                                                e.latency_ms);
    ++out.alarm_samples;
  }
  std::vector<double> p50, p99;
  for (const auto& window : latency) {
    if (window.empty()) continue;
    p50.push_back(quantile(window, 0.50));
    p99.push_back(quantile(window, 0.99));
  }
  out.p50_ms = median(p50);
  out.p99_ms = median(p99);
  out.gen_lag_p99_ms = quantile(lag_ms, 0.99);
  out.ingest_ns = median(ingest_ns);

  // Closed loop: as fast as the fleet decides, never more than
  // kSaturationBacklog readings outstanding, so nothing is shed.
  phase.emplace("bench.serve.saturation");
  const auto sat_t0 = Clock::now();
  const std::uint64_t sat_begin = total_sent;
  std::size_t chip = 0;
  std::uint64_t decided = fleet.stats().processed;
  std::vector<double> window_rates;
  auto window_t0 = sat_t0;
  std::uint64_t window_decided0 = decided;
  while (total_sent - sat_begin < sat_readings) {
    for (int burst = 0; burst < 64; ++burst) {
      send(chip);
      chip = (chip + 1) % kChips;
    }
    decided = fleet.stats().processed;
    while (total_sent - refused - decided > kSaturationBacklog) {
      std::this_thread::yield();
      decided = fleet.stats().processed;
    }
    const double window_s = seconds_since(window_t0);
    if (window_s >= kServeWindowS) {
      window_rates.push_back(
          static_cast<double>(decided - window_decided0) / window_s);
      window_t0 = Clock::now();
      window_decided0 = decided;
    }
  }
  wait_decided();
  phase.reset();
  out.readings_per_s =
      window_rates.empty()
          ? static_cast<double>(total_sent - sat_begin) /
                seconds_since(sat_t0)
          : median(window_rates);
  fleet.stop();
  set_thread_count(pool_threads);
  for (serve::AlarmEvent& e : fleet.drain_alarms()) events.push_back(e);
  const serve::FleetStats stats = fleet.stats();
  out.processed = stats.processed;
  out.shed = stats.shed;
  out.alarm_events = stats.alarm_events;

  // Predict kernel alone, outside the fleet, on the same readings at the
  // fleet's micro-batch width.
  {
    TraceSpan span("bench.serve.predict");
    const std::size_t width = fc.max_batch;
    linalg::Matrix batch(q_count, width);
    for (std::size_t j = 0; j < width; ++j)
      for (std::size_t q = 0; q < q_count; ++q)
        batch(q, j) = maps(j % n_maps, q);
    std::size_t reps = 0;
    double sink = 0.0;
    const auto t0 = Clock::now();
    while (seconds_since(t0) < 0.2 || reps < 16) {
      sink += model.predict_from_sensor_readings_batch(batch)(0, reps % width);
      ++reps;
    }
    out.predict_ns = 1e9 * seconds_since(t0) /
                     static_cast<double>(reps * width);
    ops.check(std::isfinite(sink), 1, "non-finite batch prediction");
  }

  // Reference replay: each chip's sequence through a standalone monitor.
  std::vector<std::vector<std::pair<std::uint64_t, bool>>> got(kChips);
  for (const serve::AlarmEvent& e : events)
    if (e.chip < kChips) got[e.chip].emplace_back(e.sequence, e.asserted);
  std::vector<std::uint64_t> chip_failed(kChips, 0);
  TraceSpan replay_span("bench.serve.reference");
  parallel_for(0, kChips, [&](std::size_t c) {
    auto& mine = got[c];
    std::sort(mine.begin(), mine.end());
    core::OnlineMonitor reference(model, mc);
    std::vector<std::pair<std::uint64_t, bool>> want;
    bool prev = false;
    for (std::uint64_t k = 0; k < sent[c]; ++k) {
      const auto d = reference.observe(values_of(c, k));
      if (d.alarm != prev) want.emplace_back(k + 1, d.alarm);
      prev = d.alarm;
    }
    // Readings whose transition outcome differs from the reference.
    std::vector<std::pair<std::uint64_t, bool>> diff;
    std::set_symmetric_difference(mine.begin(), mine.end(), want.begin(),
                                  want.end(), std::back_inserter(diff));
    const serve::ChipStats cs = fleet.chip_stats(static_cast<serve::ChipId>(c));
    const std::uint64_t undecided = sent[c] - std::min(sent[c], cs.samples);
    chip_failed[c] = diff.size() + undecided;
  });
  std::uint64_t failed = 0;
  for (std::uint64_t f : chip_failed) failed += f;
  failed = std::min(failed, total_sent);
  ops.attempted += total_sent;
  ops.failed += failed;
  if (failed > 0)
    ops.failures.push_back(std::to_string(failed) +
                           " readings shed, rejected, undecided or with "
                           "alarm transitions differing from the reference");
  return out;
}

/// One producer plus threads - 2 shard workers: one core stays free for the
/// fleet's watchdog and the system, which keeps the latency tail steady.
std::size_t serve_shards(std::size_t threads) {
  return threads > 2 ? threads - 2 : 1;
}

void put_serve(Values& layer, const ServeResult& s) {
  put(layer, "serve.readings_per_s", s.readings_per_s);
  put(layer, "serve.p50_ms", s.p50_ms);
  put(layer, "serve.p99_ms", s.p99_ms);
  put(layer, "serve.alarm_samples", static_cast<double>(s.alarm_samples));
  put(layer, "serve.gen_lag_p99_ms", s.gen_lag_p99_ms);
  put(layer, "serve.ingest_ns", s.ingest_ns);
  put(layer, "serve.predict_ns", s.predict_ns);
  put(layer, "serve.processed", static_cast<double>(s.processed));
  put(layer, "serve.shed", static_cast<double>(s.shed));
  put(layer, "serve.alarm_events", static_cast<double>(s.alarm_events));
}

// --- Workloads --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kRecordedSeed;
  double seconds = 10.0;
  std::size_t threads = 1;  ///< min(4, CPUs this process may run on)
  bool once = false;  ///< exactly one set-up and one timed iteration
  std::string scratch;
};

struct Iteration {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

struct Result {
  std::vector<double> setup_s;
  std::vector<Iteration> iterations;
  Values layer;  ///< set-up values, the first iteration's, the serving stage's
  ServeResult serve;
  Ops ops;
};

/// Runs `body` at least once, then again while another iteration of the
/// mean length so far still ends within opts.seconds of timed phase, so a
/// run's length does not depend on how far the last iteration overshoots.
/// Counters are zeroed before each iteration, so the counts reported are
/// those of one timed phase.
void timed_loop(const Options& opts, Result& result,
                const std::function<void(Values& layer)>& body) {
  double measured = 0.0;
  do {
    const bool first = result.iterations.empty();
    metrics::reset_all();
    Values layer;
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    {
      TraceSpan span("bench.timed");
      body(layer);
    }
    Iteration it;
    it.wall_s = seconds_since(t0);
    it.cpu_s = cpu_seconds() - cpu0;
    result.iterations.push_back(it);
    measured += it.wall_s;
    if (first) {
      for (auto& [k, v] : layer) put(result.layer, k, v);
      put(result.layer, "pool.batches", counter("pool.batches"));
      put(result.layer, "pool.worker_indices",
          counter("pool.worker_indices"));
      put(result.layer, "transient.steps", counter("transient.steps"));
      put(result.layer, "gl.penalized_solves",
          counter("gl.penalized_solves"));
      put(result.layer, "gl.budget_solves", counter("gl.budget_solves"));
      put(result.layer, "gl.sweeps", counter("gl.sweeps"));
      put(result.layer, "dataset.cache_hits", counter("dataset.cache_hits"));
    }
  } while (!opts.once &&
           measured * (1.0 + 1.0 / static_cast<double>(
                                       result.iterations.size())) <=
               opts.seconds);
}

/// Set-up `reps` times (once with --once; median reported); returns the
/// last set-up's state.
template <typename Setup>
auto repeated_setup(const Options& opts, std::size_t reps, Result& result,
                    Setup&& setup) {
  if (opts.once) reps = 1;
  for (std::size_t i = 0;; ++i) {
    metrics::reset_all();
    const auto t0 = Clock::now();
    auto state = setup();
    result.setup_s.push_back(seconds_since(t0));
    if (i + 1 == reps) return state;
  }
}

void setup_counts(Values& layer) {
  put(layer, "setup.transient.steps", counter("transient.steps"));
}

/// ROADMAP aim 1's canonical cold run at paper size: collect (no dataset
/// cache) → per-core GL at λ=60, top-2/core → OLS refit → Eagle-Eye →
/// Table-2 evaluation on all 19 test slices.
void run_design_cold(const Options& opts, Result& result) {
  const Platform p = repeated_setup(opts, kDesignColdSetups, result, [&] {
    return make_platform(/*quick=*/false);
  });
  setup_counts(result.layer);
  const double vth = p.setup.data.emergency_threshold;
  // te_ratio and sensor count of each dataset's first iteration.
  std::vector<std::optional<std::pair<double, std::size_t>>> outputs(
      kDatasetsPerRun);
  // The first iteration's model and test maps feed the serving stage; only
  // they and the current iteration's outputs stay alive, so peak RSS does
  // not depend on how many iterations fit in --seconds.
  std::unique_ptr<core::PlacementModel> serve_model;
  linalg::Matrix serve_x_test;

  timed_loop(opts, result, [&](Values& layer) {
    const std::size_t k = result.iterations.size() % kDatasetsPerRun;
    const auto tc = Clock::now();
    auto data = std::make_unique<core::Dataset>(
        collect(p, data_config(p, opts.seed, k)));
    put(layer, "dataset.collect_s", seconds_since(tc));

    ResilienceReport report;
    const auto te = Clock::now();
    std::vector<std::size_t> eagle_rows;
    {
      TraceSpan span("bench.eagle_eye");
      core::EagleEyeOptions ee;
      ee.strategy = core::EagleEyeStrategy::kWorstNoise;
      eagle_rows = core::eagle_eye_place(*data, *p.floorplan,
                                         kTable2SensorsPerCore, ee);
    }
    put(layer, "eagle.place_ms", 1e3 * seconds_since(te));

    std::unique_ptr<core::PlacementModel> model;
    const auto tf = Clock::now();
    try {
      TraceSpan span("bench.fit_placement");
      model = std::make_unique<core::PlacementModel>(core::fit_placement(
          *data, *p.floorplan, table2_config(), &report));
    } catch (const std::exception& e) {
      result.ops.check(false, 1 + data->benchmarks.size(),
                       std::string("fit_placement threw: ") + e.what());
      return;
    }
    put(layer, "pipeline.fit_s", seconds_since(tf));
    put(layer, "gl.cap_hits", static_cast<double>(cap_hits(report)));

    // Table 2, summed exactly as bench/table2_error_rates does.
    double ee_te_sum = 0.0, our_te_sum = 0.0, predict_s = 0.0, detect_s = 0.0;
    std::size_t eval_failed = 0;
    for (std::size_t b = 0; b < data->benchmarks.size(); ++b) {
      try {
        const linalg::Matrix x_test = data->x_test_for(b);
        const linalg::Matrix f_test = data->f_test_for(b);
        auto t = Clock::now();
        core::ErrorRates eagle, ours;
        {
          TraceSpan span("bench.eval.detect");
          eagle = core::evaluate_sensor_detector(f_test, x_test, eagle_rows,
                                                 vth);
        }
        detect_s += seconds_since(t);
        t = Clock::now();
        linalg::Matrix f_pred;
        {
          TraceSpan span("bench.eval.predict");
          f_pred = model->predict(x_test);
        }
        predict_s += seconds_since(t);
        t = Clock::now();
        {
          TraceSpan span("bench.eval.detect");
          ours = core::evaluate_prediction_detector(f_test, f_pred, vth);
        }
        detect_s += seconds_since(t);
        const bool ok = std::isfinite(ours.total_error_rate()) &&
                        ours.samples == f_test.cols() &&
                        eagle.samples == f_test.cols();
        if (!ok) ++eval_failed;
        ee_te_sum += eagle.total_error_rate();
        our_te_sum += ours.total_error_rate();
      } catch (const std::exception& e) {
        ++eval_failed;
        result.ops.failures.push_back(std::string("evaluation threw: ") +
                                      e.what());
      }
    }
    put(layer, "eval.predict_ms", 1e3 * predict_s);
    put(layer, "eval.detect_ms", 1e3 * detect_s);
    result.ops.attempted += data->benchmarks.size();
    result.ops.failed += eval_failed;

    const double te_ratio = our_te_sum / std::max(ee_te_sum, 1e-12);
    const std::size_t sensors = model->sensor_rows().size();
    bool fit_ok = sensors == kTable2SensorsPerCore * p.floorplan->core_count() &&
                  std::isfinite(te_ratio) && te_ratio > 0.0;
    if (k == 0 && opts.seed == kRecordedSeed)
      fit_ok = fit_ok && te_ratio == kRefTeRatio &&
               sensors == kRefSensorsPlaced;
    if (outputs[k])
      fit_ok = fit_ok && *outputs[k] == std::pair{te_ratio, sensors};
    else
      outputs[k] = std::pair{te_ratio, sensors};
    result.ops.check(fit_ok, 1,
                     "te_ratio " + num(te_ratio) + " / sensors_placed " +
                         std::to_string(sensors) +
                         " differ from the reference or from an earlier "
                         "iteration on the same dataset");
    put(layer, "te_ratio", te_ratio);
    put(layer, "sensors_placed", static_cast<double>(sensors));
    if (!serve_model) {
      serve_model = std::move(model);
      serve_x_test = data->x_test;
    }
  });

  measure_step_matrix(p, result.layer);
  if (serve_model) {
    result.serve = serve_stage(*serve_model, serve_x_test, opts.seed,
                               serve_shards(opts.threads), kProbeSeconds,
                               result.ops);
    put_serve(result.layer, result.serve);
  }
}

/// Table-1 λ refit sweep on a warm dataset: load a checksummed cache file
/// written at set-up, fit λ ∈ {10..60} with threshold selection + OLS
/// refit, score relative error on the test maps. Each set-up writes the
/// next of the run's datasets; the timed iterations cycle through them.
void run_refit_sweep(const Options& opts, Result& result) {
  auto cache = [&](std::size_t k) {
    return opts.scratch + "/refit_dataset_" + std::to_string(k) + ".bin";
  };
  std::vector<core::DataConfig> configs;
  std::vector<double> save_ms, collect_s;
  std::size_t setups = 0;
  const Platform p = repeated_setup(opts, kRefitSetups, result, [&] {
    Platform platform = make_platform(/*quick=*/true);
    const std::size_t k = setups++ % kDatasetsPerRun;
    const core::DataConfig config = data_config(platform, opts.seed, k);
    const auto tc = Clock::now();
    const core::Dataset data = collect(platform, config);
    collect_s.push_back(seconds_since(tc));
    const auto t0 = Clock::now();
    data.save(cache(k));
    save_ms.push_back(1e3 * seconds_since(t0));
    if (k == configs.size()) configs.push_back(config);
    return platform;
  });
  setup_counts(result.layer);
  put(result.layer, "dataset.save_ms", median(save_ms));
  put(result.layer, "dataset.collect_s", median(collect_s));
  measure_step_matrix(p, result.layer);
  // Per-λ sensor counts and rel_err of each dataset's first iteration.
  std::vector<std::optional<std::vector<std::pair<std::size_t, double>>>>
      outputs(configs.size());
  // The first iteration's λ=10 model and test maps feed the serving stage.
  std::unique_ptr<core::PlacementModel> serve_model;
  linalg::Matrix serve_x_test;

  timed_loop(opts, result, [&](Values& layer) {
    const std::size_t k = result.iterations.size() % configs.size();
    const std::uint64_t hits0 = counter("dataset.cache_hits");
    const auto tl = Clock::now();
    auto data = std::make_unique<core::Dataset>([&] {
      TraceSpan span("bench.load");
      return core::load_or_collect(cache(k), *p.grid, *p.floorplan,
                                   configs[k], p.suite);
    }());
    put(layer, "dataset.load_ms", 1e3 * seconds_since(tl));
    result.ops.check(counter("dataset.cache_hits") == hits0 + 1, 1,
                     "dataset cache was not hit");

    struct Point {
      std::size_t sensors = 0;
      double rel_err = 0.0, fit_s = 0.0;
      std::size_t cap_hits = 0;
      std::string error;
      std::unique_ptr<core::PlacementModel> model;
    };
    std::vector<Point> points(kTable1Lambdas.size());
    const auto tf = Clock::now();
    // One λ after another: each fit_placement fans its per-core problems
    // out over the pool. (Fitting the λ points concurrently instead makes
    // each fit serial, and the wall time then follows the λ=60 straggler,
    // whose iteration-cap hits vary by ±25% across seeds.)
    for (std::size_t i = 0; i < points.size(); ++i) {
      TraceSpan span("bench.sweep");
      Point& pt = points[i];
      try {
        ResilienceReport report;
        core::PipelineConfig config;
        config.lambda = kTable1Lambdas[i] * kLambdaScale;
        const auto t0 = Clock::now();
        pt.model = std::make_unique<core::PlacementModel>(
            core::fit_placement(*data, *p.floorplan, config, &report));
        pt.fit_s = seconds_since(t0);
        pt.cap_hits = cap_hits(report);
        TraceSpan score("bench.eval.predict");
        pt.rel_err = core::relative_error(data->f_test,
                                          pt.model->predict(data->x_test));
        pt.sensors = pt.model->sensor_rows().size();
      } catch (const std::exception& e) {
        pt.error = e.what();
      }
    }
    put(layer, "pipeline.fit_s", seconds_since(tf));
    std::vector<std::pair<std::size_t, double>> out;
    std::size_t hits = 0;
    double slowest = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& pt = points[i];
      hits += pt.cap_hits;
      slowest = std::max(slowest, pt.fit_s);
      bool ok = pt.error.empty() && std::isfinite(pt.rel_err) &&
                pt.rel_err > 0.0 && pt.sensors >= p.floorplan->core_count();
      if (ok && k == 0 && opts.seed == kRecordedSeed)
        ok = pt.sensors == kRefSweep[i].sensors &&
             pt.rel_err == kRefSweep[i].rel_err;
      if (ok && outputs[k])
        ok = (*outputs[k])[i] == std::pair{pt.sensors, pt.rel_err};
      out.emplace_back(pt.sensors, pt.rel_err);
      result.ops.check(ok, 1,
                       "lambda " + num(kTable1Lambdas[i]) + ": sensors " +
                           std::to_string(pt.sensors) + ", rel_err " +
                           num(pt.rel_err) + " " + pt.error);
      put(layer, "sensors@" + num(kTable1Lambdas[i]),
          static_cast<double>(pt.sensors));
      put(layer, "rel_err@" + num(kTable1Lambdas[i]), pt.rel_err);
    }
    if (!outputs[k]) outputs[k] = std::move(out);
    put(layer, "gl.cap_hits", static_cast<double>(hits));
    put(layer, "pipeline.slowest_fit_s", slowest);
    if (!serve_model) {
      serve_model = std::move(points.front().model);
      serve_x_test = data->x_test;
    }
  });

  if (serve_model) {
    result.serve = serve_stage(*serve_model, serve_x_test, opts.seed,
                               serve_shards(opts.threads), kProbeSeconds,
                               result.ops);
    put_serve(result.layer, result.serve);
  }
  std::error_code ec;
  for (std::size_t k = 0; k < configs.size(); ++k)
    std::filesystem::remove(cache(k), ec);
}

// --- Main -------------------------------------------------------------------

void print_result(const Options& opts, const Result& r) {
  std::string json = "{\"workload\":" + quote(opts.workload) +
                     ",\"seed\":" + std::to_string(opts.seed) +
                     ",\"threads\":" + std::to_string(opts.threads) +
                     ",\"setup_s\":[";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i)
    json += (i ? "," : "") + num(r.setup_s[i]);
  json += "],\"wall_s\":[";
  for (std::size_t i = 0; i < r.iterations.size(); ++i)
    json += (i ? "," : "") + num(r.iterations[i].wall_s);
  json += "],\"cpu_s\":[";
  for (std::size_t i = 0; i < r.iterations.size(); ++i)
    json += (i ? "," : "") + num(r.iterations[i].cpu_s);
  json += "],\"peak_rss_mb\":" + num(peak_rss_mb());
  json += ",\"attempted\":" + std::to_string(r.ops.attempted);
  json += ",\"failed\":" + std::to_string(r.ops.failed);
  json += ",\"failures\":[";
  for (std::size_t i = 0; i < r.ops.failures.size(); ++i)
    json += (i ? "," : "") + quote(r.ops.failures[i]);
  json += "],\"layer\":{";
  for (std::size_t i = 0; i < r.layer.size(); ++i)
    json += (i ? "," : "") + quote(r.layer[i].first) + ":" +
            num(r.layer[i].second);
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: vmap_perfbench --workload design_cold|refit_sweep "
               "[--seed N] [--seconds S] [--once] --scratch DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") opts.workload = value();
      else if (a == "--seed") opts.seed = std::stoull(value());
      else if (a == "--seconds") opts.seconds = std::stod(value());
      else if (a == "--scratch") opts.scratch = value();
      else if (a == "--once") opts.once = true;
      else return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  }
  if (opts.scratch.empty()) return usage();
  opts.threads = std::min<std::size_t>(4, available_cpus());

  set_log_level(LogLevel::kError);
  set_thread_count(opts.threads);
  Result result;
  try {
    if (opts.workload == "design_cold") run_design_cold(opts, result);
    else if (opts.workload == "refit_sweep") run_refit_sweep(opts, result);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s workload failed: %s\n",
                 opts.workload.c_str(), e.what());
    return 1;
  }
  print_result(opts, result);
  return 0;
}
