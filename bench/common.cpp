#include "common.hpp"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "util/flight_recorder.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace vmap::benchutil {

namespace {

volatile std::sig_atomic_t g_flush_entered = 0;

extern "C" void interrupt_flush_handler(int sig) {
  // One shot: a second signal while flushing falls straight through to the
  // default action instead of re-entering the (unsafe) flush path.
  if (!g_flush_entered) {
    g_flush_entered = 1;
    if (trace_enabled()) {
      const Status st = trace_flush();
      std::fprintf(stderr, "[signal] trace %s\n",
                   st.ok() ? "flushed" : st.to_string().c_str());
    }
    std::fprintf(stderr, "[signal] interrupted by signal %d; metrics: %s\n",
                 sig, metrics::snapshot_json().c_str());
    std::fprintf(stderr, "[signal] flight-recorder tail:\n");
    flight::dump(2);
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void install_interrupt_flush() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  std::signal(SIGINT, interrupt_flush_handler);
  std::signal(SIGTERM, interrupt_flush_handler);
  // Fatal-signal dumps (SIGSEGV/SIGABRT) come from the flight recorder:
  // the ring is async-signal dumpable where the trace buffer is not.
  flight::install_crash_dump();
}

void add_common_flags(CliArgs& args) {
  install_interrupt_flush();
  args.add_flag("cache", "vmap_dataset.cache",
                "dataset cache path ('' disables caching)");
  args.add_bool("quick", false,
                "reduced sample counts for fast smoke runs");
  args.add_flag("seed", "20150607", "experiment seed");
  args.add_flag("lambda-scale", "0.10",
                "internal budget per unit of paper lambda");
  args.add_bool("verbose", false, "log collection progress");
  args.add_flag("threads", "0",
                "worker threads for collection/fitting (0 = VMAP_THREADS "
                "env var, else all hardware threads; 1 = serial)");
  args.add_flag("emergency-rate", "0.30",
                "calibrated chip-level emergency base rate (0 = use "
                "--target-droop instead)");
  args.add_flag("target-droop", "0.26",
                "calibrated worst-case droop depth in volts (fallback when "
                "--emergency-rate is 0)");
  args.add_bool("two-layer", false,
                "model a low-resistance top-metal mesh over the device grid "
                "(changes the platform; dataset re-collects)");
  args.add_flag("pad-inductance", "0",
                "package inductance per pad in henries, e.g. 5e-10 "
                "(changes the platform; dataset re-collects)");
  args.add_flag("report", "",
                "write a machine-readable run report (JSON) to this path: "
                "key result scalars, timings, metrics snapshot, resilience "
                "report");
}

Platform load_platform(const CliArgs& args) {
  set_log_level(args.get_bool("verbose") ? LogLevel::kInfo : LogLevel::kWarn);
  set_thread_count(static_cast<std::size_t>(args.get_int("threads")));

  Platform platform;
  platform.setup = core::default_setup();
  platform.setup.data.seed =
      static_cast<std::uint64_t>(args.get_int("seed"));
  platform.setup.data.target_emergency_rate =
      args.get_double("emergency-rate");
  platform.setup.data.target_droop = args.get_double("target-droop");
  platform.setup.grid.two_layer = args.get_bool("two-layer");
  platform.setup.grid.pad_inductance = args.get_double("pad-inductance");
  if (args.get_bool("quick")) {
    platform.setup.data.train_maps_per_benchmark = 80;
    platform.setup.data.test_maps_per_benchmark = 40;
    platform.setup.data.warmup_steps = 150;
    platform.setup.data.calibration_steps = 300;
  }

  platform.grid = std::make_unique<grid::PowerGrid>(platform.setup.grid);
  platform.floorplan = std::make_unique<chip::Floorplan>(
      *platform.grid, platform.setup.floorplan);
  platform.suite = workload::parsec_like_suite();

  Timer timer;
  platform.data =
      core::load_or_collect(args.get("cache"), *platform.grid,
                            *platform.floorplan, platform.setup.data,
                            platform.suite, platform.report.get());
  platform.load_ms = timer.millis();
  std::fprintf(stderr,
               "[platform] M=%zu candidates, K=%zu blocks, N_train=%zu, "
               "N_test=%zu (%.1f s)\n",
               platform.data.num_candidates(), platform.data.num_blocks(),
               platform.data.x_train.cols(), platform.data.x_test.cols(),
               timer.seconds());
  return platform;
}

void print_resilience(const Platform& platform) {
  if (!platform.report) return;
  if (platform.report->clean()) {
    std::fprintf(stderr, "[resilience] all clean: no retries, fallbacks, or "
                         "recollections\n");
    return;
  }
  std::fprintf(stderr, "[resilience] %s\n",
               platform.report->summary().c_str());
}

double scaled_lambda(const CliArgs& args, double paper_lambda) {
  return paper_lambda * args.get_double("lambda-scale");
}

namespace {

void json_escape_into(std::string& out, const std::string& in) {
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Full-precision double literal: %.17g round-trips IEEE doubles exactly,
/// which is what lets perf_gate.py hold correctness scalars byte-identical.
std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void append_pairs(std::string& json,
                  const std::vector<std::pair<std::string, double>>& pairs) {
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i) json += ",";
    json += "\"";
    json_escape_into(json, pairs[i].first);
    json += "\":" + json_number(pairs[i].second);
  }
}

}  // namespace

double calibration_ms() {
  // A serially dependent FMA chain: fixed work, one thread, no memory
  // traffic — proportional to single-core speed on any machine. The
  // volatile sink keeps the loop alive under -O2.
  double best = 0.0;
  for (int run = 0; run < 3; ++run) {
    Timer t;
    double acc = 1.0;
    for (int i = 0; i < 20000000; ++i) acc = acc * 1.0000000001 + 1e-12;
    volatile double sink = acc;
    (void)sink;
    const double ms = t.millis();
    if (run == 0 || ms < best) best = ms;
  }
  return best;
}

void write_report(const CliArgs& args, const Platform* platform,
                  const RunReport& report) {
  const std::string path = args.get("report");
  if (path.empty()) return;

  std::string json = "{\n";
  json += "  \"schema\": 1,\n";
  json += "  \"bench\": \"";
  json_escape_into(json, report.bench);
  json += "\",\n";
  if (platform) {
    char hash[32];
    std::snprintf(hash, sizeof(hash), "0x%016llx",
                  static_cast<unsigned long long>(platform->data.platform));
    json += "  \"platform_hash\": \"" + std::string(hash) + "\",\n";
    json += "  \"seed\": " +
            std::to_string(platform->setup.data.seed) + ",\n";
  }
  json += "  \"threads\": " + std::to_string(thread_count()) + ",\n";
  json += "  \"calibration_ms\": " + json_number(calibration_ms()) + ",\n";

  json += "  \"tags\": {";
  for (std::size_t i = 0; i < report.tags.size(); ++i) {
    if (i) json += ",";
    json += "\"";
    json_escape_into(json, report.tags[i].first);
    json += "\":\"";
    json_escape_into(json, report.tags[i].second);
    json += "\"";
  }
  json += "},\n";

  json += "  \"scalars\": {";
  append_pairs(json, report.scalars);
  json += "},\n";

  json += "  \"timings_ms\": {";
  append_pairs(json, report.timings_ms);
  json += "},\n";

  // Resilience: the counters the gate watches plus the full event list so
  // a degraded run is diagnosable from the artifact alone.
  json += "  \"resilience\": {";
  if (platform && platform->report) {
    const ResilienceReport& r = *platform->report;
    json += "\"clean\": " + std::string(r.clean() ? "true" : "false");
    json += ", \"retries\": " + std::to_string(r.retries());
    json += ", \"fallbacks\": " + std::to_string(r.fallbacks());
    json += ", \"recollects\": " + std::to_string(r.recollects());
    json += ", \"events\": [";
    const auto events = r.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i) json += ",";
      json += "{\"stage\": \"";
      json_escape_into(json, events[i].stage);
      json += "\", \"action\": \"";
      json += resilience_action_name(events[i].action);
      json += "\", \"detail\": \"";
      json_escape_into(json, events[i].detail);
      json += "\"}";
    }
    json += "]";
  } else {
    json += "\"clean\": true, \"retries\": 0, \"fallbacks\": 0, "
            "\"recollects\": 0, \"events\": []";
  }
  json += "},\n";

  json += "  \"metrics\": " + metrics::snapshot_json() + ",\n";

  const char* trace_env = std::getenv("VMAP_TRACE");
  json += "  \"trace\": \"";
  json_escape_into(json, trace_env ? trace_env : "");
  json += "\"\n}\n";

  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write run report: " + path);
  out << json;
  out.flush();
  if (!out) throw std::runtime_error("run report write failed: " + path);
  std::fprintf(stderr, "[report] wrote %s\n", path.c_str());
}

}  // namespace vmap::benchutil
