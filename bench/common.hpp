#pragma once
// Shared harness for the experiment-reproduction benches.
//
// Every bench binary regenerates one table/figure of the paper on the same
// canonical platform (core::default_setup()). Because full data collection
// costs minutes of transient simulation, the collected dataset is cached on
// disk (vmap_dataset.cache by default) and reused across binaries — the
// cache is keyed to the full DataConfig, so changing flags forces a
// re-collection automatically.

#include <memory>
#include <string>
#include <vector>

#include "chip/floorplan.hpp"
#include "core/dataset.hpp"
#include "core/experiment.hpp"
#include "grid/power_grid.hpp"
#include "util/cli.hpp"
#include "util/resilience.hpp"
#include "workload/benchmark_suite.hpp"

namespace vmap::benchutil {

/// Everything a bench needs: configured substrate + collected data.
struct Platform {
  core::ExperimentSetup setup;
  std::unique_ptr<grid::PowerGrid> grid;
  std::unique_ptr<chip::Floorplan> floorplan;
  std::vector<workload::BenchmarkProfile> suite;
  core::Dataset data;
  /// Wall time of load_or_collect (cache load or full collection).
  double load_ms = 0.0;
  /// Accumulates every guardrail action taken during platform construction
  /// and any fit the bench threads it into (heap-held: the report owns a
  /// mutex, and Platform is returned by value).
  std::unique_ptr<ResilienceReport> report =
      std::make_unique<ResilienceReport>();
};

/// Machine-readable outcome of one bench run, written as JSON by
/// write_report() when --report names a file. Scalars are the bench's key
/// correctness results (TE, rel-err, sensor counts, ...) and are gated
/// byte-identically by tools/perf_gate.py; timings are wall-clock and
/// gated with a relative tolerance after calibration normalization.
struct RunReport {
  explicit RunReport(std::string bench_name) : bench(std::move(bench_name)) {}
  std::string bench;
  std::vector<std::pair<std::string, double>> scalars;
  std::vector<std::pair<std::string, double>> timings_ms;
  /// Free-form string annotations ("sections" -> "e", ...), emitted as a
  /// "tags" object. Not gated; they make the artifact self-describing
  /// (which configuration produced these scalars).
  std::vector<std::pair<std::string, std::string>> tags;

  void scalar(const std::string& name, double value) {
    scalars.emplace_back(name, value);
  }
  void timing(const std::string& name, double ms) {
    timings_ms.emplace_back(name, ms);
  }
  void tag(const std::string& name, const std::string& value) {
    tags.emplace_back(name, value);
  }
};

/// Fixed single-threaded arithmetic workload, in milliseconds (min of
/// three runs). Reports carry it so perf gates can compare wall times
/// across machines of different speed: gate on wall/calibration, not raw
/// wall.
double calibration_ms();

/// Writes the run report named by --report (no-op when the flag is
/// empty/absent): schema version, bench name, platform hash + seed +
/// thread count (when `platform` is non-null), calibration timing, the
/// scalars/timings, the full metrics snapshot, and the resilience report.
void write_report(const CliArgs& args, const Platform* platform,
                  const RunReport& report);

/// Registers the flags shared by all experiment benches. Also installs the
/// SIGINT/SIGTERM teardown handler (install_interrupt_flush) so a ^C'd or
/// terminated bench still leaves its VMAP_TRACE file and a metrics
/// snapshot behind.
void add_common_flags(CliArgs& args);

/// Installs SIGINT/SIGTERM handlers that flush the active VMAP_TRACE trace
/// file and dump a metrics snapshot to stderr before re-raising the signal
/// (so the process still dies with the conventional signal exit status).
/// Best-effort by design: the flush path is not async-signal-safe, which
/// is acceptable for an interactive interrupt of a bench tool — the
/// alternative is losing the whole trace every time. Idempotent.
void install_interrupt_flush();

/// Builds the platform from parsed flags (collects or loads the dataset).
Platform load_platform(const CliArgs& args);

/// Prints the platform's resilience report to stderr: one "all clean" line
/// when nothing degraded, otherwise the full event summary. Call at the end
/// of a bench so recoveries (cache recollection, solver fallbacks, ridge
/// refits) are never silently absorbed into the results.
void print_resilience(const Platform& platform);

/// Paper-λ to internal group-lasso budget: the paper sweeps λ ∈ [10, 60] on
/// its (unnormalized-objective) SOCP; our normalized-Gram budget lives on a
/// different scale, so benches convert with budget = λ · scale. The default
/// scale maps λ = 10 … 60 onto roughly the paper's 2 … 16 sensors/core.
double scaled_lambda(const CliArgs& args, double paper_lambda);

}  // namespace vmap::benchutil
