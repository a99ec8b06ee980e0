// Ablations backing DESIGN.md §5: what each design choice buys.
//
//  A. Placement strategy at a fixed sensor budget — group lasso vs
//     Eagle-Eye (both variants) vs static-IR vs uniform vs random, all
//     evaluated with the same chip-wide OLS predictor so only *where* the
//     sensors sit differs.
//  B. OLS refit vs raw (shrunk) GL coefficients across λ — §2.3's bias.
//  C. Per-core vs whole-chip GL decomposition.
//  D. BCD vs FISTA on the same per-core problem — support agreement,
//     objective gap, runtime.
//  E. Selection head-to-head — group lasso vs greedy forward R², each
//     followed by the same per-core OLS refit, on the Table-2 metrics and
//     fit wall time.
//
// --sections picks a subset (e.g. --sections=e for the CI ablation gate).

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/baselines.hpp"
#include "core/eagle_eye.hpp"
#include "core/emergency.hpp"
#include "core/group_lasso.hpp"
#include "core/normalizer.hpp"
#include "core/ols_model.hpp"
#include "core/pipeline.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace vmap;

std::string scalar_key(std::string name) {
  for (char& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return name;
}

void placement_ablation(const benchutil::Platform& platform,
                        std::size_t sensors_per_core,
                        benchutil::RunReport& report) {
  const auto& data = platform.data;
  const std::size_t total =
      sensors_per_core * platform.floorplan->core_count();

  std::printf("\n== A. placement strategy at %zu sensors (%zu per core), "
              "identical OLS predictor ==\n",
              total, sensors_per_core);
  TablePrinter table({"placement", "rel error(%)", "rmse(mV)", "ME", "WAE",
                      "TE"});
  auto add = [&](const std::string& name,
                 const std::vector<std::size_t>& rows) {
    const auto eval = core::evaluate_placement_with_ols(data, rows);
    report.scalar("rel_err." + scalar_key(name), eval.relative_error);
    report.scalar("te." + scalar_key(name),
                  eval.detection.total_error_rate());
    table.add_row({name, TablePrinter::fmt(100.0 * eval.relative_error, 3),
                   TablePrinter::fmt(1e3 * eval.rmse_volts, 2),
                   TablePrinter::fmt(eval.detection.miss_rate(), 4),
                   TablePrinter::fmt(eval.detection.wrong_alarm_rate(), 4),
                   TablePrinter::fmt(eval.detection.total_error_rate(), 4)});
  };

  core::PipelineConfig config;
  config.lambda = 6.0;
  config.sensors_per_core = sensors_per_core;
  const auto model = core::fit_placement(data, *platform.floorplan, config);
  add("group lasso (proposed)", model.sensor_rows());

  add("greedy forward R2",
      core::place_greedy_r2(data, *platform.floorplan, sensors_per_core));
  core::EagleEyeOptions worst;
  worst.strategy = core::EagleEyeStrategy::kWorstNoise;
  add("eagle-eye worst-noise",
      core::eagle_eye_place(data, *platform.floorplan, sensors_per_core,
                            worst));
  core::EagleEyeOptions coverage;
  coverage.strategy = core::EagleEyeStrategy::kGreedyCoverage;
  add("eagle-eye greedy-coverage",
      core::eagle_eye_place(data, *platform.floorplan, sensors_per_core,
                            coverage));
  add("worst static IR",
      core::place_worst_static_ir(data, *platform.grid, *platform.floorplan,
                                  total));
  add("PCA leverage", core::place_pca_leverage(data, total, total));
  add("uniform lattice", core::place_uniform(data, *platform.grid, total));
  add("random (seed 1)", core::place_random(data, total, 1));
  add("random (seed 2)", core::place_random(data, total, 2));
  table.print(std::cout);
}

void refit_ablation(const benchutil::Platform& platform,
                    benchutil::RunReport& report) {
  const auto& data = platform.data;
  std::printf("\n== B. OLS refit vs raw GL coefficients (§2.3) ==\n");
  TablePrinter table({"lambda", "#sensors", "refit rel err(%)",
                      "raw-GL rel err(%)", "raw/refit"});
  for (double paper_lambda : {10.0, 30.0, 60.0}) {
    core::PipelineConfig with;
    with.lambda = paper_lambda * 0.10;
    core::PipelineConfig without = with;
    without.refit_ols = false;
    const auto refit = core::fit_placement(data, *platform.floorplan, with);
    const auto raw = core::fit_placement(data, *platform.floorplan, without);
    const double e_refit =
        core::relative_error(data.f_test, refit.predict(data.x_test));
    const double e_raw =
        core::relative_error(data.f_test, raw.predict(data.x_test));
    const std::string tag = "@" + TablePrinter::fmt(paper_lambda, 0);
    report.scalar("refit_rel_err" + tag, e_refit);
    report.scalar("raw_rel_err" + tag, e_raw);
    table.add_row({TablePrinter::fmt(paper_lambda, 0),
                   TablePrinter::fmt(refit.sensor_rows().size()),
                   TablePrinter::fmt(100.0 * e_refit, 3),
                   TablePrinter::fmt(100.0 * e_raw, 3),
                   TablePrinter::fmt(e_raw / e_refit, 1)});
  }
  table.print(std::cout);
  std::printf("(the GL budget shrinks coefficients; predicting with them "
              "directly inflates the error — the paper's argument for the "
              "refit)\n");
}

void decomposition_ablation(const benchutil::Platform& platform,
                            benchutil::RunReport& report) {
  const auto& data = platform.data;
  std::printf("\n== C. per-core vs whole-chip group lasso ==\n");
  TablePrinter table({"mode", "lambda", "#sensors", "rel error(%)",
                      "fit time(s)"});
  for (bool per_core : {true, false}) {
    // Whole-chip gets the aggregate budget (8x the per-core one).
    core::PipelineConfig config;
    config.per_core = per_core;
    config.lambda = per_core
                        ? 3.0
                        : 3.0 * static_cast<double>(
                                    platform.floorplan->core_count());
    Timer timer;
    const auto model = core::fit_placement(data, *platform.floorplan, config);
    const double seconds = timer.seconds();
    const double err =
        core::relative_error(data.f_test, model.predict(data.x_test));
    const std::string mode = per_core ? "per_core" : "whole_chip";
    report.scalar("sensors." + mode,
                  static_cast<double>(model.sensor_rows().size()));
    report.scalar("rel_err." + mode, err);
    report.timing("fit." + mode, 1e3 * seconds);
    table.add_row({per_core ? "per-core (8 problems)" : "whole-chip (1 problem)",
                   TablePrinter::fmt(config.lambda, 1),
                   TablePrinter::fmt(model.sensor_rows().size()),
                   TablePrinter::fmt(100.0 * err, 3),
                   TablePrinter::fmt(seconds, 1)});
  }
  table.print(std::cout);
}

void solver_ablation(const benchutil::Platform& platform,
                     benchutil::RunReport& report) {
  const auto& data = platform.data;
  std::printf("\n== D. BCD vs FISTA on core 0's GL problem ==\n");

  const auto candidate_rows =
      data.candidate_rows_for_core(*platform.floorplan, 0);
  const auto block_rows = data.critical_rows_for_core(*platform.floorplan, 0);
  const linalg::Matrix x = data.x_train.select_rows(candidate_rows);
  const linalg::Matrix f = data.f_train.select_rows(block_rows);
  const core::Normalizer xn(x), fn(f);
  const auto problem =
      core::GroupLassoProblem::from_data(xn.normalize(x), fn.normalize(f));

  TablePrinter table({"solver", "mu/mu_max", "iterations", "converged",
                      "objective", "#active (T=1e-3)", "time(ms)"});
  for (double fraction : {0.5, 0.2, 0.05}) {
    for (auto solver : {core::GlSolver::kBcd, core::GlSolver::kFista}) {
      core::GroupLassoOptions options;
      options.solver = solver;
      options.max_iterations =
          solver == core::GlSolver::kFista ? 20000 : 2000;
      core::GroupLasso gl(problem, options);
      const double mu = gl.mu_max() * fraction;
      Timer timer;
      const auto result = gl.solve_penalized(mu);
      const double ms = timer.millis();
      // A numerical breakdown makes the whole comparison meaningless;
      // non-convergence only makes one row inexact, so flag it in place.
      if (!result.status.ok()) throw StatusError(result.status);
      const std::string tag =
          std::string(solver == core::GlSolver::kBcd ? "bcd" : "fista") +
          "@" + TablePrinter::fmt(fraction, 2);
      report.scalar("objective." + tag, result.objective);
      report.scalar("active." + tag,
                    static_cast<double>(result.active_groups(1e-3).size()));
      report.timing("solve." + tag, ms);
      table.add_row({solver == core::GlSolver::kBcd ? "BCD" : "FISTA",
                     TablePrinter::fmt(fraction, 2),
                     TablePrinter::fmt(result.iterations),
                     result.converged ? "yes" : "NO (cap)",
                     TablePrinter::fmt(result.objective, 6),
                     TablePrinter::fmt(result.active_groups(1e-3).size()),
                     TablePrinter::fmt(ms, 1)});
    }
  }
  table.print(std::cout);
  std::printf("(both reach the same objective and support; BCD's active-set "
              "sweeps are cheaper on sparse solutions)\n");
}

/// The greedy_r2+ols model: per core, greedy forward-R² selection under
/// the pipeline's sample cap of min(candidates, N-1), then the same OLS
/// refit fit_placement runs on the sorted selection.
core::PlacementModel fit_greedy_r2_ols(const core::Dataset& data,
                                       const chip::Floorplan& floorplan,
                                       std::size_t sensors_per_core,
                                       ResilienceReport* report) {
  std::vector<core::CoreModel> cores(floorplan.core_count());
  parallel_for(0, cores.size(), [&](std::size_t c) {
    core::CoreModel& core = cores[c];
    core.core = c;
    core.candidate_rows = data.candidate_rows_for_core(floorplan, c);
    core.block_rows = data.critical_rows_for_core(floorplan, c);
    const std::size_t count = std::min(
        {sensors_per_core, core.candidate_rows.size(), data.x_train.cols() - 1});
    const linalg::Matrix f = data.f_train.select_rows(core.block_rows);
    for (std::size_t local : core::greedy_r2_select(
             data.x_train.select_rows(core.candidate_rows), f, count))
      core.selected_rows.push_back(core.candidate_rows[local]);
    std::sort(core.selected_rows.begin(), core.selected_rows.end());
    const core::OlsModel ols(data.x_train.select_rows(core.selected_rows), f,
                             report);
    core.alpha = ols.alpha();
    core.intercept = ols.intercept();
  });
  std::vector<std::size_t> rows;
  for (const auto& core : cores)
    rows.insert(rows.end(), core.selected_rows.begin(),
                core.selected_rows.end());
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  std::vector<std::size_t> nodes;
  for (std::size_t row : rows) nodes.push_back(data.candidate_nodes[row]);
  return core::PlacementModel(std::move(cores), std::move(nodes),
                              data.num_blocks());
}

void selection_ablation(const benchutil::Platform& platform,
                        std::size_t sensors_per_core,
                        benchutil::RunReport& report) {
  const auto& data = platform.data;
  const double vth = platform.setup.data.emergency_threshold;
  std::printf("\n== E. group lasso vs greedy forward R² selection at %zu "
              "sensors per core, both with the OLS refit ==\n",
              sensors_per_core);
  TablePrinter table({"selection", "#sensors", "rel error(%)", "ME", "WAE",
                      "TE", "fit(ms)"});
  core::PipelineConfig config;
  config.lambda = 6.0;
  config.sensors_per_core = sensors_per_core;
  for (const char* sel : {"group_lasso", "greedy_r2"}) {
    Timer timer;
    const core::PlacementModel model =
        std::string(sel) == "group_lasso"
            ? core::fit_placement(data, *platform.floorplan, config,
                                  platform.report.get())
            : fit_greedy_r2_ols(data, *platform.floorplan, sensors_per_core,
                                platform.report.get());
    const double fit_ms = timer.millis();
    const linalg::Matrix f_pred = model.predict(data.x_test);
    const double err = core::relative_error(data.f_test, f_pred);
    const auto det =
        core::evaluate_prediction_detector(data.f_test, f_pred, vth);

    const std::string key = std::string("backend.") + sel + "+ols";
    report.scalar(key + ".rel_err", err);
    report.scalar(key + ".me", det.miss_rate());
    report.scalar(key + ".wae", det.wrong_alarm_rate());
    report.scalar(key + ".te", det.total_error_rate());
    report.scalar(key + ".sensors",
                  static_cast<double>(model.sensor_rows().size()));
    report.timing(key + ".fit", fit_ms);
    table.add_row({sel, TablePrinter::fmt(model.sensor_rows().size()),
                   TablePrinter::fmt(100.0 * err, 3),
                   TablePrinter::fmt(det.miss_rate(), 4),
                   TablePrinter::fmt(det.wrong_alarm_rate(), 4),
                   TablePrinter::fmt(det.total_error_rate(), 4),
                   TablePrinter::fmt(fit_ms, 1)});
  }
  table.print(std::cout);
  std::printf("(group_lasso is the paper; greedy_r2 is the combinatorial "
              "baseline with the same predictor)\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args("ablation_suite — design-choice ablations (DESIGN.md §5)");
  benchutil::add_common_flags(args);
  args.add_flag("sensors", "2", "sensors per core for the placement table");
  args.add_flag("sections", "abcde",
                "which ablation sections to run (any subset of \"abcde\")");
  try {
    if (!args.parse(argc, argv)) return 0;
    std::string sections = args.get("sections");
    for (char& c : sections)
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    const auto enabled = [&sections](char c) {
      return sections.find(c) != std::string::npos;
    };
    const auto sensors = static_cast<std::size_t>(args.get_int("sensors"));
    const auto platform = benchutil::load_platform(args);
    benchutil::RunReport report("ablation_suite");
    report.tag("sections", sections);
    report.timing("platform_load", platform.load_ms);
    if (enabled('a')) placement_ablation(platform, sensors, report);
    if (enabled('b')) refit_ablation(platform, report);
    if (enabled('c')) decomposition_ablation(platform, report);
    if (enabled('d')) solver_ablation(platform, report);
    if (enabled('e')) selection_ablation(platform, sensors, report);
    benchutil::write_report(args, &platform, report);
    benchutil::print_resilience(platform);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
