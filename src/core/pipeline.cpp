#include "core/pipeline.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "core/group_lasso.hpp"
#include "core/normalizer.hpp"
#include "core/ols_model.hpp"
#include "core/sensor_selection.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/status.hpp"
#include "util/trace.hpp"

namespace vmap::core {

PlacementModel::PlacementModel(std::vector<CoreModel> cores,
                               std::vector<std::size_t> sensor_nodes,
                               std::size_t num_blocks)
    : cores_(std::move(cores)),
      sensor_nodes_(std::move(sensor_nodes)),
      num_blocks_(num_blocks) {
  for (const auto& core : cores_)
    sensor_rows_.insert(sensor_rows_.end(), core.selected_rows.begin(),
                        core.selected_rows.end());
  std::sort(sensor_rows_.begin(), sensor_rows_.end());
  sensor_rows_.erase(std::unique(sensor_rows_.begin(), sensor_rows_.end()),
                     sensor_rows_.end());
  VMAP_REQUIRE(sensor_rows_.size() == sensor_nodes_.size(),
               "sensor node list must align with selected rows");
  reading_rows_.reserve(cores_.size());
  for (const auto& core : cores_) {
    std::vector<std::size_t>& positions = reading_rows_.emplace_back();
    for (std::size_t row : core.selected_rows)
      positions.push_back(static_cast<std::size_t>(
          std::lower_bound(sensor_rows_.begin(), sensor_rows_.end(), row) -
          sensor_rows_.begin()));
  }
}

linalg::Matrix PlacementModel::predict_columns(const linalg::Matrix& x,
                                               bool x_is_readings) const {
  const std::size_t n = x.cols();
  linalg::Matrix f_pred(num_blocks_, n);
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    const CoreModel& core = cores_[c];
    const std::vector<std::size_t>& rows =
        x_is_readings ? reading_rows_[c] : core.selected_rows;
    linalg::Matrix x_sel(rows.size(), n);
    for (std::size_t j = 0; j < rows.size(); ++j)
      std::copy_n(x.row_data(rows[j]), n, x_sel.row_data(j));
    const linalg::Matrix f_core = linalg::matmul(core.alpha, x_sel);
    for (std::size_t k = 0; k < core.block_rows.size(); ++k) {
      const double c0 = core.intercept[k];
      const double* src = f_core.row_data(k);
      double* dst = f_pred.row_data(core.block_rows[k]);
      for (std::size_t s = 0; s < n; ++s) dst[s] = src[s] + c0;
    }
  }
  return f_pred;
}

linalg::Matrix PlacementModel::predict(const linalg::Matrix& x_full) const {
  VMAP_REQUIRE(sensor_rows_.empty() || sensor_rows_.back() < x_full.rows(),
               "candidate matrix lacks a placed sensor's row");
  return predict_columns(x_full, /*x_is_readings=*/false);
}

linalg::Vector PlacementModel::predict_from_sensor_readings(
    const linalg::Vector& readings) const {
  VMAP_REQUIRE(readings.size() == sensor_rows_.size(),
               "readings must align with the placed sensors");
  linalg::Matrix column(readings.size(), 1);
  column.set_col(0, readings);
  return predict_columns(column, /*x_is_readings=*/true).col(0);
}

linalg::Matrix PlacementModel::predict_from_sensor_readings_batch(
    const linalg::Matrix& readings) const {
  VMAP_REQUIRE(readings.rows() == sensor_rows_.size(),
               "reading rows must align with the placed sensors");
  return predict_columns(readings, /*x_is_readings=*/true);
}

namespace {

/// Converts group-lasso coefficients (normalized space, restricted to the
/// selected columns) into a raw-unit affine model — the no-refit ablation.
void gl_coefficients_to_affine(const GroupLassoResult& gl,
                               const std::vector<std::size_t>& selected_local,
                               const Normalizer& x_norm,
                               const Normalizer& f_norm, CoreModel& core) {
  const std::size_t k_count = gl.beta.rows();
  const std::size_t q = selected_local.size();
  core.alpha = linalg::Matrix(k_count, q);
  core.intercept = linalg::Vector(k_count);
  for (std::size_t k = 0; k < k_count; ++k) {
    const double sf = f_norm.is_degenerate(k) ? 0.0 : f_norm.stddevs()[k];
    double c = f_norm.means()[k];
    for (std::size_t j = 0; j < q; ++j) {
      const std::size_t m = selected_local[j];
      const double sx = x_norm.stddevs()[m];
      const double a = x_norm.is_degenerate(m)
                           ? 0.0
                           : sf * gl.beta(k, m) / sx;
      core.alpha(k, j) = a;
      c -= a * x_norm.means()[m];
    }
    core.intercept[k] = c;
  }
}

CoreModel fit_core(const Dataset& data, std::size_t core_index,
                   std::vector<std::size_t> candidate_rows,
                   std::vector<std::size_t> block_rows,
                   const PipelineConfig& config, ResilienceReport* report) {
  VMAP_REQUIRE(!candidate_rows.empty(), "no candidates for this core");
  VMAP_REQUIRE(!block_rows.empty(), "no blocks for this core");
  TraceSpan span("pipeline.fit_core");
  span.arg("core", static_cast<double>(core_index));
  static metrics::Counter& fits = metrics::counter("pipeline.core_fits");
  static metrics::Histogram& fit_ms =
      metrics::histogram("pipeline.fit_core_ms");
  fits.add();
  metrics::ScopedTimerMs fit_timer(fit_ms);

  CoreModel core;
  core.core = core_index;
  core.candidate_rows = std::move(candidate_rows);
  core.block_rows = std::move(block_rows);
  const linalg::Matrix f = data.f_train.select_rows(core.block_rows);

  {
    // Steps 2-5 (§2.2): normalize, budgeted group lasso, selection.
    TraceSpan sel_span("backend.sel.group_lasso");
    const linalg::Matrix x = data.x_train.select_rows(core.candidate_rows);
    const Normalizer x_norm(x);
    const Normalizer f_norm(f);
    GroupLasso solver(GroupLassoProblem::from_data(x_norm.normalize(x),
                                                   f_norm.normalize(f)));
    const GroupLassoResult gl = solver.solve_budget(config.lambda);
    if (!gl.status.ok()) throw StatusError(gl.status);
    if (!gl.converged) {
      // Inexact but usable: the solve stopped at the iteration cap. Surface
      // it — selection quality may suffer — but keep going.
      VMAP_LOG(kWarn) << "core " << core_index
                      << ": group lasso stopped at the iteration cap; using "
                         "the inexact solution";
      if (report)
        report->record("group_lasso", ResilienceAction::kNote,
                       "core " + std::to_string(core_index) +
                           ": iteration cap hit; using the inexact solution",
                       ErrorCode::kNotConverged, gl.budget);
    }
    core.group_norms = gl.group_norms;

    // The OLS refit needs more samples than regressors, so selections are
    // capped at N-1 sensors per core.
    const std::size_t cap =
        std::min(core.candidate_rows.size(), data.x_train.cols() - 1);
    SensorSelection selection =
        config.sensors_per_core
            ? select_top_k(gl, std::min<std::size_t>(
                                   *config.sensors_per_core, cap))
            : select_sensors(gl, config.threshold);
    if (selection.indices.empty()) {
      VMAP_LOG(kWarn) << "core " << core_index << ": lambda=" << config.lambda
                      << " selected no sensor; falling back to the strongest "
                         "candidate";
      selection = select_top_k(gl, 1);
    } else if (selection.indices.size() > cap) {
      VMAP_LOG(kWarn) << "core " << core_index << ": selection of "
                      << selection.indices.size()
                      << " sensors exceeds the sample budget; keeping the top "
                      << cap;
      selection = select_top_k(gl, cap);
    }
    core.selected_rows.reserve(selection.indices.size());
    for (std::size_t local : selection.indices)
      core.selected_rows.push_back(core.candidate_rows[local]);

    if (!config.refit_ols) {
      gl_coefficients_to_affine(gl, selection.indices, x_norm, f_norm, core);
      return core;
    }
  }

  // Step 6 (§2.3): unconstrained OLS refit on the selected raw voltages.
  TraceSpan pred_span("backend.pred.ols");
  const OlsModel ols(data.x_train.select_rows(core.selected_rows), f, report);
  core.alpha = ols.alpha();
  core.intercept = ols.intercept();
  return core;
}

}  // namespace

PlacementModel fit_placement(const Dataset& data,
                             const chip::Floorplan& floorplan,
                             const PipelineConfig& config,
                             ResilienceReport* report) {
  TraceSpan span("pipeline.fit_placement");
  span.arg("lambda", config.lambda);
  metrics::counter("pipeline.placement_fits").add();
  VMAP_REQUIRE(config.lambda > 0.0, "lambda must be positive");
  VMAP_REQUIRE(config.threshold >= 0.0, "threshold must be non-negative");
  VMAP_REQUIRE(data.critical_block.size() == data.num_blocks(),
               "dataset critical-node/block mapping is inconsistent");

  std::vector<CoreModel> cores;
  if (config.per_core) {
    // The per-core problems are independent; fit them concurrently. Each
    // core writes only its own slot, so the assembled model is identical
    // to the serial fit at any thread count.
    cores.resize(floorplan.core_count());
    parallel_for(0, floorplan.core_count(), [&](std::size_t c) {
      cores[c] = fit_core(data, c,
                          data.candidate_rows_for_core(floorplan, c),
                          data.critical_rows_for_core(floorplan, c),
                          config, report);
    });
  } else {
    std::vector<std::size_t> all_candidates(data.num_candidates());
    std::iota(all_candidates.begin(), all_candidates.end(), 0);
    std::vector<std::size_t> all_blocks(data.num_blocks());
    std::iota(all_blocks.begin(), all_blocks.end(), 0);
    cores.push_back(fit_core(data, 0, std::move(all_candidates),
                             std::move(all_blocks), config, report));
  }

  // Gather the union of selected rows, then map rows to grid nodes.
  std::vector<std::size_t> rows;
  for (const auto& core : cores)
    rows.insert(rows.end(), core.selected_rows.begin(),
                core.selected_rows.end());
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  std::vector<std::size_t> nodes;
  nodes.reserve(rows.size());
  for (std::size_t row : rows) nodes.push_back(data.candidate_nodes[row]);

  return PlacementModel(std::move(cores), std::move(nodes),
                        data.num_blocks());
}

}  // namespace vmap::core
