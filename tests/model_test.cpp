// OLS model, sensor selection, and placement-pipeline tests. The pipeline
// tests hold fit_placement to an inline reference of the paper's per-core
// fit (normalize -> budgeted GL -> capped selection -> OLS refit), bit for
// bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "chip/floorplan.hpp"
#include "core/dataset.hpp"
#include "core/experiment.hpp"
#include "core/group_lasso.hpp"
#include "core/normalizer.hpp"
#include "core/ols_model.hpp"
#include "core/pipeline.hpp"
#include "core/sensor_selection.hpp"
#include "grid/power_grid.hpp"
#include "linalg/matrix.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "workload/benchmark_suite.hpp"

namespace vmap::core {
namespace {

TEST(OlsModel, RecoversPlantedAffineModel) {
  vmap::Rng rng(1);
  const std::size_t q = 3, k = 2, n = 200;
  linalg::Matrix x(q, n);
  for (std::size_t r = 0; r < q; ++r)
    for (std::size_t c = 0; c < n; ++c) x(r, c) = rng.normal(0.9, 0.05);
  linalg::Matrix true_alpha{{0.5, -0.2, 0.1}, {0.0, 0.7, -0.3}};
  linalg::Vector true_c{0.3, 0.25};
  linalg::Matrix f = linalg::matmul(true_alpha, x);
  for (std::size_t kk = 0; kk < k; ++kk)
    for (std::size_t c = 0; c < n; ++c) f(kk, c) += true_c[kk];

  const OlsModel model(x, f);
  for (std::size_t kk = 0; kk < k; ++kk) {
    EXPECT_NEAR(model.intercept()[kk], true_c[kk], 1e-8);
    for (std::size_t j = 0; j < q; ++j)
      EXPECT_NEAR(model.alpha()(kk, j), true_alpha(kk, j), 1e-8);
  }
  EXPECT_NEAR(model.train_rmse(), 0.0, 1e-9);
}

TEST(OlsModel, ResidualOrthogonalToDesign) {
  vmap::Rng rng(2);
  const std::size_t q = 4, n = 150;
  linalg::Matrix x(q, n);
  for (std::size_t r = 0; r < q; ++r)
    for (std::size_t c = 0; c < n; ++c) x(r, c) = rng.normal();
  linalg::Matrix f(1, n);
  for (std::size_t c = 0; c < n; ++c) f(0, c) = rng.normal();

  const OlsModel model(x, f);
  const linalg::Matrix pred = model.predict(x);
  // Residual must be orthogonal to every regressor row and to the constant.
  double const_dot = 0.0;
  for (std::size_t c = 0; c < n; ++c)
    const_dot += f(0, c) - pred(0, c);
  EXPECT_NEAR(const_dot, 0.0, 1e-8);
  for (std::size_t r = 0; r < q; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < n; ++c)
      acc += x(r, c) * (f(0, c) - pred(0, c));
    EXPECT_NEAR(acc, 0.0, 1e-7);
  }
}

TEST(OlsModel, VectorAndMatrixPredictionsAgree) {
  vmap::Rng rng(3);
  linalg::Matrix x(2, 50), f(3, 50);
  for (std::size_t c = 0; c < 50; ++c) {
    x(0, c) = rng.normal();
    x(1, c) = rng.normal();
    for (std::size_t kk = 0; kk < 3; ++kk) f(kk, c) = rng.normal();
  }
  const OlsModel model(x, f);
  const linalg::Matrix all = model.predict(x);
  const linalg::Vector one = model.predict(x.col(17));
  for (std::size_t kk = 0; kk < 3; ++kk)
    EXPECT_NEAR(one[kk], all(kk, 17), 1e-12);
}

TEST(OlsModel, NeedsEnoughSamples) {
  linalg::Matrix x(3, 3), f(1, 3);
  EXPECT_THROW(OlsModel(x, f), vmap::ContractError);
}

TEST(OlsModel, OlsRefitBeatsShrunkGlCoefficients) {
  // The §2.3 argument end-to-end: fit GL with a tight budget, then compare
  // prediction error of (a) shrunk GL coefficients vs (b) OLS refit on the
  // selected sensor. OLS must win.
  vmap::Rng rng(4);
  const std::size_t n = 1000;
  linalg::Matrix z(2, n), g(2, n);
  for (std::size_t c = 0; c < n; ++c) {
    z(0, c) = rng.normal();
    z(1, c) = rng.normal();
    g(0, c) = z(0, c);
    g(1, c) = z(0, c);
  }
  GroupLasso solver(GroupLassoProblem::from_data(z, g));
  const auto gl = solver.solve_budget(1.0);
  const auto active = gl.active_groups(1e-3);
  ASSERT_EQ(active.size(), 1u);

  // GL prediction with shrunk coefficients.
  linalg::Matrix gl_pred = linalg::matmul(gl.beta, z);
  const double gl_err = rmse(g, gl_pred);

  // OLS refit on the selected regressor.
  const linalg::Matrix x_sel = z.select_rows(active);
  const OlsModel refit(x_sel, g);
  const double ols_err = rmse(g, refit.predict(x_sel));
  EXPECT_LT(ols_err, 0.5 * gl_err);
}

TEST(ErrorMetrics, HandComputedValues) {
  linalg::Matrix t{{1.0, 2.0}, {3.0, 4.0}};
  linalg::Matrix p{{1.1, 1.9}, {3.3, 3.6}};
  EXPECT_NEAR(relative_error(t, p),
              (0.1 / 1.0 + 0.1 / 2.0 + 0.3 / 3.0 + 0.4 / 4.0) / 4.0, 1e-12);
  EXPECT_NEAR(rmse(t, p),
              std::sqrt((0.01 + 0.01 + 0.09 + 0.16) / 4.0), 1e-12);
  EXPECT_NEAR(max_abs_error(t, p), 0.4, 1e-12);
}

TEST(ErrorMetrics, PerfectPredictionIsZero) {
  linalg::Matrix t{{1.0, 2.0}};
  EXPECT_DOUBLE_EQ(relative_error(t, t), 0.0);
  EXPECT_DOUBLE_EQ(rmse(t, t), 0.0);
  EXPECT_DOUBLE_EQ(max_abs_error(t, t), 0.0);
}

TEST(ErrorMetrics, ShapeMismatchThrows) {
  linalg::Matrix a(2, 3), b(2, 4);
  EXPECT_THROW(rmse(a, b), vmap::ContractError);
}

TEST(SensorSelection, ThresholdRuleSelectsLargeNorms) {
  GroupLassoResult result;
  result.beta = linalg::Matrix(1, 4);
  result.group_norms = linalg::Vector{0.5, 1e-6, 0.02, 1e-9};
  const auto selection = select_sensors(result, 1e-3);
  EXPECT_EQ(selection.indices, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(selection.count(), 2u);
}

TEST(SensorSelection, ZeroThresholdSelectsAllNonZero) {
  GroupLassoResult result;
  result.group_norms = linalg::Vector{0.5, 0.0, 0.1};
  const auto selection = select_sensors(result, 0.0);
  EXPECT_EQ(selection.indices, (std::vector<std::size_t>{0, 2}));
}

TEST(SensorSelection, TopKPicksLargest) {
  GroupLassoResult result;
  result.group_norms = linalg::Vector{0.1, 0.9, 0.5, 0.7};
  const auto selection = select_top_k(result, 2);
  EXPECT_EQ(selection.indices, (std::vector<std::size_t>{1, 3}));
  EXPECT_DOUBLE_EQ(selection.threshold, 0.7);
}

TEST(SensorSelection, TopKTieBreaksByIndex) {
  GroupLassoResult result;
  result.group_norms = linalg::Vector{0.5, 0.5, 0.5};
  const auto selection = select_top_k(result, 2);
  EXPECT_EQ(selection.indices, (std::vector<std::size_t>{0, 1}));
}

TEST(SensorSelection, TopKBoundsChecked) {
  GroupLassoResult result;
  result.group_norms = linalg::Vector{0.5};
  EXPECT_THROW(select_top_k(result, 2), vmap::ContractError);
}

class PipelineFitTest : public ::testing::Test {
 protected:
  PipelineFitTest()
      : setup_(small_setup()),
        grid_(setup_.grid),
        plan_(grid_, setup_.floorplan) {}

  /// One dataset for the whole suite: collection dominates test time.
  const Dataset& data() {
    static Dataset* cached = nullptr;
    if (!cached) {
      DataConfig config = small_setup().data;
      config.warmup_steps = 30;
      config.train_maps_per_benchmark = 40;
      config.test_maps_per_benchmark = 15;
      config.calibration_steps = 80;
      auto suite = workload::parsec_like_suite();
      suite.resize(2);
      cached = new Dataset(DataCollector(grid_, plan_, config).collect(suite));
    }
    return *cached;
  }

  ExperimentSetup setup_;
  grid::PowerGrid grid_;
  chip::Floorplan plan_;
};

/// The paper's per-core fit written out inline, operation for operation
/// (normalize -> budgeted GL -> capped selection -> OLS refit): the
/// reference fit_placement must match to the last bit.
CoreModel legacy_fit_core(const Dataset& data, const chip::Floorplan& plan,
                          std::size_t core_index,
                          const PipelineConfig& config) {
  CoreModel core;
  core.core = core_index;
  core.candidate_rows = data.candidate_rows_for_core(plan, core_index);
  core.block_rows = data.critical_rows_for_core(plan, core_index);

  const linalg::Matrix x = data.x_train.select_rows(core.candidate_rows);
  const linalg::Matrix f = data.f_train.select_rows(core.block_rows);
  const Normalizer x_norm(x);
  const Normalizer f_norm(f);
  const GroupLassoProblem problem =
      GroupLassoProblem::from_data(x_norm.normalize(x), f_norm.normalize(f));
  GroupLasso solver(problem);
  const GroupLassoResult gl = solver.solve_budget(config.lambda);
  if (!gl.status.ok()) throw StatusError(gl.status);
  core.group_norms = gl.group_norms;

  const std::size_t cap =
      std::min(core.candidate_rows.size(), data.x_train.cols() - 1);
  SensorSelection selection =
      config.sensors_per_core
          ? select_top_k(gl,
                         std::min<std::size_t>(*config.sensors_per_core, cap))
          : select_sensors(gl, config.threshold);
  if (selection.indices.empty()) selection = select_top_k(gl, 1);
  for (std::size_t local : selection.indices)
    core.selected_rows.push_back(core.candidate_rows[local]);

  const linalg::Matrix x_sel = data.x_train.select_rows(core.selected_rows);
  OlsModel ols(x_sel, f, nullptr);
  core.alpha = ols.alpha();
  core.intercept = ols.intercept();
  return core;
}

TEST_F(PipelineFitTest, DefaultPathBitIdenticalToLegacyPipeline) {
  PipelineConfig config;
  config.lambda = 6.0;
  config.sensors_per_core = 2;

  const PlacementModel model = fit_placement(data(), plan_, config);
  ASSERT_EQ(model.cores().size(), plan_.core_count());
  for (std::size_t c = 0; c < plan_.core_count(); ++c) {
    const CoreModel legacy = legacy_fit_core(data(), plan_, c, config);
    const CoreModel& fitted = model.cores()[c];
    ASSERT_EQ(fitted.selected_rows, legacy.selected_rows) << "core " << c;
    ASSERT_EQ(fitted.group_norms.size(), legacy.group_norms.size());
    for (std::size_t m = 0; m < legacy.group_norms.size(); ++m)
      ASSERT_EQ(fitted.group_norms[m], legacy.group_norms[m])
          << "core " << c << " norm " << m;  // exact, not approximate
    ASSERT_EQ(fitted.alpha.rows(), legacy.alpha.rows());
    ASSERT_EQ(fitted.alpha.cols(), legacy.alpha.cols());
    for (std::size_t k = 0; k < legacy.alpha.rows(); ++k) {
      ASSERT_EQ(fitted.intercept[k], legacy.intercept[k])
          << "core " << c << " block " << k;
      for (std::size_t j = 0; j < legacy.alpha.cols(); ++j)
        ASSERT_EQ(fitted.alpha(k, j), legacy.alpha(k, j))
            << "core " << c << " (" << k << "," << j << ")";
    }
  }
}

TEST_F(PipelineFitTest, NoRefitAblationStillFits) {
  PipelineConfig config;
  config.lambda = 6.0;
  config.sensors_per_core = 2;
  config.refit_ols = false;
  const PlacementModel model = fit_placement(data(), plan_, config);
  EXPECT_LT(relative_error(data().f_test, model.predict(data().x_test)), 0.5);
}

}  // namespace
}  // namespace vmap::core
