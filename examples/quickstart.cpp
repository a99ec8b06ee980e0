// Quickstart: the whole methodology in ~80 lines.
//
//   1. Build a power grid and a floorplan (the chip model).
//   2. Collect training/test voltage maps by simulating workloads.
//   3. Fit the sensor placement + prediction model (group lasso + OLS).
//   4. Predict function-area voltages from blank-area sensor readings.
//
// Uses the miniature 2-core platform so it finishes in seconds.

#include <algorithm>
#include <cstdio>

#include "chip/floorplan.hpp"
#include "core/dataset.hpp"
#include "core/emergency.hpp"
#include "core/experiment.hpp"
#include "core/ols_model.hpp"
#include "core/pipeline.hpp"
#include "grid/power_grid.hpp"
#include "workload/benchmark_suite.hpp"

int main() {
  using namespace vmap;

  // 1. The chip: a 32x16-node power grid with two 30-block cores.
  const core::ExperimentSetup setup = core::small_setup();
  const grid::PowerGrid grid(setup.grid);
  const chip::Floorplan floorplan(grid, setup.floorplan);
  std::printf("chip: %zux%zu grid, %zu cores, %zu blocks, %zu BA sensor "
              "candidates\n",
              setup.grid.nx, setup.grid.ny, floorplan.core_count(),
              floorplan.block_count(), floorplan.ba_nodes().size());

  // 2. Training data: simulate three benchmarks, sample voltage maps.
  auto suite = workload::parsec_like_suite();
  suite.resize(3);
  core::DataCollector collector(grid, floorplan, setup.data);
  const core::Dataset data = collector.collect(suite);
  std::printf("collected %zu training and %zu test voltage maps (M=%zu "
              "candidates, K=%zu critical nodes)\n",
              data.x_train.cols(), data.x_test.cols(), data.num_candidates(),
              data.num_blocks());

  // 3. Fit: budgeted group lasso selects sensors, OLS learns the predictor.
  core::PipelineConfig config;
  config.lambda = 8.0;  // the sensor-count vs accuracy knob
  const core::PlacementModel model =
      core::fit_placement(data, floorplan, config);
  std::printf("placed %zu sensors (%zu per core average)\n",
              model.sensor_rows().size(),
              model.sensor_rows().size() / floorplan.core_count());

  // 4. Predict the function-area voltages of one held-out map from the
  //    sensor readings alone, and check the emergency decision.
  const std::size_t sample = 7;
  const linalg::Vector x = data.x_test.col(sample);
  const linalg::Vector f_true = data.f_test.col(sample);
  linalg::Vector readings(model.sensor_rows().size());
  for (std::size_t i = 0; i < readings.size(); ++i)
    readings[i] = x[model.sensor_rows()[i]];
  const linalg::Vector f_pred = model.predict_from_sensor_readings(readings);

  double worst_true = 1e300, worst_pred = 1e300;
  std::size_t worst_block = 0;
  for (std::size_t k = 0; k < f_true.size(); ++k) {
    if (f_true[k] < worst_true) {
      worst_true = f_true[k];
      worst_block = k;
    }
    worst_pred = std::min(worst_pred, f_pred[k]);
  }
  std::printf("\nmap #%zu: worst block is %s\n", sample,
              floorplan.block(worst_block).name.c_str());
  std::printf("  simulated voltage: %.4f V\n", worst_true);
  std::printf("  predicted voltage: %.4f V (from %zu sensors)\n",
              f_pred[worst_block], model.sensor_rows().size());

  const double vth = setup.data.emergency_threshold;
  std::printf("  emergency (V < %.2f)? truth: %s, model: %s\n", vth,
              worst_true < vth ? "YES" : "no",
              worst_pred < vth ? "YES" : "no");

  // Accuracy over the whole test set.
  const linalg::Matrix all_pred = model.predict(data.x_test);
  std::printf("\ntest-set relative prediction error: %.4f%% (rmse %.2f mV)\n",
              100.0 * core::relative_error(data.f_test, all_pred),
              1e3 * core::rmse(data.f_test, all_pred));
  const auto rates =
      core::evaluate_prediction_detector(data.f_test, all_pred, vth);
  std::printf("emergency detection: ME %.4f, WAE %.4f, TE %.4f over %zu "
              "maps\n",
              rates.miss_rate(), rates.wrong_alarm_rate(),
              rates.total_error_rate(), rates.samples);
  return 0;
}
