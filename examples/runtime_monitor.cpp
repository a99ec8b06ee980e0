// Runtime monitor: what the methodology looks like deployed on-chip.
//
// Offline (design time): collect data, place sensors, fit the predictor.
// Online (runtime): an unseen workload runs; the monitor sees ONLY the
// placed sensors' readings, predicts every function block's voltage,
// raises emergency alarms, and — on the worst alarm — renders the
// reconstructed full-chip voltage map next to the simulated ground truth.

#include <algorithm>
#include <cstdio>

#include "chip/floorplan.hpp"
#include "core/dataset.hpp"
#include "core/emergency.hpp"
#include "core/experiment.hpp"
#include "core/online_monitor.hpp"
#include "core/pipeline.hpp"
#include "core/voltage_map.hpp"
#include "grid/power_grid.hpp"
#include "grid/transient.hpp"
#include "util/cli.hpp"
#include "workload/activity.hpp"
#include "workload/power_model.hpp"

namespace {

using namespace vmap;

/// 10-level ASCII heat map of a node-voltage field ('9' = VDD, '0' = low).
void print_heat_map(const grid::PowerGrid& grid, const linalg::Vector& v,
                    double lo, double hi) {
  const auto& gc = grid.config();
  for (std::size_t y = 0; y < gc.ny; ++y) {
    for (std::size_t x = 0; x < gc.nx; ++x) {
      const double t =
          std::clamp((v[grid.node_id(x, y)] - lo) / (hi - lo), 0.0, 1.0);
      std::putchar('0' + static_cast<char>(t * 9.0));
    }
    std::putchar('\n');
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(
      "runtime_monitor — deploy the fitted model as an online voltage "
      "monitor on an unseen workload");
  args.add_flag("steps", "600", "online simulation steps");
  args.add_flag("train-benchmarks", "3", "benchmarks used for training");
  args.add_flag("online-benchmark", "13",
                "1-based benchmark id run online (unseen if > train count)");
  try {
    if (!args.parse(argc, argv)) return 0;

    const core::ExperimentSetup setup = core::small_setup();
    const grid::PowerGrid grid(setup.grid);
    const chip::Floorplan floorplan(grid, setup.floorplan);
    const auto full_suite = workload::parsec_like_suite();

    // ---- Offline: train on the first few benchmarks.
    auto train_suite = full_suite;
    train_suite.resize(std::clamp<std::size_t>(
        static_cast<std::size_t>(args.get_int("train-benchmarks")), 1,
        full_suite.size()));
    std::printf("offline: collecting training data (%zu benchmarks)...\n",
                train_suite.size());
    core::DataCollector collector(grid, floorplan, setup.data);
    const core::Dataset data = collector.collect(train_suite);

    core::PipelineConfig config;
    config.lambda = 8.0;
    const core::PlacementModel model =
        core::fit_placement(data, floorplan, config);
    std::printf("offline: placed %zu sensors, model ready\n\n",
                model.sensor_rows().size());

    // Map sensor rows -> grid nodes for the online readings.
    const auto& sensor_nodes = model.sensor_nodes();

    // ---- Online: stream an unseen workload through the chip.
    const std::size_t online_id = std::clamp<std::size_t>(
        static_cast<std::size_t>(args.get_int("online-benchmark")), 1,
        full_suite.size());
    const auto& profile = full_suite[online_id - 1];
    std::printf("online: running %s for %lld steps...\n",
                profile.name.c_str(),
                static_cast<long long>(args.get_int("steps")));

    workload::PowerModel power(floorplan, data.current_scale);
    workload::ActivityGenerator activity(floorplan, profile,
                                         Rng(0xD15EA5E));
    grid::TransientSim sim(grid, setup.data.dt);
    const double vth = setup.data.emergency_threshold;

    // The deployable component: a debounced monitor around the model.
    core::OnlineMonitorConfig monitor_config;
    monitor_config.emergency_threshold = vth;
    monitor_config.alarm_consecutive = 2;   // filter single-sample blips
    monitor_config.release_consecutive = 3;
    core::OnlineMonitor monitor(model, monitor_config);

    linalg::Vector currents(grid.node_count());
    std::size_t true_emergencies = 0, hits = 0;
    double worst_pred = 1e300;
    linalg::Vector worst_truth;   // full simulated map at the worst alarm
    linalg::Vector worst_readings;  // the sensors' readings at that moment

    const auto steps = static_cast<std::size_t>(args.get_int("steps"));
    for (std::size_t s = 0; s < steps; ++s) {
      power.to_node_currents(activity.step(), currents);
      const linalg::Vector& v = sim.step(currents);

      // The monitor only reads its placed sensors; everything else it must
      // infer.
      linalg::Vector readings(model.sensor_rows().size());
      for (std::size_t i = 0; i < readings.size(); ++i)
        readings[i] = v[data.candidate_nodes[model.sensor_rows()[i]]];
      const auto decision = monitor.observe(readings);

      bool truth = false;
      for (std::size_t node : data.critical_nodes)
        if (v[node] < vth) truth = true;

      true_emergencies += truth ? 1 : 0;
      hits += (decision.crossing && truth) ? 1 : 0;
      if (decision.crossing && decision.worst_voltage < worst_pred) {
        worst_pred = decision.worst_voltage;
        worst_truth = v;
        worst_readings = readings;
      }
    }

    std::printf("online summary: %zu steps, %zu true emergency steps, %zu "
                "correct detections, %zu debounced alarm episodes (%zu "
                "alarm steps)\n",
                steps, true_emergencies, hits, monitor.alarm_episodes(),
                monitor.alarm_samples());

    if (!worst_truth.empty()) {
      // Reconstruct the full-chip map at the worst alarm from sensors +
      // predicted critical nodes only, and compare with ground truth.
      std::vector<std::size_t> known = sensor_nodes;
      known.insert(known.end(), data.critical_nodes.begin(),
                   data.critical_nodes.end());
      core::VoltageMapBuilder builder(grid, known);

      const linalg::Vector f_pred =
          model.predict_from_sensor_readings(worst_readings);
      linalg::Vector known_values(known.size());
      for (std::size_t i = 0; i < worst_readings.size(); ++i)
        known_values[i] = worst_readings[i];
      for (std::size_t k = 0; k < f_pred.size(); ++k)
        known_values[model.sensor_rows().size() + k] = f_pred[k];
      const linalg::Vector reconstructed = builder.build(known_values);

      const double lo = std::min(worst_truth.min(), reconstructed.min());
      const double hi = setup.grid.vdd;
      std::printf("\nfull-chip voltage map at the deepest alarm "
                  "(0=%.3f V .. 9=%.3f V)\n",
                  lo, hi);
      std::printf("-- simulated ground truth --\n");
      print_heat_map(grid, worst_truth, lo, hi);
      std::printf("-- reconstructed from %zu sensors + predictions --\n",
                  sensor_nodes.size());
      print_heat_map(grid, reconstructed, lo, hi);

      double err = 0.0;
      for (std::size_t i = 0; i < worst_truth.size(); ++i)
        err = std::max(err, std::abs(worst_truth[i] - reconstructed[i]));
      std::printf("max reconstruction error anywhere on the die: %.1f mV\n",
                  1e3 * err);
    } else {
      std::printf("no alarms raised during the online window\n");
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
