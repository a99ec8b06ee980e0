// Reproduces Table 2: miss / wrong-alarm / total error rates of Eagle-Eye
// vs. the proposed approach on all 19 benchmarks, with 2 sensors per core.
//
// Paper's headline: the proposed model roughly halves ME and TE on every
// benchmark, while WAE stays small (< 1e-3) for both. Each benchmark is
// evaluated on its held-out test maps; placements and models are trained
// once on the pooled training maps (as in the paper).

#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/eagle_eye.hpp"
#include "core/emergency.hpp"
#include "core/pipeline.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace vmap;
  CliArgs args(
      "table2_error_rates — Table 2: ME/WAE/TE per benchmark, Eagle-Eye vs "
      "proposed, 2 sensors per core");
  benchutil::add_common_flags(args);
  args.add_flag("sensors", "2", "sensors per core for both approaches");
  args.add_flag("eagle-strategy", "worst-noise",
                "Eagle-Eye placement: worst-noise | coverage");
  try {
    if (!args.parse(argc, argv)) return 0;
    const auto platform = benchutil::load_platform(args);
    const auto& data = platform.data;
    const double vth = platform.setup.data.emergency_threshold;
    const auto sensors = static_cast<std::size_t>(args.get_int("sensors"));

    core::EagleEyeOptions ee;
    const std::string strategy = args.get("eagle-strategy");
    if (strategy == "worst-noise") {
      ee.strategy = core::EagleEyeStrategy::kWorstNoise;
    } else if (strategy == "coverage") {
      ee.strategy = core::EagleEyeStrategy::kGreedyCoverage;
    } else {
      throw std::runtime_error("unknown --eagle-strategy: " + strategy);
    }
    Timer t_eagle;
    const auto eagle_rows =
        core::eagle_eye_place(data, *platform.floorplan, sensors, ee);
    const double eagle_ms = t_eagle.millis();

    benchutil::RunReport report("table2_error_rates");
    core::PipelineConfig config;
    config.lambda = benchutil::scaled_lambda(args, 60.0);
    config.sensors_per_core = sensors;
    Timer t_fit;
    const auto model = core::fit_placement(data, *platform.floorplan, config,
                                           platform.report.get());
    const double fit_ms = t_fit.millis();

    std::printf("== Table 2: error rates with %zu sensors per core "
                "(emergency: V < %.2f) ==\n",
                sensors, vth);
    std::printf("Eagle-Eye strategy: %s; proposed: group lasso + OLS "
                "refit\n\n",
                strategy.c_str());

    TablePrinter table({"benchmark", "P(emerg)", "EE ME", "EE WAE", "EE TE",
                        "our ME", "our WAE", "our TE", "TE ratio"});
    double ee_me_sum = 0, ee_te_sum = 0, our_me_sum = 0, our_te_sum = 0;
    double ee_wae_max = 0, our_wae_max = 0;
    for (std::size_t b = 0; b < data.benchmarks.size(); ++b) {
      const linalg::Matrix x_test = data.x_test_for(b);
      const linalg::Matrix f_test = data.f_test_for(b);

      const auto eagle =
          core::evaluate_sensor_detector(f_test, x_test, eagle_rows, vth);
      const linalg::Matrix f_pred = model.predict(x_test);
      const auto ours =
          core::evaluate_prediction_detector(f_test, f_pred, vth);

      const double base_rate =
          static_cast<double>(eagle.emergencies) /
          static_cast<double>(eagle.samples);
      const double te_ratio =
          eagle.total_error_rate() > 0
              ? ours.total_error_rate() / eagle.total_error_rate()
              : 0.0;
      table.add_row(
          {"bm" + std::to_string(b + 1), TablePrinter::fmt(base_rate, 2),
           TablePrinter::fmt(eagle.miss_rate(), 4),
           TablePrinter::fmt(eagle.wrong_alarm_rate(), 4),
           TablePrinter::fmt(eagle.total_error_rate(), 4),
           TablePrinter::fmt(ours.miss_rate(), 4),
           TablePrinter::fmt(ours.wrong_alarm_rate(), 4),
           TablePrinter::fmt(ours.total_error_rate(), 4),
           TablePrinter::fmt(te_ratio, 2)});
      ee_me_sum += eagle.miss_rate();
      ee_te_sum += eagle.total_error_rate();
      our_me_sum += ours.miss_rate();
      our_te_sum += ours.total_error_rate();
      ee_wae_max = std::max(ee_wae_max, eagle.wrong_alarm_rate());
      our_wae_max = std::max(our_wae_max, ours.wrong_alarm_rate());
    }
    const double nb = static_cast<double>(data.benchmarks.size());
    table.add_row({"mean", "-", TablePrinter::fmt(ee_me_sum / nb, 4), "-",
                   TablePrinter::fmt(ee_te_sum / nb, 4),
                   TablePrinter::fmt(our_me_sum / nb, 4), "-",
                   TablePrinter::fmt(our_te_sum / nb, 4),
                   TablePrinter::fmt(our_te_sum / std::max(ee_te_sum, 1e-12),
                                     2)});
    table.print(std::cout);

    std::printf("\nsummary: mean ME %.4f -> %.4f (%.2fx), mean TE %.4f -> "
                "%.4f (%.2fx), max WAE EE %.4f / ours %.4f\n",
                ee_me_sum / nb, our_me_sum / nb,
                our_me_sum / std::max(ee_me_sum, 1e-12), ee_te_sum / nb,
                our_te_sum / nb, our_te_sum / std::max(ee_te_sum, 1e-12),
                ee_wae_max, our_wae_max);
    std::printf("(paper: proposed ME and TE are about half of Eagle-Eye's "
                "on every benchmark; WAE < 1e-3 for both)\n");

    report.scalar("mean_ee_me", ee_me_sum / nb);
    report.scalar("mean_ee_te", ee_te_sum / nb);
    report.scalar("mean_our_me", our_me_sum / nb);
    report.scalar("mean_our_te", our_te_sum / nb);
    report.scalar("max_ee_wae", ee_wae_max);
    report.scalar("max_our_wae", our_wae_max);
    report.scalar("te_ratio", our_te_sum / std::max(ee_te_sum, 1e-12));
    report.scalar("sensors_placed",
                  static_cast<double>(model.sensor_rows().size()));
    report.timing("platform_load", platform.load_ms);
    report.timing("eagle_eye_place", eagle_ms);
    report.timing("fit_placement", fit_ms);
    benchutil::write_report(args, &platform, report);
    benchutil::print_resilience(platform);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
