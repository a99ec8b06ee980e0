#pragma once
// End-to-end methodology: Steps 0-8 of paper §2.4.
//
// For each core (the paper reports per-core sensor counts), the pipeline:
//   1. normalizes the core's candidate voltages Z and block voltages G,
//   2. solves the budgeted group lasso (Eq. 12) at the given λ with the
//      default block-coordinate-descent solver,
//   3. thresholds ||β_m||₂ > T (or keeps the top k) to select the core's
//      sensors (Step 5),
//   4. refits an unconstrained OLS model on the selected raw voltages
//      (Eq. 17) — or, for the §2.3 ablation, converts the shrunk GL
//      coefficients back to raw units instead,
// and assembles one chip-wide PlacementModel that predicts every block's
// supply voltage from the selected sensors' readings.

#include <cstddef>
#include <optional>
#include <vector>

#include "chip/floorplan.hpp"
#include "core/dataset.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/resilience.hpp"

namespace vmap::core {

struct PipelineConfig {
  double lambda = 30.0;    ///< per-core GL budget (Eq. 12's λ)
  double threshold = 1e-3; ///< selection threshold T on ||β_m||₂
  /// When set, overrides the threshold rule with exact top-k selection per
  /// core (used for fixed-budget comparisons like Table 2's 2/core).
  std::optional<std::size_t> sensors_per_core;
  bool refit_ols = true;   ///< §2.3 refit; false = raw GL coefficients
  bool per_core = true;    ///< false = one chip-wide GL problem
};

/// Per-core fitted artifacts.
struct CoreModel {
  std::size_t core = 0;
  std::vector<std::size_t> candidate_rows;  ///< X rows of this core's candidates
  std::vector<std::size_t> block_rows;      ///< F rows monitored in this core
  linalg::Vector group_norms;  ///< ||β_m||₂ aligned with candidate_rows
  std::vector<std::size_t> selected_rows;   ///< chosen X rows (ascending)
  linalg::Matrix alpha;        ///< K_core x Q_core prediction coefficients
  linalg::Vector intercept;    ///< K_core
};

/// Chip-wide sensor placement + voltage prediction model.
class PlacementModel {
 public:
  explicit PlacementModel(std::vector<CoreModel> cores,
                          std::vector<std::size_t> sensor_nodes,
                          std::size_t num_blocks);

  const std::vector<CoreModel>& cores() const { return cores_; }
  /// All selected X rows, ascending, duplicates removed.
  const std::vector<std::size_t>& sensor_rows() const { return sensor_rows_; }
  /// Grid node ids of the selected sensors (aligned with sensor_rows()).
  const std::vector<std::size_t>& sensor_nodes() const {
    return sensor_nodes_;
  }
  std::size_t num_blocks() const { return num_blocks_; }

  /// Predicts all block voltages for every column of a full candidate
  /// matrix X (M x N): returns K x N. One sample is the N = 1 case.
  linalg::Matrix predict(const linalg::Matrix& x_full) const;
  /// Runtime variant: predicts from the placed sensors' readings only
  /// (aligned with sensor_rows()/sensor_nodes()); this is what on-chip
  /// hardware would evaluate.
  linalg::Vector predict_from_sensor_readings(
      const linalg::Vector& readings) const;
  /// Micro-batched runtime variant for the serving layer: `readings` is
  /// Q x B (one column per sample, rows aligned with sensor_rows()); returns
  /// K x B. All three predict calls share one routine, so column b is
  /// bit-identical to predict_from_sensor_readings(readings.col(b)) and
  /// batching a fleet of chips cannot change any single chip's alarm
  /// decision.
  linalg::Matrix predict_from_sensor_readings_batch(
      const linalg::Matrix& readings) const;

 private:
  /// The one gather -> matmul -> scatter: each column of `x` is a sample,
  /// and core c reads its j-th selected sensor from row rows_of(c)[j] of x
  /// — the candidate row itself for a full X, or its position in
  /// sensor_rows() for readings.
  linalg::Matrix predict_columns(const linalg::Matrix& x,
                                 bool x_is_readings) const;

  std::vector<CoreModel> cores_;
  std::vector<std::size_t> sensor_rows_;
  /// Per core: the positions of its selected rows within sensor_rows_.
  std::vector<std::vector<std::size_t>> reading_rows_;
  std::vector<std::size_t> sensor_nodes_;
  std::size_t num_blocks_ = 0;
};

/// Runs the methodology on a dataset. Throws on configuration errors;
/// falls back to the strongest single candidate if a core's GL solution
/// selects nothing at the given λ/T (logged). A rank-deficient OLS design
/// refits via ridge-jittered normal equations, recorded into `report` when
/// one is supplied. Throws StatusError when the group-lasso solve breaks
/// down numerically.
PlacementModel fit_placement(const Dataset& data,
                             const chip::Floorplan& floorplan,
                             const PipelineConfig& config,
                             ResilienceReport* report = nullptr);

}  // namespace vmap::core
