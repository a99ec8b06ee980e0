#pragma once
// Placement baselines beyond Eagle-Eye, plus an apples-to-apples evaluator.
//
// Every placement below returns candidate rows into the dataset's X
// matrices, so any of them can be combined with the same OLS prediction
// model. That isolates the value of *where* the sensors are from the value
// of the prediction machinery — the ablation DESIGN.md §5 calls for:
//
//   * place_random        — uniformly random candidate rows (the floor);
//   * place_uniform       — a regular lattice over the die (what a designer
//                           would do without data);
//   * place_worst_static_ir — the classic worst static-IR-drop ranking
//                           (DC analysis with nominal block currents).

#include <cstdint>
#include <vector>

#include "chip/floorplan.hpp"
#include "core/dataset.hpp"
#include "core/emergency.hpp"
#include "grid/power_grid.hpp"

namespace vmap::core {

/// `count` distinct random candidate rows; deterministic in `seed`.
std::vector<std::size_t> place_random(const Dataset& data, std::size_t count,
                                      std::uint64_t seed);

/// `count` candidates closest to a near-square lattice of target points
/// spread over the die.
std::vector<std::size_t> place_uniform(const Dataset& data,
                                       const grid::PowerGrid& grid,
                                       std::size_t count);

/// Candidates ranked by static IR drop: one DC solve with every block
/// drawing its nominal (power-weight) current, then the `count` candidates
/// with the lowest DC voltage.
std::vector<std::size_t> place_worst_static_ir(const Dataset& data,
                                               const grid::PowerGrid& grid,
                                               const chip::Floorplan& floorplan,
                                               std::size_t count);

/// PCA leverage-score placement: eigendecompose the candidates' training
/// correlation matrix and pick the `count` candidates with the largest
/// energy in the top `components` principal directions — a data-driven
/// baseline that, unlike GL, ignores the *responses* entirely.
std::vector<std::size_t> place_pca_leverage(const Dataset& data,
                                            std::size_t count,
                                            std::size_t components = 8);

/// Greedy forward selection (orthogonal-matching-pursuit style): per core,
/// repeatedly add the candidate with the largest *incremental* explained
/// variance of the core's critical-node voltages, computed in Gram space
/// with an incrementally-updated Cholesky factor. The strongest
/// combinatorial baseline here — greedy near-optimal for submodular-like
/// variance reduction — and the natural foil for the convex GL relaxation.
std::vector<std::size_t> place_greedy_r2(const Dataset& data,
                                         const chip::Floorplan& floorplan,
                                         std::size_t sensors_per_core);

/// One-core building block of place_greedy_r2, exposed for the ablation
/// bench's greedy_r2+ols row: greedy forward selection on
/// already-restricted matrices `x` (local candidates x samples) and `f`
/// (local responses x samples). Returns local row indices into `x`, in
/// selection order (not sorted).
std::vector<std::size_t> greedy_r2_select(const linalg::Matrix& x,
                                          const linalg::Matrix& f,
                                          std::size_t count);

/// Fits one chip-wide OLS model on the given sensor rows (training split),
/// then evaluates prediction accuracy and emergency detection on the test
/// split. The emergency threshold comes from the dataset config.
struct PlacementEvaluation {
  std::size_t sensors = 0;
  double relative_error = 0.0;  ///< aggregated |err|/|true| on test maps
  double rmse_volts = 0.0;
  ErrorRates detection;
};
PlacementEvaluation evaluate_placement_with_ols(
    const Dataset& data, const std::vector<std::size_t>& sensor_rows);

}  // namespace vmap::core
