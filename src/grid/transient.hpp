#pragma once
// Backward-Euler transient simulation of the power grid.
//
// The stepping matrix (G + C/dt, with pad impedances folded in) is
// constant, so it is factorized once and each time step costs only a
// forward/backward substitution. Backward Euler is L-stable: large current
// steps (power-gating events) cannot excite spurious numerical
// oscillations.
//
// When the grid's pads carry a series inductance L, each pad branch is
// discretized with its backward-Euler companion model:
//     VDD − v⁺ = R i⁺ + (L/dt)(i⁺ − i)
//  ⇒  i⁺ = g_eff (VDD − v⁺) + g_eff (L/dt) i,   g_eff = 1/(R + L/dt)
// which amounts to swapping the pad's DC conductance for g_eff in the step
// matrix and adding a history term to the RHS; the pad currents are the
// extra state the simulator carries. This reproduces the L·di/dt first
// droop (the voltage undershoots below its resistive DC value after a load
// step) that the voltage-emergency literature targets.
//
// Lockstep columns: the step matrix depends only on the grid and dt, so
// one factor serves any number of independent simulations. A simulator
// carries k state columns (node voltages and pad currents per column) and
// advances all of them with one k-RHS substitution; with_columns() makes a
// k-column simulator that shares an existing factor read-only, so
// simulators on different threads step against a single factorization.
// Column c evolves byte-identically to a one-column simulator fed the same
// load currents.

#include <cstddef>
#include <memory>
#include <span>

#include "grid/power_grid.hpp"
#include "linalg/vector.hpp"
#include "sparse/cg.hpp"
#include "sparse/skyline_cholesky.hpp"
#include "util/resilience.hpp"

namespace vmap::grid {

/// Which linear solver backs each transient step.
enum class StepSolver {
  kDirect,  ///< prefactored skyline Cholesky (default)
  kPcgIc0,  ///< conjugate gradient with IC(0), for very large grids
};

/// Time-stepping engine over a PowerGrid.
class TransientSim {
 public:
  /// `dt` is the step in seconds; must be positive. Builds (and, for the
  /// direct solver, factors) the step matrix; the simulator has one state
  /// column.
  TransientSim(const PowerGrid& grid, double dt,
               StepSolver solver = StepSolver::kDirect);

  /// A fresh simulator of `columns` independent states at the quiescent
  /// state, stepping against this simulator's factor (shared read-only:
  /// no refactorization). Direct solver only.
  TransientSim with_columns(std::size_t columns) const;

  double dt() const { return dt_; }
  std::size_t columns() const { return columns_; }
  /// The constant stepping matrix G (+ pad companions) + C/dt.
  const sparse::CsrMatrix& step_matrix() const { return step_matrix_; }
  std::size_t steps_taken() const { return steps_; }
  double time() const { return static_cast<double>(steps_) * dt_; }

  /// Resets every column to the all-VDD quiescent state (also the initial
  /// state).
  void reset();
  /// Resets every column to an explicit state vector (pad currents reset
  /// to zero).
  void reset(const linalg::Vector& v0);

  /// Advances one step with the given per-node load currents (A) applied
  /// during the new interval; the vector may cover only the device layer
  /// (zero-extended) or all nodes. One-column simulators only. Returns the
  /// node voltages after the step.
  const linalg::Vector& step(const linalg::Vector& load_currents);

  /// Advances every column one step in lockstep; load_currents[c] drives
  /// column c (same size rules as step()). Counts one transient.step
  /// span and `columns()` transient.steps.
  void step(std::span<const linalg::Vector> load_currents);

  /// Voltage of `node` in state column `column`.
  double voltage(std::size_t column, std::size_t node) const {
    return v_[node * columns_ + column];
  }

  /// Current node voltages of a one-column simulator (for k columns, the
  /// n x k row-major state: node i, column c at [i*k + c]).
  const linalg::Vector& voltages() const { return v_; }

  /// Current per-pad branch currents (A), aligned with
  /// grid.pad_nodes() (pad p, column c at [p*k + c]); all zeros when the
  /// pads have no inductance.
  const linalg::Vector& pad_currents() const { return pad_currents_; }

  /// Attaches a resilience report; solver fallbacks taken during step()
  /// are recorded into it. The report must outlive the simulator (or be
  /// detached with nullptr first). Not owned.
  void set_resilience_report(ResilienceReport* report) { report_ = report; }

  /// Overrides the PCG options used by kPcgIc0 stepping (tolerance,
  /// iteration cap, divergence guard). No effect on the direct solver.
  void set_cg_options(const sparse::CgOptions& options) {
    cg_options_ = options;
  }

  /// The solver currently answering step(): "direct", "pcg-ic0", or
  /// "pcg-degraded->direct" once the PCG path has permanently escalated.
  const char* active_solver() const;

 private:
  /// Escalation ladder for a failed PCG step: shifted-IC(0) retry, then a
  /// lazily built direct factorization (permanent degradation).
  void solve_with_fallback(const linalg::Vector& rhs,
                           const StatusOr<sparse::CgResult>& failed);

  const PowerGrid& grid_;
  double dt_;
  StepSolver solver_kind_;
  bool inductive_ = false;
  double g_eff_ = 0.0;       ///< effective pad conductance 1/(R + L/dt)
  double history_gain_ = 0.0;  ///< g_eff * L/dt
  sparse::CsrMatrix step_matrix_;  // G (+ pad companion) + C/dt
  std::shared_ptr<const sparse::SkylineCholesky> direct_;  // shared, immutable
  sparse::Preconditioner pcg_precond_;
  sparse::CgOptions cg_options_;
  ResilienceReport* report_ = nullptr;  // not owned
  bool pcg_degraded_ = false;  ///< PCG path permanently escalated to direct
  linalg::Vector c_over_dt_;
  linalg::Vector rhs_;  // step scratch, n x columns_
  std::size_t columns_ = 1;
  linalg::Vector v_;             // n x columns_, row-major
  linalg::Vector pad_currents_;  // pads x columns_, row-major
  std::size_t steps_ = 0;
};

}  // namespace vmap::grid
