#pragma once
// Group lasso for multi-response sensor selection (paper §2.2, Eq. 12).
//
// The paper solves the constrained problem
//     min_β ||G − β Z||_F    s.t.  Σ_m ||β_m||₂ ≤ λ          (12)
// via SOCP. We solve the equivalent Lagrangian (penalized) problem
//     min_β ½||G − β Z||²_F + μ Σ_m ||β_m||₂
// with two hand-coded solvers — block coordinate descent (exact group
// updates, active-set accelerated) and FISTA (accelerated proximal
// gradient) — and recover the constrained solution for a budget λ by
// bisection on μ (the budget Σ||β_m||₂ is non-increasing in μ). Both
// problems trace the same solution path for this convex objective.
//
// Everything works on Gram matrices A = Z Zᵀ (M×M) and B = G Zᵀ (K×M), so
// the per-iteration cost is independent of the sample count N.
//
// BCD maintains P = βA. A full sweep over all M groups finds the active set
// S (groups with a nonzero coefficient); the inner sweeps that follow run
// on a compact K×|S| copy (A_SS and the S-columns of B, P and β), so each
// group update writes |S| columns of P instead of M. On leaving the inner
// phase (converged, capped or non-finite) β_S and P_S are written back and
// P's other columns catch up once, P[:, j] += (β_S − β_S⁰)·A[S, j]. The
// axpy kernel is elementwise in all its paths, so every active column of P
// sees the same operations in the same order as a full-row update would;
// only the inactive columns round differently (one catch-up sum instead of
// one sum per update).

#include <cstddef>
#include <optional>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/status.hpp"

namespace vmap::core {

/// Precomputed sufficient statistics of the normalized data.
struct GroupLassoProblem {
  linalg::Matrix gram;    ///< A = Z Zᵀ, M x M
  linalg::Matrix cross;   ///< B = G Zᵀ, K x M
  double g_norm_sq = 0.0; ///< ||G||²_F, completes the objective value
  std::size_t samples = 0;

  std::size_t num_groups() const { return gram.rows(); }
  std::size_t num_responses() const { return cross.rows(); }

  /// Builds the statistics from normalized data matrices Z (M x N) and
  /// G (K x N).
  static GroupLassoProblem from_data(const linalg::Matrix& z,
                                     const linalg::Matrix& g);
};

enum class GlSolver { kBcd, kFista };

struct GroupLassoOptions {
  GlSolver solver = GlSolver::kBcd;
  double tolerance = 1e-6;        ///< group-change / KKT-slack tolerance
  std::size_t max_iterations = 8000;
  std::size_t budget_bisections = 60;  ///< iterations for solve_budget
  double budget_slack = 1e-3;     ///< accept budgets within this rel. gap
};

struct GroupLassoResult {
  linalg::Matrix beta;          ///< K x M coefficients
  linalg::Vector group_norms;   ///< ||β_m||₂ per group
  double penalty_weight = 0.0;  ///< μ the solution corresponds to
  double budget = 0.0;          ///< Σ_m ||β_m||₂ achieved
  double objective = 0.0;       ///< ½||G − βZ||²_F + μ Σ||β_m||₂
  std::size_t iterations = 0;
  bool converged = false;
  /// kOk normally (even when converged == false: hitting the iteration cap
  /// is a usable-but-inexact outcome). kNumerical when the iterates went
  /// non-finite — the coefficients are then garbage and must not be used.
  Status status;

  /// Groups with ||β_m||₂ strictly above `threshold`.
  std::vector<std::size_t> active_groups(double threshold) const;
};

/// Solver over one (fixed-data) problem; cheap to call repeatedly along a
/// regularization path thanks to warm starts.
class GroupLasso {
 public:
  explicit GroupLasso(GroupLassoProblem problem,
                      GroupLassoOptions options = {});

  const GroupLassoProblem& problem() const { return problem_; }
  const GroupLassoOptions& options() const { return options_; }

  /// Smallest μ for which the all-zero solution is optimal:
  /// μ_max = max_m ||B_m||₂.
  double mu_max() const;

  /// Solves the penalized problem at weight `mu` (>= 0). Optional warm
  /// start (must be K x M).
  GroupLassoResult solve_penalized(
      double mu, const std::optional<linalg::Matrix>& warm_start =
                     std::nullopt) const;

  /// Solves the paper's constrained form: min ||G − βZ||_F subject to
  /// Σ||β_m||₂ ≤ λ, by bisecting μ. The returned budget is ≤ λ (within
  /// slack). λ larger than the unconstrained optimum's budget simply
  /// yields the (nearly) unpenalized solution.
  GroupLassoResult solve_budget(double lambda) const;

  /// ½||G − βZ||²_F evaluated through the Gram statistics.
  double smooth_objective(const linalg::Matrix& beta) const;

 private:
  GroupLassoResult solve_bcd(double mu,
                             const std::optional<linalg::Matrix>& warm) const;
  GroupLassoResult solve_fista(double mu,
                               const std::optional<linalg::Matrix>& warm) const;
  void finalize(GroupLassoResult& result, double mu) const;

  GroupLassoProblem problem_;
  GroupLassoOptions options_;
};

}  // namespace vmap::core
