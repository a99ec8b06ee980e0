// Group-lasso solver tests: optimality (KKT), solver agreement, support
// recovery on planted problems, budget semantics, the paper's §2.3
// shrinkage example, and the compact inner phase against a full-row BCD
// oracle.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>

#include "core/group_lasso.hpp"
#include "core/normalizer.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace vmap::core {
namespace {

struct Planted {
  linalg::Matrix z;          // M x N
  linalg::Matrix g;          // K x N
  std::vector<std::size_t> support;
};

/// Builds a planted problem: K responses generated from a few of M
/// regressors plus noise; everything roughly normalized.
Planted make_planted(std::size_t m, std::size_t k, std::size_t n,
                     std::vector<std::size_t> support, double noise,
                     std::uint64_t seed) {
  vmap::Rng rng(seed);
  Planted p;
  p.support = std::move(support);
  p.z = linalg::Matrix(m, n);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c) p.z(r, c) = rng.normal();
  linalg::Matrix beta(k, m);
  for (std::size_t s : p.support)
    for (std::size_t kk = 0; kk < k; ++kk)
      beta(kk, s) = rng.uniform(0.5, 1.5) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
  p.g = linalg::matmul(beta, p.z);
  for (std::size_t kk = 0; kk < k; ++kk)
    for (std::size_t c = 0; c < n; ++c) p.g(kk, c) += noise * rng.normal();
  return p;
}

/// Maximum KKT violation of a penalized GL solution.
double kkt_violation(const GroupLassoProblem& problem,
                     const GroupLassoResult& result, double mu) {
  // gradient of the smooth part: β A − B.
  linalg::Matrix grad = linalg::matmul(result.beta, problem.gram);
  grad -= problem.cross;
  double worst = 0.0;
  for (std::size_t m = 0; m < problem.num_groups(); ++m) {
    const double norm = result.group_norms[m];
    if (norm > 1e-10) {
      // Active group: grad_m + mu * beta_m / ||beta_m|| = 0.
      double acc = 0.0;
      for (std::size_t k = 0; k < grad.rows(); ++k) {
        const double v = grad(k, m) + mu * result.beta(k, m) / norm;
        acc += v * v;
      }
      worst = std::max(worst, std::sqrt(acc));
    } else {
      // Zero group: ||grad_m|| <= mu.
      double acc = 0.0;
      for (std::size_t k = 0; k < grad.rows(); ++k)
        acc += grad(k, m) * grad(k, m);
      worst = std::max(worst, std::max(0.0, std::sqrt(acc) - mu));
    }
  }
  return worst;
}

struct OracleRun {
  GroupLassoResult result;
  bool capped_in_inner = false;  ///< the cap stopped an inner sweep phase
};

/// Reference BCD: the same sweeps as GroupLasso::solve_bcd, but every group
/// update writes all M columns of the maintained product P = βA, in full
/// and inner sweeps alike (the solver before its compact inner phase).
OracleRun full_row_bcd(const GroupLassoProblem& problem,
                       const GroupLassoOptions& options, double mu,
                       const std::optional<linalg::Matrix>& warm) {
  const std::size_t k_count = problem.num_responses();
  const std::size_t m_count = problem.num_groups();
  const linalg::Matrix& a = problem.gram;
  const linalg::Matrix& b = problem.cross;
  OracleRun run;
  GroupLassoResult& result = run.result;
  result.beta = warm ? *warm : linalg::Matrix(k_count, m_count);
  linalg::Matrix& beta = result.beta;
  linalg::Matrix p = linalg::matmul(beta, a);
  linalg::Vector r(k_count), delta(k_count);
  auto update_group = [&](std::size_t m) -> double {
    const double amm = a(m, m);
    if (amm <= 0.0) return 0.0;
    double r_norm_sq = 0.0;
    for (std::size_t k = 0; k < k_count; ++k) {
      r[k] = b(k, m) - p(k, m) + beta(k, m) * amm;
      r_norm_sq += r[k] * r[k];
    }
    if (!std::isfinite(r_norm_sq))
      return std::numeric_limits<double>::infinity();
    const double r_norm = std::sqrt(r_norm_sq);
    const double scale = r_norm <= mu ? 0.0 : (1.0 - mu / r_norm) / amm;
    double change_sq = 0.0;
    for (std::size_t k = 0; k < k_count; ++k) {
      delta[k] = scale * r[k] - beta(k, m);
      change_sq += delta[k] * delta[k];
    }
    if (change_sq > 0.0) {
      for (std::size_t k = 0; k < k_count; ++k) {
        if (delta[k] == 0.0) continue;
        beta(k, m) += delta[k];
        linalg::kern::axpy(m_count, delta[k], a.row_data(m), p.row_data(k));
      }
    }
    return std::sqrt(change_sq);
  };
  std::vector<std::size_t> active;
  while (result.iterations < options.max_iterations) {
    double violation = 0.0;
    active.clear();
    for (std::size_t m = 0; m < m_count; ++m) {
      violation = std::max(violation, update_group(m));
      for (std::size_t k = 0; k < k_count; ++k) {
        if (beta(k, m) != 0.0) {
          active.push_back(m);
          break;
        }
      }
    }
    ++result.iterations;
    if (!std::isfinite(violation)) {
      result.status = Status::Numerical("non-finite");
      return run;
    }
    if (violation < options.tolerance) {
      result.converged = true;
      break;
    }
    bool inner_done = false;
    while (result.iterations < options.max_iterations) {
      double inner = 0.0;
      for (std::size_t m : active) inner = std::max(inner, update_group(m));
      ++result.iterations;
      if (!std::isfinite(inner)) {
        result.status = Status::Numerical("non-finite");
        return run;
      }
      if (inner < options.tolerance) {
        inner_done = true;
        break;
      }
    }
    run.capped_in_inner = !inner_done;
  }
  result.penalty_weight = mu;
  result.group_norms = linalg::Vector(m_count);
  for (std::size_t m = 0; m < m_count; ++m) {
    result.group_norms[m] = beta.col(m).norm2();
    result.budget += result.group_norms[m];
  }
  return run;
}

/// GroupLasso::solve_budget's μ walk and bisection over the oracle solves.
GroupLassoResult oracle_budget(const GroupLasso& solver, double lambda) {
  const GroupLassoOptions& options = solver.options();
  auto solve = [&](double mu, const std::optional<linalg::Matrix>& warm) {
    return full_row_bcd(solver.problem(), options, mu, warm).result;
  };
  const double hi_mu = solver.mu_max();
  double hi = hi_mu, lo = -1.0, previous_budget = 0.0;
  GroupLassoResult best = solve(hi_mu, std::nullopt);
  std::optional<linalg::Matrix> warm = best.beta;
  for (double mu = hi_mu * 0.4; mu >= hi_mu * 1e-4; mu *= 0.4) {
    GroupLassoResult res = solve(mu, warm);
    warm = res.beta;
    if (res.budget > lambda) {
      lo = mu;
      break;
    }
    hi = mu;
    const bool saturated =
        res.budget > 0.0 &&
        res.budget - previous_budget <= options.budget_slack * res.budget;
    previous_budget = res.budget;
    best = std::move(res);
    if (lambda - best.budget <= options.budget_slack * lambda) return best;
    if (saturated) return best;
  }
  if (lo < 0.0) return best;
  for (std::size_t it = 0; it < options.budget_bisections; ++it) {
    const double mid = std::sqrt(lo * hi);
    GroupLassoResult res = solve(mid, warm);
    warm = res.beta;
    if (res.budget <= lambda) {
      hi = mid;
      best = std::move(res);
      if (lambda - best.budget <= options.budget_slack * lambda) break;
    } else {
      lo = mid;
    }
    if (hi / lo < 1.0 + 1e-12) break;
  }
  return best;
}

void expect_matches_oracle(const GroupLassoResult& got,
                           const GroupLassoResult& want) {
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.status.code(), want.status.code());
  EXPECT_EQ(got.active_groups(1e-3), want.active_groups(1e-3));
  ASSERT_EQ(got.group_norms.size(), want.group_norms.size());
  for (std::size_t m = 0; m < want.group_norms.size(); ++m)
    EXPECT_NEAR(got.group_norms[m], want.group_norms[m],
                1e-12 * std::max(1.0, want.group_norms[m]))
        << "group " << m;
  EXPECT_NEAR(got.budget, want.budget, 1e-12 * std::max(1.0, want.budget));
}

/// Regressors in a chain with correlation ρ between neighbours, as adjacent
/// candidate sites on the die are: the Gram is near-singular and BCD crawls.
Planted make_correlated(std::size_t m, std::size_t k, std::size_t n,
                        double rho, std::uint64_t seed) {
  Planted p = make_planted(m, k, n, {2, m / 2, m - 3}, 0.3, seed);
  const double fresh = std::sqrt(1.0 - rho * rho);
  for (std::size_t r = 1; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c)
      p.z(r, c) = rho * p.z(r - 1, c) + fresh * p.z(r, c);
  linalg::Matrix beta(k, m);
  vmap::Rng rng(seed + 1);
  for (std::size_t s : p.support)
    for (std::size_t kk = 0; kk < k; ++kk) beta(kk, s) = rng.uniform(0.5, 1.5);
  p.g = linalg::matmul(beta, p.z);
  for (std::size_t kk = 0; kk < k; ++kk)
    for (std::size_t c = 0; c < n; ++c) p.g(kk, c) += 0.3 * rng.normal();
  return p;
}

TEST(GroupLassoProblem, GramIsScaledCorrelationLike) {
  const Planted p = make_planted(6, 3, 500, {1}, 0.1, 1);
  const auto problem = GroupLassoProblem::from_data(p.z, p.g);
  EXPECT_EQ(problem.num_groups(), 6u);
  EXPECT_EQ(problem.num_responses(), 3u);
  // Standard-normal regressors: diagonal of A = ZZᵀ/N ≈ 1.
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_NEAR(problem.gram(i, i), 1.0, 0.2);
}

TEST(GroupLasso, MuMaxGivesZeroSolution) {
  const Planted p = make_planted(8, 4, 300, {2, 5}, 0.05, 2);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  const double mu_max = solver.mu_max();
  const auto result = solver.solve_penalized(mu_max * 1.0001);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.budget, 0.0, 1e-9);
}

TEST(GroupLasso, JustBelowMuMaxActivatesSomething) {
  const Planted p = make_planted(8, 4, 300, {2, 5}, 0.05, 3);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  const auto result = solver.solve_penalized(solver.mu_max() * 0.9);
  EXPECT_GT(result.budget, 0.0);
}

class GlSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GlSizes, BcdSatisfiesKkt) {
  const std::size_t m = GetParam();
  const Planted p = make_planted(m, 5, 400, {0, m / 2}, 0.1, 100 + m);
  const auto problem = GroupLassoProblem::from_data(p.z, p.g);
  GroupLasso solver(problem);
  const double mu = solver.mu_max() * 0.3;
  const auto result = solver.solve_penalized(mu);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(kkt_violation(problem, result, mu), 1e-5);
}

TEST_P(GlSizes, FistaSatisfiesKkt) {
  const std::size_t m = GetParam();
  const Planted p = make_planted(m, 5, 400, {0, m / 2}, 0.1, 200 + m);
  const auto problem = GroupLassoProblem::from_data(p.z, p.g);
  GroupLassoOptions options;
  options.solver = GlSolver::kFista;
  options.max_iterations = 20000;
  options.tolerance = 1e-9;
  GroupLasso solver(problem, options);
  const double mu = solver.mu_max() * 0.3;
  const auto result = solver.solve_penalized(mu);
  EXPECT_LT(kkt_violation(problem, result, mu), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(GroupCounts, GlSizes,
                         ::testing::Values(4, 8, 16, 32));

TEST(GroupLasso, BcdAndFistaAgree) {
  const Planted p = make_planted(12, 4, 500, {1, 7}, 0.1, 4);
  const auto problem = GroupLassoProblem::from_data(p.z, p.g);
  GroupLassoOptions bcd_options;
  GroupLassoOptions fista_options;
  fista_options.solver = GlSolver::kFista;
  fista_options.max_iterations = 30000;
  fista_options.tolerance = 1e-10;
  GroupLasso bcd(problem, bcd_options);
  GroupLasso fista(problem, fista_options);
  const double mu = bcd.mu_max() * 0.2;
  const auto rb = bcd.solve_penalized(mu);
  const auto rf = fista.solve_penalized(mu);
  EXPECT_NEAR(rb.objective, rf.objective, 1e-6);
  EXPECT_EQ(rb.active_groups(1e-4), rf.active_groups(1e-4));
  for (std::size_t m = 0; m < 12; ++m)
    EXPECT_NEAR(rb.group_norms[m], rf.group_norms[m], 1e-4);
}

TEST(GroupLasso, RecoversPlantedSupport) {
  const std::vector<std::size_t> support{3, 9, 14};
  const Planted p = make_planted(20, 6, 800, support, 0.05, 5);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  const auto result = solver.solve_penalized(solver.mu_max() * 0.15);
  EXPECT_TRUE(result.converged);
  const auto active = result.active_groups(1e-3);
  EXPECT_EQ(active, support);
}

TEST(GroupLasso, SelectedAndRejectedNormsAreWellSeparated) {
  // The paper's Fig. 1 gap: active group norms dwarf inactive ones.
  const Planted p = make_planted(20, 6, 800, {2, 11}, 0.05, 6);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  const auto result = solver.solve_penalized(solver.mu_max() * 0.2);
  double min_active = 1e300, max_inactive = 0.0;
  for (std::size_t m = 0; m < 20; ++m) {
    if (m == 2 || m == 11)
      min_active = std::min(min_active, result.group_norms[m]);
    else
      max_inactive = std::max(max_inactive, result.group_norms[m]);
  }
  EXPECT_GT(min_active, 100.0 * std::max(max_inactive, 1e-12));
}

TEST(GroupLasso, PenaltyPathIsMonotoneInBudget) {
  // Budget Σ||β_m||₂ is non-increasing in μ, i.e. it grows as the penalty
  // weight shrinks along the path below.
  const Planted p = make_planted(15, 5, 600, {0, 4, 8}, 0.1, 7);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  const double mu_max = solver.mu_max();
  double previous_budget = 0.0;
  for (double f : {0.8, 0.4, 0.2, 0.1, 0.05}) {
    const auto result = solver.solve_penalized(mu_max * f);
    EXPECT_GE(result.budget, previous_budget - 1e-9);
    previous_budget = result.budget;
  }
}

TEST(GroupLasso, BudgetSolutionIsFeasibleAndTight) {
  const Planted p = make_planted(15, 5, 600, {0, 4, 8}, 0.1, 8);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  // Pick a budget clearly below the unconstrained optimum's budget.
  const auto loose = solver.solve_penalized(solver.mu_max() * 1e-6);
  const double lambda = 0.5 * loose.budget;
  const auto result = solver.solve_budget(lambda);
  EXPECT_LE(result.budget, lambda * (1.0 + 1e-9));
  EXPECT_GT(result.budget, lambda * 0.9);  // tight, not trivially feasible
}

TEST(GroupLasso, HugeBudgetReturnsUnconstrainedSolution) {
  const Planted p = make_planted(10, 3, 400, {1, 5}, 0.1, 9);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  const auto result = solver.solve_budget(1e6);
  const auto unconstrained = solver.solve_penalized(solver.mu_max() * 1e-6);
  // Both are approximations of the μ→0 limit; compare loosely.
  EXPECT_NEAR(result.budget, unconstrained.budget, 1e-3 * (1 + result.budget));
}

TEST(GroupLasso, LargerBudgetSelectsMoreSensors) {
  // Table 1's trend: λ up → more selected sensors (weak monotonicity).
  const Planted p = make_planted(24, 8, 800, {1, 5, 9, 13, 17, 21}, 0.2, 10);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  std::size_t previous = 0;
  for (double lambda : {0.3, 1.0, 3.0, 10.0}) {
    const auto result = solver.solve_budget(lambda);
    const std::size_t count = result.active_groups(1e-3).size();
    EXPECT_GE(count + 1, previous);  // allow one-off ties
    previous = std::max(previous, count);
  }
}

TEST(GroupLasso, WarmStartReachesSameSolution) {
  const Planted p = make_planted(12, 4, 400, {2, 6}, 0.1, 11);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  const double mu = solver.mu_max() * 0.25;
  const auto cold = solver.solve_penalized(mu);
  const auto other = solver.solve_penalized(solver.mu_max() * 0.5);
  const auto warm = solver.solve_penalized(mu, other.beta);
  EXPECT_NEAR(cold.objective, warm.objective, 1e-8);
}

TEST(GroupLasso, SmoothObjectiveMatchesDirectResidual) {
  const Planted p = make_planted(6, 3, 200, {1}, 0.2, 12);
  const auto problem = GroupLassoProblem::from_data(p.z, p.g);
  GroupLasso solver(problem);
  const auto result = solver.solve_penalized(solver.mu_max() * 0.3);
  // Direct: ½||G − βZ||²/N.
  linalg::Matrix residual = linalg::matmul(result.beta, p.z);
  residual -= p.g;
  const double direct = 0.5 * residual.norm_frobenius_squared() /
                        static_cast<double>(p.z.cols());
  EXPECT_NEAR(solver.smooth_objective(result.beta), direct, 1e-9);
}

TEST(GroupLasso, DegenerateGroupIsNeverSelected) {
  Planted p = make_planted(8, 3, 300, {1}, 0.1, 13);
  for (std::size_t c = 0; c < p.z.cols(); ++c) p.z(4, c) = 0.0;  // dead row
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  const auto result = solver.solve_penalized(solver.mu_max() * 0.1);
  EXPECT_DOUBLE_EQ(result.group_norms[4], 0.0);
}

TEST(GroupLasso, ShrinkageBiasOfSectionTwoThree) {
  // Paper §2.3's example: g1 = g2 = z1. With budget λ = 1 only sensor 1 is
  // selected, but its coefficients are forced to satisfy
  // sqrt(β² + β²) <= 1, i.e. β ≈ 0.707 instead of the optimal 1.0 — the
  // bias that motivates the OLS refit.
  vmap::Rng rng(14);
  const std::size_t n = 2000;
  linalg::Matrix z(2, n);
  for (std::size_t c = 0; c < n; ++c) {
    z(0, c) = rng.normal();
    z(1, c) = rng.normal();
  }
  linalg::Matrix g(2, n);
  for (std::size_t c = 0; c < n; ++c) {
    g(0, c) = z(0, c);
    g(1, c) = z(0, c);
  }
  GroupLasso solver(GroupLassoProblem::from_data(z, g));
  const auto result = solver.solve_budget(1.0);
  const auto active = result.active_groups(1e-3);
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0], 0u);
  // Budget 1 forces ||β_1||₂ ≈ 1, so each coefficient ≈ 1/√2 — clearly
  // below the true value 1.0.
  EXPECT_NEAR(result.group_norms[0], 1.0, 0.05);
  EXPECT_NEAR(result.beta(0, 0), 1.0 / std::sqrt(2.0), 0.05);
  EXPECT_LT(result.beta(0, 0), 0.9);
}

TEST(GroupLassoOracle, PlantedProblemsMatchFullRowSweeps) {
  for (std::uint64_t seed : {4, 5, 7, 11}) {
    const Planted p = make_planted(20, 6, 600, {1, 7, 14}, 0.1, seed);
    const auto problem = GroupLassoProblem::from_data(p.z, p.g);
    GroupLasso solver(problem);
    for (double f : {0.5, 0.2, 0.05}) {
      const double mu = solver.mu_max() * f;
      expect_matches_oracle(
          solver.solve_penalized(mu),
          full_row_bcd(problem, solver.options(), mu, std::nullopt).result);
    }
  }
}

TEST(GroupLassoOracle, CorrelatedProblemMatchesFullRowSweeps) {
  const Planted p = make_correlated(40, 8, 100, 0.9, 21);
  const auto problem = GroupLassoProblem::from_data(p.z, p.g);
  EXPECT_GT(problem.gram(10, 11), 0.85);
  GroupLasso solver(problem);
  for (double f : {0.2, 0.1, 0.05, 0.02}) {
    const double mu = solver.mu_max() * f;
    expect_matches_oracle(
        solver.solve_penalized(mu),
        full_row_bcd(problem, solver.options(), mu, std::nullopt).result);
  }
}

TEST(GroupLassoOracle, CorrelatedProblemCappedMidInnerPhase) {
  const Planted p = make_correlated(40, 8, 100, 0.9, 21);
  const auto problem = GroupLassoProblem::from_data(p.z, p.g);
  GroupLassoOptions options;
  options.max_iterations = 100;  // the solve needs 118 sweeps
  GroupLasso solver(problem, options);
  const double mu = solver.mu_max() * 0.02;
  const OracleRun want = full_row_bcd(problem, options, mu, std::nullopt);
  ASSERT_FALSE(want.result.converged);
  ASSERT_TRUE(want.capped_in_inner);
  expect_matches_oracle(solver.solve_penalized(mu), want.result);
}

TEST(GroupLassoOracle, WarmStartedChainMatchesFullRowSweeps) {
  const Planted p = make_correlated(40, 8, 100, 0.9, 22);
  const auto problem = GroupLassoProblem::from_data(p.z, p.g);
  GroupLasso solver(problem);
  std::optional<linalg::Matrix> warm, oracle_warm;
  for (double f : {0.4, 0.2, 0.1, 0.05, 0.02}) {
    const double mu = solver.mu_max() * f;
    const GroupLassoResult got = solver.solve_penalized(mu, warm);
    const GroupLassoResult want =
        full_row_bcd(problem, solver.options(), mu, oracle_warm).result;
    expect_matches_oracle(got, want);
    warm = got.beta;
    oracle_warm = want.beta;
  }
}

TEST(GroupLassoOracle, BudgetBisectionLandsOnTheSamePenalty) {
  const Planted p = make_correlated(40, 8, 100, 0.9, 21);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  const double lambda = 2.0;
  const GroupLassoResult got = solver.solve_budget(lambda);
  const GroupLassoResult want = oracle_budget(solver, lambda);
  EXPECT_GT(got.budget, 0.9 * lambda);  // the budget binds: μ was bisected
  EXPECT_EQ(got.penalty_weight, want.penalty_weight);  // bit-identical μ
  expect_matches_oracle(got, want);
}

TEST(GroupLasso, RejectsInvalidArguments) {
  const Planted p = make_planted(4, 2, 100, {0}, 0.1, 15);
  GroupLasso solver(GroupLassoProblem::from_data(p.z, p.g));
  EXPECT_THROW(solver.solve_penalized(-1.0), vmap::ContractError);
  EXPECT_THROW(solver.solve_budget(0.0), vmap::ContractError);
  EXPECT_THROW(solver.solve_penalized(1.0, linalg::Matrix(1, 1)),
               vmap::ContractError);
}

TEST(GroupLasso, MismatchedDataRejected) {
  linalg::Matrix z(3, 10), g(2, 11);
  EXPECT_THROW(GroupLassoProblem::from_data(z, g), vmap::ContractError);
}

}  // namespace
}  // namespace vmap::core
