#include "core/group_lasso.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>

#include "linalg/kernels.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace vmap::core {

GroupLassoProblem GroupLassoProblem::from_data(const linalg::Matrix& z,
                                               const linalg::Matrix& g) {
  VMAP_REQUIRE(z.cols() == g.cols(), "Z and G must share the sample axis");
  VMAP_REQUIRE(z.cols() >= 2, "need at least two samples");
  GroupLassoProblem p;
  p.samples = z.cols();
  // Scale by 1/N so the Gram entries are O(1) correlations; the constrained
  // solution path is invariant to this uniform objective scaling.
  const double inv_n = 1.0 / static_cast<double>(p.samples);
  p.gram = linalg::matmul_a_bt(z, z);
  p.gram *= inv_n;
  p.cross = linalg::matmul_a_bt(g, z);
  p.cross *= inv_n;
  p.g_norm_sq = g.norm_frobenius_squared() * inv_n;
  return p;
}

std::vector<std::size_t> GroupLassoResult::active_groups(
    double threshold) const {
  std::vector<std::size_t> active;
  for (std::size_t m = 0; m < group_norms.size(); ++m)
    if (group_norms[m] > threshold) active.push_back(m);
  return active;
}

GroupLasso::GroupLasso(GroupLassoProblem problem, GroupLassoOptions options)
    : problem_(std::move(problem)), options_(options) {
  VMAP_REQUIRE(problem_.gram.rows() == problem_.gram.cols(),
               "Gram matrix must be square");
  VMAP_REQUIRE(problem_.cross.cols() == problem_.gram.rows(),
               "cross matrix column count must match group count");
  VMAP_REQUIRE(options_.tolerance > 0.0, "tolerance must be positive");
  VMAP_REQUIRE(options_.max_iterations > 0, "need at least one iteration");
}

double GroupLasso::mu_max() const {
  const std::size_t m_count = problem_.num_groups();
  double mx = 0.0;
  for (std::size_t m = 0; m < m_count; ++m)
    mx = std::max(mx, problem_.cross.col(m).norm2());
  return mx;
}

double GroupLasso::smooth_objective(const linalg::Matrix& beta) const {
  // ½||G − βZ||²/N = ½(g_norm_sq − 2 Σ β∘B + Σ β∘(βA)).
  linalg::Matrix p = linalg::matmul(beta, problem_.gram);
  double lin = 0.0, quad = 0.0;
  for (std::size_t k = 0; k < beta.rows(); ++k) {
    const double* brow = beta.row_data(k);
    const double* crow = problem_.cross.row_data(k);
    const double* prow = p.row_data(k);
    for (std::size_t m = 0; m < beta.cols(); ++m) {
      lin += brow[m] * crow[m];
      quad += brow[m] * prow[m];
    }
  }
  return 0.5 * (problem_.g_norm_sq - 2.0 * lin + quad);
}

void GroupLasso::finalize(GroupLassoResult& result, double mu) const {
  const std::size_t m_count = problem_.num_groups();
  result.penalty_weight = mu;
  result.group_norms = linalg::Vector(m_count);
  result.budget = 0.0;
  for (std::size_t m = 0; m < m_count; ++m) {
    const double norm = result.beta.col(m).norm2();
    result.group_norms[m] = norm;
    result.budget += norm;
  }
  result.objective = smooth_objective(result.beta) + mu * result.budget;
}

GroupLassoResult GroupLasso::solve_penalized(
    double mu, const std::optional<linalg::Matrix>& warm_start) const {
  VMAP_REQUIRE(mu >= 0.0, "penalty weight must be non-negative");
  if (warm_start) {
    VMAP_REQUIRE(warm_start->rows() == problem_.num_responses() &&
                     warm_start->cols() == problem_.num_groups(),
                 "warm start shape mismatch");
  }
  TraceSpan span("gl.solve_penalized");
  GroupLassoResult result = options_.solver == GlSolver::kBcd
                                ? solve_bcd(mu, warm_start)
                                : solve_fista(mu, warm_start);
  static metrics::Counter& solves = metrics::counter("gl.penalized_solves");
  static metrics::Counter& sweeps = metrics::counter("gl.sweeps");
  static metrics::Counter& breakdowns = metrics::counter("gl.breakdowns");
  static metrics::Histogram& sweeps_per_solve = metrics::histogram(
      "gl.sweeps_per_solve", metrics::default_iteration_buckets());
  solves.add();
  sweeps.add(result.iterations);
  sweeps_per_solve.observe(static_cast<double>(result.iterations));
  if (!result.status.ok()) breakdowns.add();
  span.arg("mu", mu);
  span.arg("sweeps", static_cast<double>(result.iterations));
  // On numerical breakdown the coefficients are garbage; leave the summary
  // fields zeroed rather than propagating NaN through them.
  if (result.status.ok()) finalize(result, mu);
  else result.penalty_weight = mu;
  return result;
}

namespace {

/// The coordinates one BCD sweep works on: Gram A (n x n), cross B (K x n),
/// the maintained product P = βA on the same n columns, and β. A full sweep
/// runs on the whole problem; an inner sweep on the active set's block.
struct BcdBlock {
  const linalg::Matrix& a;
  const linalg::Matrix& b;
  linalg::Matrix& p;
  linalg::Matrix& beta;
};

}  // namespace

GroupLassoResult GroupLasso::solve_bcd(
    double mu, const std::optional<linalg::Matrix>& warm) const {
  const std::size_t k_count = problem_.num_responses();
  const std::size_t m_count = problem_.num_groups();
  const linalg::Matrix& a = problem_.gram;
  const linalg::Matrix& b = problem_.cross;

  GroupLassoResult result;
  result.beta = warm ? *warm : linalg::Matrix(k_count, m_count);
  linalg::Matrix& beta = result.beta;
  // Maintained product P = β A; updated incrementally per group change.
  linalg::Matrix p = linalg::matmul(beta, a);

  linalg::Vector r(k_count), delta(k_count);

  // Exact minimization over group m of `blk`; returns the change norm.
  auto update_group = [&](const BcdBlock& blk, std::size_t m) -> double {
    const double amm = blk.a(m, m);
    if (amm <= 0.0) return 0.0;  // degenerate (zero-variance) candidate

    // r = B_m − (βA)_m + β_m·A_mm : the group's residual correlation.
    double r_norm_sq = 0.0;
    for (std::size_t k = 0; k < k_count; ++k) {
      r[k] = blk.b(k, m) - blk.p(k, m) + blk.beta(k, m) * amm;
      r_norm_sq += r[k] * r[k];
    }
    // Non-finite residual: the iterate has blown up. Surface an infinite
    // violation so the sweep loop can abort with a kNumerical status.
    if (!std::isfinite(r_norm_sq))
      return std::numeric_limits<double>::infinity();
    const double r_norm = std::sqrt(r_norm_sq);

    // Group soft threshold then scale by 1/A_mm.
    double change_sq = 0.0;
    if (r_norm <= mu) {
      for (std::size_t k = 0; k < k_count; ++k) {
        delta[k] = -blk.beta(k, m);
        change_sq += delta[k] * delta[k];
      }
    } else {
      const double scale = (1.0 - mu / r_norm) / amm;
      for (std::size_t k = 0; k < k_count; ++k) {
        const double next = scale * r[k];
        delta[k] = next - blk.beta(k, m);
        change_sq += delta[k] * delta[k];
      }
    }

    if (change_sq > 0.0) {
      const double* arow = blk.a.row_data(m);
      for (std::size_t k = 0; k < k_count; ++k) {
        if (delta[k] == 0.0) continue;
        blk.beta(k, m) += delta[k];
        linalg::kern::axpy(blk.a.cols(), delta[k], arow, blk.p.row_data(k));
      }
    }
    return std::sqrt(change_sq);
  };

  auto non_finite = [&] {
    result.status = Status::Numerical(
        "non-finite iterate in group-lasso BCD (sweep " +
        std::to_string(result.iterations) + ", mu=" + std::to_string(mu) +
        ")");
  };

  // Active-set BCD: a full sweep identifies the working set S (nonzero
  // groups); cheap inner sweeps converge on that set; a final full sweep
  // certifies global optimality (zero groups' KKT is re-checked by the
  // exact update itself). Nothing reads P outside S until the next full
  // sweep, so the inner sweeps run on a compact copy of the S-block and
  // their work is proportional to the number of *selected* sensors, not
  // candidates (see the header for the numerics).
  const BcdBlock full{a, b, p, beta};
  std::vector<std::size_t> active;
  while (result.iterations < options_.max_iterations) {
    double full_violation = 0.0;
    active.clear();
    for (std::size_t m = 0; m < m_count; ++m) {
      full_violation = std::max(full_violation, update_group(full, m));
      for (std::size_t k = 0; k < k_count; ++k) {
        if (beta(k, m) != 0.0) {
          active.push_back(m);
          break;
        }
      }
    }
    ++result.iterations;
    if (!std::isfinite(full_violation)) {
      non_finite();
      return result;
    }
    if (full_violation < options_.tolerance) {
      result.converged = true;
      break;
    }

    const std::size_t s_count = active.size();
    linalg::Matrix a_s(s_count, s_count), b_s(k_count, s_count),
        p_s(k_count, s_count), beta_s(k_count, s_count);
    for (std::size_t i = 0; i < s_count; ++i)
      for (std::size_t j = 0; j < s_count; ++j)
        a_s(i, j) = a(active[i], active[j]);
    for (std::size_t k = 0; k < k_count; ++k) {
      for (std::size_t i = 0; i < s_count; ++i) {
        b_s(k, i) = b(k, active[i]);
        p_s(k, i) = p(k, active[i]);
        beta_s(k, i) = beta(k, active[i]);
      }
    }
    const linalg::Matrix beta_s0 = beta_s;
    const BcdBlock compact{a_s, b_s, p_s, beta_s};
    bool finite = true;
    while (result.iterations < options_.max_iterations) {
      double inner_violation = 0.0;
      for (std::size_t i = 0; i < s_count; ++i)
        inner_violation = std::max(inner_violation, update_group(compact, i));
      ++result.iterations;
      if (!std::isfinite(inner_violation)) {
        finite = false;
        break;
      }
      if (inner_violation < options_.tolerance) break;
    }
    // Write back: P's other columns catch up with the phase's change of
    // β_S (row by row, P[:, j] += Δβ_S·A[S, j]); the S-columns and β_S are
    // then taken from the block, so they carry exactly the per-update sums.
    for (std::size_t k = 0; k < k_count; ++k) {
      double* prow = p.row_data(k);
      for (std::size_t i = 0; i < s_count; ++i) {
        const double d = beta_s(k, i) - beta_s0(k, i);
        if (d != 0.0)
          linalg::kern::axpy(m_count, d, a.row_data(active[i]), prow);
      }
      for (std::size_t i = 0; i < s_count; ++i) {
        prow[active[i]] = p_s(k, i);
        beta(k, active[i]) = beta_s(k, i);
      }
    }
    if (!finite) {
      non_finite();
      return result;
    }
  }
  if (!result.converged) {
    VMAP_LOG(kInfo) << "group-lasso BCD hit the iteration cap ("
                    << options_.max_iterations << " sweeps) at mu=" << mu;
  }
  return result;
}

GroupLassoResult GroupLasso::solve_fista(
    double mu, const std::optional<linalg::Matrix>& warm) const {
  const std::size_t k_count = problem_.num_responses();
  const std::size_t m_count = problem_.num_groups();
  const linalg::Matrix& a = problem_.gram;
  const linalg::Matrix& b = problem_.cross;

  // Lipschitz constant of the smooth gradient: λ_max(A) via power iteration.
  double lip = 0.0;
  {
    linalg::Vector v(m_count, 1.0);
    v /= v.norm2();
    for (int it = 0; it < 100; ++it) {
      linalg::Vector av = linalg::matvec(a, v);
      const double norm = av.norm2();
      if (norm == 0.0) break;
      av /= norm;
      v = av;
      lip = norm;
    }
    lip = std::max(lip * 1.01, 1e-12);  // small safety margin
  }

  GroupLassoResult result;
  result.beta = warm ? *warm : linalg::Matrix(k_count, m_count);
  linalg::Matrix& beta = result.beta;
  linalg::Matrix y = beta;
  double t = 1.0;
  const double step_mu = mu / lip;

  for (std::size_t it = 0; it < options_.max_iterations; ++it) {
    // Gradient step on the momentum point: y − (yA − B)/L. Per-row
    // elementwise, so rows can run on the pool with identical results.
    linalg::Matrix grad = linalg::matmul(y, a);
    grad -= b;
    linalg::Matrix next = y;
    const double row_flops = 2.0 * static_cast<double>(m_count);
    parallel_for_chunked(0, k_count, row_flops,
                         [&](std::size_t kb, std::size_t ke) {
                           for (std::size_t k = kb; k < ke; ++k)
                             linalg::kern::sub_div(m_count, grad.row_data(k), lip,
                                           next.row_data(k));
                         });
    // Column-group proximal (soft threshold at μ/L). Columns are
    // independent (each norm walks its own column in ascending k), so
    // column ranges parallelize bit-identically; a non-finite column only
    // sets the flag — `next` is discarded on that path, so scaling the
    // other columns anyway changes nothing observable.
    std::atomic<bool> non_finite{false};
    parallel_for_chunked(
        0, m_count, 2.0 * static_cast<double>(k_count),
        [&](std::size_t mb, std::size_t me) {
          for (std::size_t m = mb; m < me; ++m) {
            double norm_sq = 0.0;
            for (std::size_t k = 0; k < k_count; ++k)
              norm_sq += next(k, m) * next(k, m);
            if (!std::isfinite(norm_sq)) {
              non_finite.store(true, std::memory_order_relaxed);
              return;
            }
            const double norm = std::sqrt(norm_sq);
            const double scale = norm <= step_mu ? 0.0 : 1.0 - step_mu / norm;
            for (std::size_t k = 0; k < k_count; ++k) next(k, m) *= scale;
          }
        });
    if (non_finite.load(std::memory_order_relaxed)) {
      result.status = Status::Numerical(
          "non-finite iterate in group-lasso FISTA (iteration " +
          std::to_string(it + 1) + ", mu=" + std::to_string(mu) + ")");
      return result;
    }

    // Nesterov momentum. Rows are disjoint; the convergence check is a max
    // over all elements, which is order-insensitive for the finite values
    // here, so per-chunk maxima folded under a mutex reproduce the serial
    // `change` exactly.
    const double t_next = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
    double change = 0.0;
    std::mutex change_mutex;
    parallel_for_chunked(
        0, k_count, 4.0 * static_cast<double>(m_count),
        [&](std::size_t kb, std::size_t ke) {
          double local = 0.0;
          for (std::size_t k = kb; k < ke; ++k) {
            double* yrow = y.row_data(k);
            double* brow = beta.row_data(k);
            const double* nrow = next.row_data(k);
            for (std::size_t m = 0; m < m_count; ++m) {
              const double d = nrow[m] - brow[m];
              local = std::max(local, std::abs(d));
              yrow[m] = nrow[m] + ((t - 1.0) / t_next) * d;
              brow[m] = nrow[m];
            }
          }
          std::lock_guard<std::mutex> lock(change_mutex);
          change = std::max(change, local);
        });
    t = t_next;
    result.iterations = it + 1;
    if (change < options_.tolerance) {
      result.converged = true;
      break;
    }
  }
  if (!result.converged) {
    VMAP_LOG(kInfo) << "group-lasso FISTA hit the iteration cap ("
                    << options_.max_iterations << ") at mu=" << mu;
  }
  return result;
}

GroupLassoResult GroupLasso::solve_budget(double lambda) const {
  VMAP_REQUIRE(lambda > 0.0, "budget must be positive");
  TraceSpan span("gl.solve_budget");
  span.arg("lambda", lambda);
  metrics::counter("gl.budget_solves").add();
  const double hi_mu = mu_max();
  if (hi_mu == 0.0) {
    // B = 0: the zero solution is optimal for any budget.
    GroupLassoResult zero = solve_penalized(0.0);
    return zero;
  }

  // Walk μ down from μ_max (feasible: budget 0) with warm starts until the
  // budget exceeds λ, establishing an infeasible lower bracket. Starting
  // from the sparse end keeps every solve cheap for the typical case of a
  // tight budget; the expensive dense near-unpenalized solve only happens
  // when λ genuinely exceeds the unconstrained solution's budget.
  // μ below ~1e-4·μ_max is numerically indistinguishable from the
  // unconstrained problem for selection purposes, and coordinate descent
  // slows dramatically on the near-singular grid Gram matrices there.
  constexpr double kFloorFactor = 1e-4;
  constexpr double kWalkShrink = 0.4;
  double hi = hi_mu;                      // feasible side
  GroupLassoResult best = solve_penalized(hi_mu);  // zero solution
  if (!best.status.ok()) return best;
  std::optional<linalg::Matrix> warm = best.beta;

  double lo = -1.0;  // infeasible side, found during the walk
  double previous_budget = 0.0;
  for (double mu = hi_mu * kWalkShrink; mu >= hi_mu * kFloorFactor;
       mu *= kWalkShrink) {
    GroupLassoResult res = solve_penalized(mu, warm);
    if (!res.status.ok()) return res;
    warm = res.beta;
    if (res.budget > lambda) {
      lo = mu;
      break;
    }
    hi = mu;
    const bool saturated =
        res.budget > 0.0 &&
        res.budget - previous_budget <= options_.budget_slack * res.budget;
    previous_budget = res.budget;
    best = std::move(res);
    if (lambda - best.budget <= options_.budget_slack * lambda) return best;
    // Budget stopped growing: we are effectively at the unconstrained
    // solution, which fits inside λ — no need to push μ further down.
    if (saturated) return best;
  }
  if (lo < 0.0) {
    // Even the (nearly) unpenalized solution fits inside λ.
    return best;
  }

  // Log-space bisection on the bracket [lo (infeasible), hi (feasible)].
  for (std::size_t it = 0; it < options_.budget_bisections; ++it) {
    const double mid = std::sqrt(lo * hi);
    GroupLassoResult res = solve_penalized(mid, warm);
    if (!res.status.ok()) return res;
    warm = res.beta;
    if (res.budget <= lambda) {
      hi = mid;
      best = std::move(res);
      if (lambda - best.budget <= options_.budget_slack * lambda) break;
    } else {
      lo = mid;
    }
    if (hi / lo < 1.0 + 1e-12) break;
  }
  return best;
}

}  // namespace vmap::core
