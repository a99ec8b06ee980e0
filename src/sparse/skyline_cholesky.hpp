#pragma once
// Envelope (skyline) Cholesky factorization for SPD sparse matrices.
//
// The power grid's conductance-plus-capacitance system is SPD with a
// mesh-like graph; after RCM reordering its envelope is narrow, so a
// profile factorization is both simple and fast. Fill only occurs inside
// each row's envelope, which the storage captures exactly.
//
// This is the workhorse behind both DC IR-drop solves and the prefactored
// backward-Euler transient stepping, and the terminal rung of the
// solve_spd_resilient escalation ladder. A factor is immutable once built,
// so any number of threads may solve against one instance concurrently;
// every factorization counts into the sparse.skyline.factorizations
// metric.

#include <cstddef>
#include <vector>

#include "linalg/vector.hpp"
#include "sparse/csr.hpp"
#include "util/status.hpp"

namespace vmap::sparse {

/// SPD factorization P A P^T = L L^T with envelope storage.
class SkylineCholesky {
 public:
  /// Factorizes `a` (must be square, symmetric, positive definite).
  /// If `use_rcm` is true a reverse Cuthill–McKee permutation is computed
  /// first; otherwise the natural ordering is used. Throws ContractError on
  /// numerical breakdown (non-positive pivot).
  explicit SkylineCholesky(const CsrMatrix& a, bool use_rcm = true);

  /// Non-throwing factorization: Status kNumerical when a pivot goes
  /// non-positive instead of an exception, so the solver ladder can fall
  /// back without unwinding the caller.
  static StatusOr<SkylineCholesky> try_factorize(const CsrMatrix& a,
                                                 bool use_rcm = true);

  std::size_t dim() const { return n_; }

  /// Solves A x = b (the permutation is handled internally): the k = 1
  /// case of solve_block.
  linalg::Vector solve(const linalg::Vector& b) const;

  /// Solves A X = B for k right-hand sides at once. B and X are n x k,
  /// row-major (element (i, c) at [i*k + c]). One sweep over the envelope
  /// serves all k columns, and each column of X is byte-identical to
  /// solve() of the same column of B.
  void solve_block(std::size_t k, const double* b, double* x) const;

  /// Number of stored (envelope) entries in L, a measure of fill.
  std::size_t envelope_size() const { return values_.size(); }

  /// The permutation used (new index -> old index).
  const std::vector<std::size_t>& permutation() const { return perm_; }

  /// Cheap 2-norm condition estimate from the factor diagonal:
  /// (max L_ii / min L_ii)^2, a lower bound on cond_2(A).
  double condition_estimate() const;

 private:
  SkylineCholesky() = default;
  /// Shared factorization core; on failure the object is unspecified.
  Status factorize(const CsrMatrix& a, bool use_rcm);

  // Row i of L occupies columns [first_col_[i], i], stored contiguously in
  // values_ starting at row_start_[i]; diag_[i] caches L_ii.
  std::size_t n_ = 0;
  std::vector<std::size_t> perm_;      // new -> old
  std::vector<std::size_t> inv_perm_;  // old -> new
  std::vector<std::size_t> first_col_;
  std::vector<std::size_t> row_start_;
  std::vector<double> values_;  // strictly-lower envelope entries
  std::vector<double> diag_;
};

}  // namespace vmap::sparse
