#pragma once
// Cholesky factorization for symmetric positive-definite systems — the
// numerically right way to invert Gaussian process Gram matrices (Eqs. 3-4
// of the paper). Includes adaptive diagonal jitter, the standard remedy for
// Gram matrices that are PSD-but-nearly-singular (duplicate or
// near-duplicate topologies produce identical WL feature rows).

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "la/lu.hpp"
#include "la/matrix.hpp"

namespace intooa::la {

/// A = L L^T factorization of a symmetric positive-definite real matrix.
class Cholesky {
 public:
  /// Factorizes `a`. If the bare factorization fails, retries with
  /// geometrically increasing diagonal jitter starting at `initial_jitter`
  /// times the mean diagonal, up to `max_attempts` times (capping the
  /// jitter near 1e-2 of the diagonal scale so genuinely indefinite
  /// matrices are rejected rather than masked); throws SingularMatrixError
  /// if all attempts fail. The jitter actually applied is reported by
  /// `jitter()`.
  explicit Cholesky(const MatrixD& a, double initial_jitter = 1e-10,
                    int max_attempts = 9);

  /// Single-attempt factorization with NO jitter: returns nullopt when `a`
  /// is not (numerically) positive definite instead of escalating. Model
  /// selection scores hyperparameter candidates through this so every
  /// candidate is scored with exactly the noise its label claims.
  static std::optional<Cholesky> try_exact(const MatrixD& a);

  /// Border update: extends the factorization of the n x n leading block of
  /// some SPD matrix to n+1, given the new row `row` of that matrix
  /// (row.size() == order() + 1, row.back() is the diagonal entry). Costs
  /// one forward substitution — O(n^2) instead of the O(n^3) refactorization
  /// — and produces bit-identical L to factorizing the bordered matrix from
  /// scratch. The jitter of the existing factorization is applied to the
  /// new diagonal entry so the implied matrix stays A + jitter * I. Throws
  /// SingularMatrixError (leaving the factorization unchanged) when the
  /// bordered matrix is not positive definite; there is no jitter
  /// escalation on this path.
  void append_row(std::span<const double> row);

  std::size_t order() const { return l_.rows(); }

  /// The diagonal jitter that was added to make the factorization succeed
  /// (0 when none was needed).
  double jitter() const { return jitter_; }

  /// Solves A x = b via forward + back substitution.
  std::vector<double> solve(std::span<const double> b) const;

  /// Solves A X = B column by column.
  MatrixD solve(const MatrixD& b) const;

  /// Solves L y = b (forward substitution only); used for GP variance
  /// computations where v = L^{-1} k gives sigma^2 = k** - v^T v.
  std::vector<double> solve_lower(std::span<const double> b) const;

  /// Solves L Y = B for a block of W right-hand sides stored column-minor
  /// (b[r * W + j] is row r of column j) into `y`, laid out the same way
  /// (b.size() == y.size() == order() * W, no aliasing). Column j undergoes
  /// exactly the operations, in the same order, that solve_lower applies
  /// to it alone, so each column is bit-identical to solve_lower's result.
  /// The fixed width keeps the innermost loop over columns free of runtime
  /// checks, so it vectorizes at -O2.
  template <std::size_t W>
  void solve_lower_block(std::span<const double> b, std::span<double> y) const {
    const std::size_t n = order();
    if (b.size() != n * W || y.size() != n * W) {
      throw std::invalid_argument("Cholesky::solve_lower_block: size mismatch");
    }
    for (std::size_t r = 0; r < n; ++r) {
      double* yr = y.data() + r * W;
      std::copy_n(b.data() + r * W, W, yr);
      for (std::size_t c = 0; c < r; ++c) {
        subtract_scaled<W>(yr, l_(r, c), y.data() + c * W);
      }
      const double lrr = l_(r, r);
      for (std::size_t j = 0; j < W; ++j) yr[j] /= lrr;
    }
  }

  /// log |A| = 2 sum_i log L_ii — needed by the GP marginal likelihood.
  double log_det() const;

  /// The lower-triangular factor.
  const MatrixD& lower() const { return l_; }

 private:
  Cholesky() = default;  // for try_exact

  // y[j] -= a * x[j] over one block row; the restrict-qualified parameters
  // (distinct rows) let the loop vectorize without runtime alias checks.
  template <std::size_t W>
  static void subtract_scaled(double* __restrict y, double a,
                              const double* __restrict x) {
    for (std::size_t j = 0; j < W; ++j) y[j] -= a * x[j];
  }

  bool try_factorize(const MatrixD& a, double jitter);

  MatrixD l_;
  double jitter_ = 0.0;
};

}  // namespace intooa::la
