#pragma once
// LU factorization with partial pivoting for real and complex square
// systems. This is the workhorse of the MNA AC solver: one factorization +
// solve per frequency point. Orders are tiny (<= ~40), so an O(n^3) dense
// factorization is the right tool.

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "la/matrix.hpp"

namespace intooa::la {

/// Thrown when a pivot underflows: the circuit matrix is singular (e.g. a
/// floating node in a malformed netlist) or the GP Gram matrix is rank
/// deficient.
class SingularMatrixError : public std::runtime_error {
 public:
  explicit SingularMatrixError(const std::string& what)
      : std::runtime_error(what) {}
};

namespace detail {
inline double abs_of(double v) { return std::fabs(v); }
/// |v|, with `hypot` skipped when one part is ±0: C Annex F guarantees
/// hypot(x, ±0) == fabs(x) for every x, NaN and infinities included.
inline double abs_of(const std::complex<double>& v) {
  if (v.imag() == 0.0) return std::fabs(v.real());
  if (v.real() == 0.0) return std::fabs(v.imag());
  return std::abs(v);
}

inline bool is_zero(const std::complex<double>& v) {
  return v.real() == 0.0 && v.imag() == 0.0;
}
}  // namespace detail

/// PA = LU factorization of a square matrix with row partial pivoting.
/// The factors are stored compactly in one matrix (unit-diagonal L below,
/// U on and above the diagonal).
///
/// MNA matrices are mostly zeros and one-component entries, so the two
/// costly complex operations are cut without changing a bit: the scale
/// scan and pivot search take magnitudes through abs_of, which skips
/// `hypot` whenever a part is ±0; and a ±0 numerator's quotient depends
/// only on its two sign bits and the pivot, so it is divided once per
/// (column, sign pattern) instead of once per row.
template <Scalar T>
class Lu {
 public:
  /// Empty factorization of order 0; give it a matrix with refactor().
  Lu() = default;

  /// Factorizes `a`; throws SingularMatrixError when a pivot magnitude
  /// falls below `pivot_tol` times the largest initial element.
  explicit Lu(Matrix<T> a, double pivot_tol = 1e-13) : lu_(std::move(a)) {
    if (lu_.rows() != lu_.cols()) {
      throw std::invalid_argument("Lu: matrix must be square");
    }
    factorize(pivot_tol);
  }

  /// Factorizes a new order-n matrix in the existing storage: `fill(m)`
  /// must overwrite every element of the n x n matrix `m`. Nothing is
  /// allocated when n equals the previous order, so one Lu serves a whole
  /// frequency sweep. Throws like the constructor; after a throw the
  /// factorization is unusable until the next refactor().
  template <typename Fill>
  void refactor(std::size_t n, Fill&& fill, double pivot_tol = 1e-13) {
    if (lu_.rows() != n) lu_ = Matrix<T>(n, n);
    fill(lu_);
    factorize(pivot_tol);
  }

  std::size_t order() const { return lu_.rows(); }

  /// Solves A x = b.
  std::vector<T> solve(std::span<const T> b) const {
    std::vector<T> x(order());
    solve_into(b, x);
    return x;
  }

  /// Solves A x = b into `x` (same size as b, not aliasing it); allocates
  /// nothing.
  void solve_into(std::span<const T> b, std::span<T> x) const {
    const std::size_t n = order();
    if (b.size() != n || x.size() != n) {
      throw std::invalid_argument("Lu::solve: size mismatch");
    }
    // Forward substitution with permutation applied: L y = P b.
    for (std::size_t r = 0; r < n; ++r) {
      T acc = b[perm_[r]];
      for (std::size_t c = 0; c < r; ++c) acc -= lu_(r, c) * x[c];
      x[r] = acc;
    }
    // Back substitution: U x = y.
    for (std::size_t ri = n; ri-- > 0;) {
      T acc = x[ri];
      for (std::size_t c = ri + 1; c < n; ++c) acc -= lu_(ri, c) * x[c];
      x[ri] = acc / lu_(ri, ri);
    }
  }

  /// Solves A X = B column by column.
  Matrix<T> solve(const Matrix<T>& b) const {
    if (b.rows() != order()) {
      throw std::invalid_argument("Lu::solve: row mismatch");
    }
    Matrix<T> x(b.rows(), b.cols());
    std::vector<T> col(b.rows());
    for (std::size_t c = 0; c < b.cols(); ++c) {
      for (std::size_t r = 0; r < b.rows(); ++r) col[r] = b(r, c);
      const auto sol = solve(col);
      for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = sol[r];
    }
    return x;
  }

  /// Determinant (product of U's diagonal, sign from the permutation).
  T determinant() const {
    T det = parity_ ? T{-1} : T{1};
    for (std::size_t i = 0; i < order(); ++i) det *= lu_(i, i);
    return det;
  }

 private:
  void factorize(double pivot_tol) {
    const std::size_t n = lu_.rows();
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    parity_ = false;

    double scale = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        scale = std::max(scale, detail::abs_of(lu_(r, c)));
      }
    }
    if (scale == 0.0) throw SingularMatrixError("Lu: zero matrix");
    const double threshold = pivot_tol * scale;

    for (std::size_t k = 0; k < n; ++k) {
      // Partial pivot: largest magnitude in column k at or below row k.
      std::size_t pivot_row = k;
      double pivot_mag = detail::abs_of(lu_(k, k));
      for (std::size_t r = k + 1; r < n; ++r) {
        const double mag = detail::abs_of(lu_(r, k));
        if (mag > pivot_mag) {
          pivot_mag = mag;
          pivot_row = r;
        }
      }
      if (pivot_mag < threshold) {
        throw SingularMatrixError("Lu: singular matrix (pivot " +
                                  std::to_string(pivot_mag) + ")");
      }
      if (pivot_row != k) {
        for (std::size_t c = 0; c < n; ++c) {
          std::swap(lu_(k, c), lu_(pivot_row, c));
        }
        std::swap(perm_[k], perm_[pivot_row]);
        parity_ = !parity_;
      }
      const T pivot = lu_(k, k);
      // Quotients of ±0 numerators by this pivot, indexed by sign pattern
      // (bit 0: real part negative, bit 1: imaginary part negative).
      std::array<T, 4> zero_quotient{};
      unsigned have_quotient = 0;
      for (std::size_t r = k + 1; r < n; ++r) {
        const T num = lu_(r, k);
        T factor;
        if constexpr (std::is_same_v<T, std::complex<double>>) {
          if (detail::is_zero(num)) {
            const unsigned sign =
                (std::signbit(num.real()) ? 1u : 0u) |
                (std::signbit(num.imag()) ? 2u : 0u);
            if ((have_quotient & (1u << sign)) == 0) {
              zero_quotient[sign] = num / pivot;
              have_quotient |= 1u << sign;
            }
            factor = zero_quotient[sign];
          } else {
            factor = num / pivot;
          }
        } else {
          factor = num / pivot;
        }
        lu_(r, k) = factor;
        if (factor == T{}) continue;
        for (std::size_t c = k + 1; c < n; ++c) {
          lu_(r, c) -= factor * lu_(k, c);
        }
      }
    }
  }

  Matrix<T> lu_;
  std::vector<std::size_t> perm_;
  bool parity_ = false;  // true when an odd number of row swaps occurred
};

}  // namespace intooa::la
