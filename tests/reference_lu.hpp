#pragma once
// The LU factorization exactly as it stood before the zero-aware fast
// paths (every magnitude through std::abs, every quotient divided), kept
// as the bitwise oracle for la::Lu and for the MNA sweep built on it.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "la/lu.hpp"
#include "la/matrix.hpp"

namespace intooa::oracle {

inline double reference_abs(double v) { return std::fabs(v); }
inline double reference_abs(const std::complex<double>& v) {
  return std::abs(v);
}

template <la::Scalar T>
class ReferenceLu {
 public:
  explicit ReferenceLu(la::Matrix<T> a, double pivot_tol = 1e-13)
      : lu_(std::move(a)) {
    const std::size_t n = lu_.rows();
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

    double scale = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        scale = std::max(scale, reference_abs(lu_(r, c)));
      }
    }
    if (scale == 0.0) throw la::SingularMatrixError("Lu: zero matrix");
    const double threshold = pivot_tol * scale;

    for (std::size_t k = 0; k < n; ++k) {
      std::size_t pivot_row = k;
      double pivot_mag = reference_abs(lu_(k, k));
      for (std::size_t r = k + 1; r < n; ++r) {
        const double mag = reference_abs(lu_(r, k));
        if (mag > pivot_mag) {
          pivot_mag = mag;
          pivot_row = r;
        }
      }
      if (pivot_mag < threshold) {
        throw la::SingularMatrixError("Lu: singular matrix (pivot " +
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
      for (std::size_t r = k + 1; r < n; ++r) {
        const T factor = lu_(r, k) / pivot;
        lu_(r, k) = factor;
        if (factor == T{}) continue;
        for (std::size_t c = k + 1; c < n; ++c) {
          lu_(r, c) -= factor * lu_(k, c);
        }
      }
    }
  }

  std::vector<T> solve(std::span<const T> b) const {
    const std::size_t n = lu_.rows();
    std::vector<T> x(n);
    for (std::size_t r = 0; r < n; ++r) {
      T acc = b[perm_[r]];
      for (std::size_t c = 0; c < r; ++c) acc -= lu_(r, c) * x[c];
      x[r] = acc;
    }
    for (std::size_t ri = n; ri-- > 0;) {
      T acc = x[ri];
      for (std::size_t c = ri + 1; c < n; ++c) acc -= lu_(ri, c) * x[c];
      x[ri] = acc / lu_(ri, ri);
    }
    return x;
  }

  T determinant() const {
    T det = parity_ ? T{-1} : T{1};
    for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
    return det;
  }

 private:
  la::Matrix<T> lu_;
  std::vector<std::size_t> perm_;
  bool parity_ = false;
};

/// Bitwise equality (NaN payloads and signed zeros included).
template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

}  // namespace intooa::oracle
