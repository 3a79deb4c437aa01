// Unit tests for intooa::la — dense matrices, LU, Cholesky, grids, and the
// nonsymmetric eigensolver / natural-frequency analysis.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "la/cholesky.hpp"
#include "la/eigen.hpp"
#include "la/grid.hpp"
#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "reference_lu.hpp"
#include "util/rng.hpp"

namespace {

using namespace intooa::la;
using Cx = std::complex<double>;

TEST(Matrix, ConstructionAndAccess) {
  MatrixD m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(m(r, c), 0.0);
  }
  m(1, 2) = 5.0;
  EXPECT_EQ(m.at(1, 2), 5.0);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
}

TEST(Matrix, InitializerListAndEquality) {
  MatrixD m = {{1, 2}, {3, 4}};
  EXPECT_EQ(m(0, 1), 2.0);
  MatrixD same = {{1, 2}, {3, 4}};
  EXPECT_EQ(m, same);
  EXPECT_THROW((MatrixD{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, IdentityAndMatvec) {
  const auto eye = MatrixD::identity(3);
  const std::vector<double> x = {1, 2, 3};
  EXPECT_EQ(eye.matvec(x), x);
  MatrixD m = {{1, 2}, {3, 4}};
  const std::vector<double> y = m.matvec(std::vector<double>{1, 1});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  EXPECT_THROW(m.matvec(x), std::invalid_argument);
}

TEST(Matrix, MatmulAndTranspose) {
  MatrixD a = {{1, 2}, {3, 4}};
  MatrixD b = {{5, 6}, {7, 8}};
  const MatrixD ab = a.matmul(b);
  EXPECT_DOUBLE_EQ(ab(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(ab(1, 1), 50.0);
  const MatrixD at = a.transposed();
  EXPECT_DOUBLE_EQ(at(0, 1), 3.0);
}

TEST(Matrix, ArithmeticOperators) {
  MatrixD a = {{1, 2}, {3, 4}};
  MatrixD b = a;
  b += a;
  EXPECT_DOUBLE_EQ(b(1, 1), 8.0);
  const MatrixD c = a * 3.0;
  EXPECT_DOUBLE_EQ(c(0, 0), 3.0);
}

TEST(Matrix, ComplexSupport) {
  MatrixC m(2, 2);
  m(0, 0) = {1.0, 1.0};
  m(0, 1) = {0.0, -1.0};
  const auto y = m.matvec(std::vector<Cx>{{1.0, 0.0}, {0.0, 1.0}});
  EXPECT_NEAR(y[0].real(), 2.0, 1e-15);  // (1+i)*1 + (-i)*(i) = 1+i+1 = 2+i
  EXPECT_NEAR(y[0].imag(), 1.0, 1e-15);
}

TEST(Lu, SolvesKnownSystem) {
  MatrixD a = {{2, 1}, {1, 3}};
  const Lu<double> lu(a);
  const auto x = lu.solve(std::vector<double>{3, 5});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, RandomRoundTrip) {
  intooa::util::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.index(10);
    MatrixD a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
      a(i, i) += 3.0;  // keep well-conditioned
    }
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = rng.normal();
    const auto b = a.matvec(x_true);
    const auto x = Lu<double>(a).solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(Lu, ComplexRoundTrip) {
  intooa::util::Rng rng(4);
  const std::size_t n = 6;
  MatrixC a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = {rng.normal(), rng.normal()};
    a(i, i) += Cx(4.0, 0.0);
  }
  std::vector<Cx> x_true(n);
  for (auto& v : x_true) v = {rng.normal(), rng.normal()};
  const auto b = a.matvec(x_true);
  const auto x = Lu<Cx>(a).solve(b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-9);
  }
}

TEST(Lu, DetectsSingular) {
  MatrixD a = {{1, 2}, {2, 4}};
  EXPECT_THROW(Lu<double>{a}, SingularMatrixError);
  MatrixD zero(3, 3);
  EXPECT_THROW(Lu<double>{zero}, SingularMatrixError);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  MatrixD a = {{0, 1}, {1, 0}};
  const auto x = Lu<double>(a).solve(std::vector<double>{2, 3});
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(Lu, Determinant) {
  MatrixD a = {{2, 0}, {0, 3}};
  EXPECT_NEAR(Lu<double>(a).determinant(), 6.0, 1e-12);
  MatrixD swapped = {{0, 1}, {1, 0}};
  EXPECT_NEAR(Lu<double>(swapped).determinant(), -1.0, 1e-12);
}

TEST(Lu, MatrixSolve) {
  MatrixD a = {{3, 1}, {1, 2}};
  const MatrixD eye = MatrixD::identity(2);
  const MatrixD inv = Lu<double>(a).solve(eye);
  const MatrixD prod = a.matmul(inv);
  EXPECT_NEAR(prod(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(prod(0, 1), 0.0, 1e-12);
}

// ---- Oracle: the zero-aware Lu against the plain reference algorithm

// Kinds of oracle matrix: sparse finite, sparse with subnormals, sparse with
// infinities/NaNs, and singular.
enum class OracleKind { Sparse, Subnormal, NonFinite, Singular };

double signed_zero(intooa::util::Rng& rng) {
  return rng.uniform() < 0.5 ? 0.0 : -0.0;
}

// A zero in a random one of its sign patterns.
template <typename T>
T oracle_zero(intooa::util::Rng& rng) {
  if constexpr (std::is_same_v<T, double>) {
    return signed_zero(rng);
  } else {
    return {signed_zero(rng), signed_zero(rng)};
  }
}

template <typename T>
T oracle_entry(intooa::util::Rng& rng, OracleKind kind) {
  auto value = [&] {
    const double sign = rng.uniform() < 0.5 ? -1.0 : 1.0;
    if (kind == OracleKind::Subnormal && rng.uniform() < 0.3) {
      return sign * std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng.index(1u << 20));
    }
    return sign * std::exp(rng.uniform(-8.0, 8.0));
  };
  const double u = rng.uniform();
  if (u < 0.55) return oracle_zero<T>(rng);
  if constexpr (std::is_same_v<T, double>) {
    return value();
  } else {
    if (u < 0.70) return {value(), signed_zero(rng)};
    if (u < 0.80) return {signed_zero(rng), value()};
    return {value(), value()};
  }
}

template <typename T>
Matrix<T> oracle_matrix(intooa::util::Rng& rng, std::size_t n,
                        OracleKind kind) {
  Matrix<T> a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = oracle_entry<T>(rng, kind);
    if (rng.uniform() < 0.7) a(i, i) += T{4.0};
  }
  if (kind == OracleKind::NonFinite) {
    const double specials[] = {std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN(),
                               -std::numeric_limits<double>::quiet_NaN()};
    const std::size_t count = 1 + rng.index(2);
    for (std::size_t k = 0; k < count; ++k) {
      T& e = a(rng.index(n), rng.index(n));
      const double s = specials[rng.index(4)];
      if constexpr (std::is_same_v<T, double>) {
        e = s;
      } else {
        e = rng.uniform() < 0.5 ? T{s, e.imag()} : T{e.real(), s};
      }
    }
  }
  if (kind == OracleKind::Singular) {
    const std::size_t r = rng.index(n);
    switch (rng.index(3)) {
      case 0:  // a row of signed zeros
        for (std::size_t c = 0; c < n; ++c) a(r, c) = oracle_zero<T>(rng);
        break;
      case 1:  // a duplicated row
        for (std::size_t c = 0; c < n; ++c) a(r, c) = a((r + 1) % n, c);
        break;
      default:  // the zero matrix, every entry a signed zero
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            a(i, j) = oracle_zero<T>(rng);
          }
        }
    }
  }
  return a;
}

// Factorizes `a` with the reference algorithm and with both Lu entry points (a
// fresh Lu, and `reused` refactored in place), then checks that they throw
// the same message or give bit-identical solutions and determinants.
// Returns whether the reference factorized.
template <typename T>
bool expect_matches_reference(const Matrix<T>& a, const std::vector<T>& b,
                              Lu<T>& reused) {
  using intooa::oracle::same_bits;
  std::optional<intooa::oracle::ReferenceLu<T>> ref;
  std::string ref_error;
  try {
    ref.emplace(a);
  } catch (const SingularMatrixError& e) {
    ref_error = e.what();
  }
  std::optional<Lu<T>> fresh;
  std::string fresh_error;
  try {
    fresh.emplace(a);
  } catch (const SingularMatrixError& e) {
    fresh_error = e.what();
  }
  std::string reused_error;
  bool reused_ok = true;
  try {
    reused.refactor(a.rows(), [&](Matrix<T>& m) { m = a; });
  } catch (const SingularMatrixError& e) {
    reused_error = e.what();
    reused_ok = false;
  }
  EXPECT_EQ(ref.has_value(), fresh.has_value()) << ref_error << fresh_error;
  EXPECT_EQ(ref.has_value(), reused_ok) << ref_error << reused_error;
  if (!ref || !fresh || !reused_ok) {
    EXPECT_EQ(fresh_error, ref_error);
    EXPECT_EQ(reused_error, ref_error);
    return ref.has_value();
  }
  const std::vector<T> want = ref->solve(b);
  const std::vector<T> got = fresh->solve(b);
  std::vector<T> got_reused(b.size());
  reused.solve_into(b, got_reused);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_TRUE(same_bits(want[i], got[i])) << "x[" << i << "]";
    EXPECT_TRUE(same_bits(want[i], got_reused[i])) << "reused x[" << i << "]";
  }
  const T det = ref->determinant();
  EXPECT_TRUE(same_bits(det, fresh->determinant()));
  EXPECT_TRUE(same_bits(det, reused.determinant()));
  return true;
}

template <typename T>
void run_lu_oracle(std::uint64_t seed) {
  intooa::util::Rng rng(seed);
  Lu<T> reused;
  const OracleKind kinds[] = {OracleKind::Sparse, OracleKind::Subnormal,
                              OracleKind::NonFinite, OracleKind::Singular};
  int factorized = 0;
  const int trials = 1500;
  for (int trial = 0; trial < trials; ++trial) {
    const OracleKind kind = kinds[trial % 4];
    const std::size_t n = 1 + rng.index(14);
    const Matrix<T> a = oracle_matrix<T>(rng, n, kind);
    std::vector<T> b(n);
    for (auto& v : b) v = oracle_entry<T>(rng, OracleKind::Sparse);
    SCOPED_TRACE("trial " + std::to_string(trial));
    if (expect_matches_reference(a, b, reused)) ++factorized;
  }
  // Both outcomes are exercised: the singular quarter throws.
  EXPECT_GT(factorized, trials / 2);
  EXPECT_LT(factorized, trials);
}

TEST(LuOracle, ComplexMatchesReferenceBitwise) { run_lu_oracle<Cx>(2024); }

TEST(LuOracle, RealMatchesReferenceBitwise) { run_lu_oracle<double>(2025); }

TEST(LuOracle, EverySignPatternOfZeroNumerators) {
  // A column whose sub-pivot entries are ±0 ± 0i in all four sign patterns,
  // below finite, signed-zero-laden, infinite and NaN pivots.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Cx pivots[] = {{3.0, -2.0}, {0.0, -1.5}, {-2.5, -0.0},
                       {1e-300, 1e300}, {inf, 1.0}, {nan, 0.0}};
  Lu<Cx> reused;
  for (const Cx pivot : pivots) {
    MatrixC a(5, 5);
    a(0, 0) = pivot;
    a(1, 0) = {0.0, 0.0};
    a(2, 0) = {-0.0, 0.0};
    a(3, 0) = {0.0, -0.0};
    a(4, 0) = {-0.0, -0.0};
    for (std::size_t i = 1; i < 5; ++i) {
      a(i, i) = {0.5 * static_cast<double>(i), 0.0};
      a(0, i) = {0.0, -1.0};
    }
    // The stored quotients' zero signs only surface where the forward
    // substitution meets zeros, hence the all-signed-zero right-hand side.
    const std::vector<Cx> b = {{1.0, 0.0}, {0.0, -0.0}, {-1.0, 2.0},
                               {0.0, 0.0}, {-0.0, 1.0}};
    const std::vector<Cx> zeros = {{0.0, -0.0}, {-0.0, 0.0}, {-0.0, -0.0},
                                   {0.0, 0.0}, {-0.0, -0.0}};
    SCOPED_TRACE(pivot.real());
    expect_matches_reference(a, b, reused);
    expect_matches_reference(a, zeros, reused);
  }
}

TEST(LuOracle, AbsOfMatchesStdAbsOnSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double dmin = std::numeric_limits<double>::denorm_min();
  const double nmin = std::numeric_limits<double>::min();
  const double big = std::numeric_limits<double>::max();
  const double values[] = {0.0,  -0.0, dmin, -dmin, nmin, -nmin, 1.0,
                           -1.0, 3.0,  -4.0, big,  -big, inf,  -inf,
                           nan,  -nan};
  for (const double re : values) {
    for (const double im : values) {
      const Cx z(re, im);
      const double want = std::abs(z);
      const double got = intooa::la::detail::abs_of(z);
      if (std::isnan(want)) {
        // A NaN magnitude is only ever compared, never stored, so its
        // sign bit is immaterial.
        EXPECT_TRUE(std::isnan(got)) << re << " " << im;
      } else {
        EXPECT_TRUE(intooa::oracle::same_bits(want, got))
            << re << " " << im << ": " << want << " vs " << got;
      }
    }
  }
}

TEST(Cholesky, SolveAndLogDet) {
  MatrixD a = {{4, 2}, {2, 3}};
  const Cholesky chol(a);
  EXPECT_EQ(chol.jitter(), 0.0);
  const auto x = chol.solve(std::vector<double>{1, 1});
  // Check A x = b.
  const auto b = a.matvec(x);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 1.0, 1e-12);
  EXPECT_NEAR(chol.log_det(), std::log(4.0 * 3.0 - 4.0), 1e-12);
}

TEST(Cholesky, JitterOnSemidefinite) {
  // Rank-1 PSD matrix: needs jitter.
  MatrixD a = {{1, 1}, {1, 1}};
  const Cholesky chol(a);
  EXPECT_GT(chol.jitter(), 0.0);
  const auto x = chol.solve(std::vector<double>{1, 1});
  EXPECT_TRUE(std::isfinite(x[0]));
}

TEST(Cholesky, RejectsIndefinite) {
  MatrixD a = {{1, 0}, {0, -5}};
  EXPECT_THROW(Cholesky{a}, SingularMatrixError);
}

TEST(Cholesky, SolveLowerConsistent) {
  MatrixD a = {{9, 3}, {3, 5}};
  const Cholesky chol(a);
  const auto& l = chol.lower();
  const auto y = chol.solve_lower(std::vector<double>{3, 1});
  // L y = b
  EXPECT_NEAR(l(0, 0) * y[0], 3.0, 1e-12);
  EXPECT_NEAR(l(1, 0) * y[0] + l(1, 1) * y[1], 1.0, 1e-12);
}

TEST(Cholesky, TryExactMatchesConstructorOnSpd) {
  MatrixD a = {{4, 2}, {2, 3}};
  const auto chol = Cholesky::try_exact(a);
  ASSERT_TRUE(chol.has_value());
  EXPECT_EQ(chol->jitter(), 0.0);
  const Cholesky ref(a);
  EXPECT_EQ(chol->lower(), ref.lower());

  // Semidefinite and indefinite inputs are reported, not rescued.
  MatrixD psd = {{1, 1}, {1, 1}};
  EXPECT_FALSE(Cholesky::try_exact(psd).has_value());
  MatrixD indef = {{1, 0}, {0, -5}};
  EXPECT_FALSE(Cholesky::try_exact(indef).has_value());
  MatrixD rect(2, 3);
  EXPECT_THROW(Cholesky::try_exact(rect), std::invalid_argument);
}

TEST(Cholesky, AppendRowMatchesFreshFactorization) {
  // Grow random SPD matrices one bordered row at a time; at every size the
  // incrementally extended factorization must agree with a from-scratch
  // factorization of the same leading block.
  intooa::util::Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 8 + rng.index(8);
    MatrixD b(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
    }
    MatrixD a(n, n);  // B B^T + n I: comfortably SPD
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k) acc += b(i, k) * b(j, k);
        a(i, j) = acc;
      }
      a(i, i) += static_cast<double>(n);
    }

    MatrixD lead(2, 2);
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::size_t j = 0; j < 2; ++j) lead(i, j) = a(i, j);
    }
    auto grown = Cholesky::try_exact(lead);
    ASSERT_TRUE(grown.has_value());

    for (std::size_t k = 2; k < n; ++k) {
      std::vector<double> row(k + 1);
      for (std::size_t j = 0; j <= k; ++j) row[j] = a(k, j);
      grown->append_row(row);
      ASSERT_EQ(grown->order(), k + 1);

      MatrixD block(k + 1, k + 1);
      for (std::size_t i = 0; i <= k; ++i) {
        for (std::size_t j = 0; j <= k; ++j) block(i, j) = a(i, j);
      }
      const auto fresh = Cholesky::try_exact(block);
      ASSERT_TRUE(fresh.has_value());

      // The border update replays the column-Cholesky recurrence in the
      // same operation order, so the factors are identical, not just close.
      EXPECT_EQ(grown->lower(), fresh->lower());
      EXPECT_NEAR(grown->log_det(), fresh->log_det(), 1e-10);
      std::vector<double> rhs(k + 1);
      for (std::size_t i = 0; i <= k; ++i) {
        rhs[i] = 1.0 + static_cast<double>(i);
      }
      const auto x_grown = grown->solve(rhs);
      const auto x_fresh = fresh->solve(rhs);
      for (std::size_t i = 0; i <= k; ++i) {
        EXPECT_NEAR(x_grown[i], x_fresh[i], 1e-10);
      }
    }
  }
}

TEST(Cholesky, AppendRowRejectsNonPositiveDefinite) {
  MatrixD a = {{1}};
  auto chol = Cholesky::try_exact(a);
  ASSERT_TRUE(chol.has_value());
  // Bordering to {{1, 1}, {1, 1}} (rank 1) must fail and leave the
  // factorization untouched.
  const std::vector<double> rank1 = {1.0, 1.0};
  EXPECT_THROW(chol->append_row(rank1), SingularMatrixError);
  EXPECT_EQ(chol->order(), 1u);
  const std::vector<double> wrong_size = {1.0};
  EXPECT_THROW(chol->append_row(wrong_size), std::invalid_argument);
  // A valid border still works after the failed attempt.
  const std::vector<double> good = {1.0, 5.0};
  chol->append_row(good);
  EXPECT_EQ(chol->order(), 2u);
  EXPECT_NEAR(chol->log_det(), std::log(5.0 - 1.0), 1e-12);
}

TEST(Grid, Linspace) {
  const auto v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
  EXPECT_TRUE(linspace(1.0, 2.0, 0).empty());
  EXPECT_THROW(linspace(0.0, 1.0, 1), std::invalid_argument);
}

TEST(Grid, Logspace) {
  const auto v = logspace(1.0, 1000.0, 4);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_NEAR(v[0], 1.0, 1e-12);
  EXPECT_NEAR(v[1], 10.0, 1e-9);
  EXPECT_NEAR(v[3], 1000.0, 1e-9);
  EXPECT_THROW(logspace(-1.0, 1.0, 3), std::invalid_argument);
}

TEST(Eigen, TriangularMatrix) {
  MatrixD a = {{2, 1, 0}, {0, 3, 4}, {0, 0, 5}};
  auto eigs = eigenvalues(a);
  std::sort(eigs.begin(), eigs.end(),
            [](Cx x, Cx y) { return x.real() < y.real(); });
  ASSERT_EQ(eigs.size(), 3u);
  EXPECT_NEAR(eigs[0].real(), 2.0, 1e-9);
  EXPECT_NEAR(eigs[1].real(), 3.0, 1e-9);
  EXPECT_NEAR(eigs[2].real(), 5.0, 1e-9);
}

TEST(Eigen, ComplexPair) {
  MatrixD rot = {{0, -1}, {1, 0}};
  auto eigs = eigenvalues(rot);
  std::sort(eigs.begin(), eigs.end(),
            [](Cx x, Cx y) { return x.imag() < y.imag(); });
  EXPECT_NEAR(eigs[0].imag(), -1.0, 1e-9);
  EXPECT_NEAR(eigs[1].imag(), 1.0, 1e-9);
  EXPECT_NEAR(eigs[0].real(), 0.0, 1e-9);
}

TEST(Eigen, SimilarityInvariance) {
  // s * diag(1..6) * s^{-1} has eigenvalues 1..6.
  const std::size_t n = 6;
  MatrixD d(n, n);
  for (std::size_t i = 0; i < n; ++i) d(i, i) = static_cast<double>(i + 1);
  MatrixD s(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const int phase = (static_cast<int>(i) * 7 + static_cast<int>(j) * 3) % 5;
      s(i, j) = (i == j ? 2.0 : 0.0) + 0.3 * static_cast<double>(phase - 2) / 5.0;
    }
  }
  const MatrixD sd = s.matmul(d);
  const MatrixD st = s.transposed();
  const MatrixD xt = Lu<double>(st).solve(sd.transposed());
  auto eigs = eigenvalues(xt.transposed());
  std::sort(eigs.begin(), eigs.end(),
            [](Cx x, Cx y) { return x.real() < y.real(); });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(eigs[i].real(), static_cast<double>(i + 1), 1e-7);
    EXPECT_NEAR(eigs[i].imag(), 0.0, 1e-7);
  }
}

TEST(Eigen, RepeatedEigenvalues) {
  MatrixD a = {{2, 1}, {0, 2}};  // defective, eigenvalue 2 twice
  auto eigs = eigenvalues(a);
  for (const auto& e : eigs) {
    EXPECT_NEAR(e.real(), 2.0, 1e-6);
    EXPECT_NEAR(e.imag(), 0.0, 1e-6);
  }
}

TEST(Eigen, TraceAndDeterminantConsistency) {
  intooa::util::Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + rng.index(6);
    MatrixD a(n, n);
    double trace = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
      trace += a(i, i);
    }
    const auto eigs = eigenvalues(a);
    Cx sum = 0.0;
    for (const auto& e : eigs) sum += e;
    EXPECT_NEAR(sum.real(), trace, 1e-7 * (1.0 + std::fabs(trace)));
    EXPECT_NEAR(sum.imag(), 0.0, 1e-7);
  }
}

TEST(Eigen, NaturalFrequenciesOfRcCircuit) {
  // Single node with conductance g and capacitance c to ground:
  // pole s = -g/c.
  MatrixD g = {{1e-3}};
  MatrixD c = {{1e-9}};
  const auto poles = natural_frequencies(g, c);
  ASSERT_EQ(poles.size(), 1u);
  EXPECT_NEAR(poles[0].real(), -1e6, 1.0);
  EXPECT_NEAR(poles[0].imag(), 0.0, 1e-6);
}

TEST(Eigen, NaturalFrequenciesSkipCapacitorFreeModes) {
  // Two decoupled nodes; only one has a capacitor.
  MatrixD g = {{1e-3, 0}, {0, 1e-4}};
  MatrixD c = {{1e-9, 0}, {0, 0}};
  const auto poles = natural_frequencies(g, c);
  ASSERT_EQ(poles.size(), 1u);
  EXPECT_NEAR(poles[0].real(), -1e6, 1.0);
}

TEST(Eigen, StabilityPredicate) {
  EXPECT_TRUE(is_stable({Cx(-1e3, 2e4), Cx(-5.0, 0.0)}));
  EXPECT_FALSE(is_stable({Cx(-1e3, 0.0), Cx(1e2, 1e4)}));
  EXPECT_TRUE(is_stable({}));
  // Negative-real part dominates a tiny positive numerical residue.
  EXPECT_TRUE(is_stable({Cx(1e-3, 1e6)}));
}

TEST(Eigen, UnstableRcWithNegativeConductance) {
  // Negative conductance (positive feedback): RHP pole.
  MatrixD g = {{-1e-3}};
  MatrixD c = {{1e-9}};
  const auto poles = natural_frequencies(g, c);
  ASSERT_EQ(poles.size(), 1u);
  EXPECT_GT(poles[0].real(), 0.0);
  EXPECT_FALSE(is_stable(poles));
}

TEST(Dot, RealAndErrors) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(dot<double>(a, b), 32.0);
  const std::vector<double> c = {1, 2};
  EXPECT_THROW(dot<double>(a, c), std::invalid_argument);
}

}  // namespace
