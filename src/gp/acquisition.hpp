#pragma once
// Acquisition functions for constrained Bayesian optimization. The paper
// uses the weighted expected improvement (wEI) of Lyu et al. [1]:
//
//   wEI(x) = EI(x) * prod_i PF_i(x)
//
// where EI is the expected improvement of the objective over the best
// *feasible* observation and PF_i is the posterior probability that
// constraint i is satisfied. When no feasible point has been observed yet,
// the acquisition degenerates to pure feasibility search (prod PF_i), which
// is the standard behavior of wEI-family methods.

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace intooa::gp {

/// Expected improvement for maximization: E[max(y - best, 0)] under
/// N(mean, variance). With variance ~ 0, returns max(mean - best, 0).
double expected_improvement(double mean, double variance, double best);

/// Probability that a constraint expressed as c <= 0 is satisfied under
/// N(mean, variance). With variance ~ 0, returns 1 or 0 deterministically.
double probability_feasible(double mean, double variance);

/// Inputs to weighted expected improvement.
struct WeiInputs {
  double objective_mean = 0.0;
  double objective_variance = 0.0;
  /// Best feasible objective value seen so far; ignored when
  /// have_feasible == false.
  double best_feasible = 0.0;
  bool have_feasible = false;
  /// Posterior means of the constraint metrics, expressed as c <= 0
  /// feasibility margins.
  std::span<const double> constraint_means;
  /// Posterior variances, same order/length as constraint_means.
  std::span<const double> constraint_variances;
};

/// Weighted expected improvement (maximization form). With no feasible
/// incumbent the EI factor is dropped: the score is the product of
/// feasibility probabilities alone.
double weighted_ei(const WeiInputs& in);

struct PoolPrediction;

/// wEI of every candidate of `pool`, in pool order. Output 0 of the pool
/// is the objective; outputs 1.. are the constraint margins.
std::vector<double> weighted_ei_pool(const PoolPrediction& pool,
                                     double best_feasible, bool have_feasible);

/// Argmax over acquisition scores with non-finite scores dropped (counted
/// in the acquisition.nonfinite_scores counter and logged); ties go to
/// the earliest index. When no finite score exists at all, falls back to
/// a uniform pick from `rng` — a deterministic function of the caller's
/// stream — rather than silently returning index 0. `scores` must be
/// non-empty. `rng` is drawn from only on the fallback path.
std::size_t select_best_candidate(std::span<const double> scores,
                                  util::Rng& rng);

/// Indices of the finite scores, in order; the non-finite ones are
/// counted and logged as select_best_candidate does. Callers that rank a
/// whole pool (std::sort needs a strict weak order, which NaN breaks)
/// rank these.
std::vector<std::size_t> finite_candidates(std::span<const double> scores);

}  // namespace intooa::gp
