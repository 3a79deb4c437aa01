#include "gp/acquisition.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "gp/joint_gp.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace intooa::gp {

namespace {
constexpr double kVarFloor = 1e-18;

void note_dropped(std::size_t dropped) {
  if (dropped == 0) return;
  obs::registry().counter("acquisition.nonfinite_scores").add(dropped);
  util::log_warn("acquisition: dropped " + std::to_string(dropped) +
                 " non-finite scores");
}
}  // namespace

double expected_improvement(double mean, double variance, double best) {
  if (variance < 0.0) {
    throw std::invalid_argument("expected_improvement: negative variance");
  }
  const double improvement = mean - best;
  if (variance <= kVarFloor) return improvement > 0.0 ? improvement : 0.0;
  const double sigma = std::sqrt(variance);
  const double z = improvement / sigma;
  return improvement * util::normal_cdf(z) + sigma * util::normal_pdf(z);
}

double probability_feasible(double mean, double variance) {
  if (variance < 0.0) {
    throw std::invalid_argument("probability_feasible: negative variance");
  }
  if (variance <= kVarFloor) return mean <= 0.0 ? 1.0 : 0.0;
  return util::normal_cdf(-mean / std::sqrt(variance));
}

double weighted_ei(const WeiInputs& in) {
  if (in.constraint_means.size() != in.constraint_variances.size()) {
    throw std::invalid_argument("weighted_ei: constraint span size mismatch");
  }
  double pf = 1.0;
  for (std::size_t i = 0; i < in.constraint_means.size(); ++i) {
    pf *= probability_feasible(in.constraint_means[i],
                               in.constraint_variances[i]);
  }
  if (!in.have_feasible) return pf;
  return expected_improvement(in.objective_mean, in.objective_variance,
                              in.best_feasible) *
         pf;
}

std::vector<double> weighted_ei_pool(const PoolPrediction& pool,
                                     double best_feasible,
                                     bool have_feasible) {
  if (pool.outputs == 0) {
    throw std::invalid_argument("weighted_ei_pool: no objective output");
  }
  const std::size_t count = pool.mean.size() / pool.outputs;
  std::vector<double> scores(count);
  for (std::size_t c = 0; c < count; ++c) {
    const auto mean = pool.mean_of(c);
    const auto variance = pool.variance_of(c);
    WeiInputs in;
    in.objective_mean = mean[0];
    in.objective_variance = variance[0];
    in.best_feasible = best_feasible;
    in.have_feasible = have_feasible;
    in.constraint_means = mean.subspan(1);
    in.constraint_variances = variance.subspan(1);
    scores[c] = weighted_ei(in);
  }
  return scores;
}

std::size_t select_best_candidate(std::span<const double> scores,
                                  util::Rng& rng) {
  if (scores.empty()) {
    throw std::invalid_argument("select_best_candidate: empty scores");
  }
  double best_score = -std::numeric_limits<double>::infinity();
  std::size_t best = 0;
  bool any_finite = false;
  std::size_t dropped = 0;
  for (std::size_t c = 0; c < scores.size(); ++c) {
    if (!std::isfinite(scores[c])) {
      ++dropped;
      continue;
    }
    if (!any_finite || scores[c] > best_score) {
      any_finite = true;
      best_score = scores[c];
      best = c;
    }
  }
  note_dropped(dropped);
  if (!any_finite) return rng.index(scores.size());
  return best;
}

std::vector<std::size_t> finite_candidates(std::span<const double> scores) {
  std::vector<std::size_t> finite;
  finite.reserve(scores.size());
  for (std::size_t c = 0; c < scores.size(); ++c) {
    if (std::isfinite(scores[c])) finite.push_back(c);
  }
  note_dropped(scores.size() - finite.size());
  return finite;
}

}  // namespace intooa::gp
