// Unit tests for intooa::gp — kernels, the continuous GP regressor, the
// shared-kernel JointGp, the WL-GP over graphs (including the analytic
// feature gradient of Eq. 5) and the wEI acquisition.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "gp/acquisition.hpp"
#include "gp/fit_cache.hpp"
#include "gp/gp.hpp"
#include "gp/joint_gp.hpp"
#include "gp/kernel.hpp"
#include "gp/wlgp.hpp"
#include "graph/wl.hpp"
#include "la/cholesky.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace intooa;
using namespace intooa::gp;

TEST(Kernel, RbfValues) {
  const RbfKernel k(1.0, 2.0);
  const std::vector<double> x = {0.0, 0.0};
  const std::vector<double> y = {1.0, 0.0};
  EXPECT_DOUBLE_EQ(k(x, x), 2.0);
  EXPECT_NEAR(k(x, y), 2.0 * std::exp(-0.5), 1e-12);
  EXPECT_DOUBLE_EQ(k(x, y), k(y, x));
  EXPECT_THROW(k(x, std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(RbfKernel(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(RbfKernel(1.0, 0.0), std::invalid_argument);
}

TEST(Kernel, Matern52Values) {
  const Matern52Kernel k(0.5, 1.0);
  const std::vector<double> x = {0.0};
  EXPECT_DOUBLE_EQ(k(x, x), 1.0);
  const std::vector<double> y = {0.5};
  EXPECT_GT(k(x, y), 0.0);
  EXPECT_LT(k(x, y), 1.0);
  EXPECT_EQ(k.name(), "matern52");
}

TEST(Kernel, GramMatrixIsPsd) {
  util::Rng rng(31);
  const RbfKernel k(0.5, 1.0);
  const std::size_t n = 12;
  std::vector<std::vector<double>> xs(n, std::vector<double>(3));
  for (auto& x : xs) {
    for (auto& v : x) v = rng.uniform();
  }
  la::MatrixD gram(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) gram(i, j) = k(xs[i], xs[j]);
  }
  // PSD check: Cholesky with tiny jitter succeeds.
  EXPECT_NO_THROW(la::Cholesky{gram});
}

TEST(GpRegressor, InterpolatesTrainingData) {
  util::Rng rng(32);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 15; ++i) {
    const double x = rng.uniform();
    xs.push_back({x});
    ys.push_back(std::sin(6.0 * x));
  }
  GpRegressor gp;
  gp.fit(xs, ys);
  EXPECT_TRUE(gp.trained());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Prediction p = gp.predict(xs[i]);
    EXPECT_NEAR(p.mean, ys[i], 0.05);
    EXPECT_LT(p.variance, 0.05);
  }
}

TEST(GpRegressor, VarianceGrowsAwayFromData) {
  GpRegressor gp;
  gp.fit({{0.1}, {0.2}, {0.3}}, std::vector<double>{1.0, 2.0, 3.0});
  const double var_near = gp.predict(std::vector<double>{0.2}).variance;
  const double var_far = gp.predict(std::vector<double>{0.9}).variance;
  EXPECT_GT(var_far, var_near);
}

TEST(GpRegressor, ConstantTargetsHandled) {
  GpRegressor gp;
  gp.fit({{0.1}, {0.5}, {0.9}}, std::vector<double>{2.0, 2.0, 2.0});
  const Prediction p = gp.predict(std::vector<double>{0.3});
  EXPECT_NEAR(p.mean, 2.0, 1e-6);
}

TEST(GpRegressor, InputValidation) {
  GpRegressor gp;
  EXPECT_THROW(gp.fit({{0.1}}, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(gp.fit({{0.1}, {0.2, 0.3}}, std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(gp.predict(std::vector<double>{0.0}), std::logic_error);
}

TEST(JointGp, MatchesSingleOutputBehaviour) {
  util::Rng rng(33);
  std::vector<std::vector<double>> xs;
  std::vector<std::vector<double>> ys;
  std::vector<double> y_flat;
  for (int i = 0; i < 12; ++i) {
    const double x = rng.uniform();
    xs.push_back({x});
    const double y = std::cos(4.0 * x);
    ys.push_back({y});
    y_flat.push_back(y);
  }
  JointGp joint;
  joint.fit(xs, ys, true);
  GpRegressor single;
  single.fit(xs, y_flat);
  for (double q : {0.05, 0.35, 0.75}) {
    const auto jp = joint.predict(std::vector<double>{q});
    const auto sp = single.predict(std::vector<double>{q});
    EXPECT_NEAR(jp.mean[0], sp.mean, 0.15);
  }
}

TEST(JointGp, SharedVarianceScaledPerOutput) {
  // Two outputs with different scales: identical standardized variance,
  // different raw variance.
  std::vector<std::vector<double>> xs = {{0.1}, {0.4}, {0.7}};
  std::vector<std::vector<double>> ys = {{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}};
  JointGp joint;
  joint.fit(xs, ys, true);
  const auto p = joint.predict(std::vector<double>{0.95});
  EXPECT_GT(p.variance[1], p.variance[0]);
  EXPECT_NEAR(p.variance[1] / p.variance[0], 100.0, 1.0);
}

TEST(JointGp, HyperReuseWithoutRefit) {
  std::vector<std::vector<double>> xs = {{0.1}, {0.4}, {0.7}};
  std::vector<std::vector<double>> ys = {{1.0}, {2.0}, {3.0}};
  JointGp joint;
  joint.fit(xs, ys, true);
  const auto hyper = joint.hyper();
  xs.push_back({0.9});
  ys.push_back({4.0});
  joint.fit(xs, ys, false);  // reuse hypers
  EXPECT_EQ(joint.hyper().lengthscale, hyper.lengthscale);
  EXPECT_EQ(joint.size(), 4u);
}

TEST(JointGp, Validation) {
  JointGp joint;
  EXPECT_THROW(joint.fit({{0.1}}, {{1.0}}, true), std::invalid_argument);
  EXPECT_THROW(joint.fit({{0.1}, {0.2}}, {{1.0}, {1.0, 2.0}}, true),
               std::invalid_argument);
}

graph::Graph make_chain(const std::vector<std::string>& labels) {
  graph::Graph g;
  for (const auto& l : labels) g.add_node(l);
  for (std::size_t i = 0; i + 1 < labels.size(); ++i) {
    g.add_edge(i, i + 1);
  }
  return g;
}

TEST(WlGp, FitsAndInterpolatesGraphTargets) {
  auto feat = std::make_shared<graph::WlFeaturizer>(3);
  WlGpConfig config;
  config.max_h = 3;
  WlGp gp(feat, config);

  // Target = number of "B" nodes (a depth-0-expressible function).
  std::vector<graph::Graph> graphs;
  std::vector<double> targets;
  const std::vector<std::vector<std::string>> specs = {
      {"A", "B"},      {"A", "B", "B"},   {"A", "A"},
      {"B", "B", "B"}, {"A", "B", "A"},   {"B"},
      {"A", "A", "B"}, {"B", "B", "A", "A"},
  };
  for (const auto& s : specs) {
    graphs.push_back(make_chain(s));
    targets.push_back(static_cast<double>(
        std::count(s.begin(), s.end(), std::string("B"))));
  }
  gp.fit(graphs, targets);
  EXPECT_TRUE(gp.trained());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_NEAR(gp.predict(graphs[i]).mean, targets[i], 0.35);
  }
}

TEST(WlGp, GradientMatchesLinearityOfKernel) {
  // With the dot-product WL kernel the posterior mean is linear in the
  // feature vector, so mu(phi + e_j) - mu(phi) must equal the analytic
  // gradient of Eq. 5 exactly. Adding one disconnected node labeled "B"
  // increments exactly one depth-0 feature (plus new deeper features with
  // zero gradient).
  auto feat = std::make_shared<graph::WlFeaturizer>(1);
  WlGpConfig config;
  config.max_h = 1;
  config.fit_h = false;
  config.fixed_h = 0;  // depth-0 only: adding a node changes one feature
  WlGp gp(feat, config);

  std::vector<graph::Graph> graphs;
  std::vector<double> targets;
  const std::vector<std::vector<std::string>> specs = {
      {"A", "B"}, {"A", "B", "B"}, {"A", "A"}, {"B", "B", "B"}, {"A"},
  };
  for (const auto& s : specs) {
    graphs.push_back(make_chain(s));
    targets.push_back(static_cast<double>(
        std::count(s.begin(), s.end(), std::string("B"))));
  }
  gp.fit(graphs, targets);

  graph::Graph base = make_chain({"A", "B"});
  const double mu0 = gp.predict(base).mean;
  graph::Graph plus_b = base;
  plus_b.add_node("B");
  const double mu1 = gp.predict(plus_b).mean;

  // Feature id of label "B" at depth 0.
  const auto labels = feat->node_labels(base, 0);
  const std::size_t b_id = labels[0][1];
  EXPECT_EQ(feat->provenance(b_id), "B");
  EXPECT_NEAR(mu1 - mu0, gp.mean_gradient(b_id), 1e-9);

  // Dense gradient agrees with the scalar accessor.
  const auto grad = gp.mean_gradient();
  EXPECT_NEAR(grad[b_id], gp.mean_gradient(b_id), 1e-12);
}

TEST(WlGp, MleSelectsExpressiveDepth) {
  // Target depends on depth-1 structure (neighbor identity), so MLE should
  // not pick a degenerate model; chosen h must be within range.
  auto feat = std::make_shared<graph::WlFeaturizer>(3);
  WlGp gp(feat, WlGpConfig{.max_h = 3});
  util::Rng rng(35);
  std::vector<graph::Graph> graphs;
  std::vector<double> targets;
  for (int i = 0; i < 12; ++i) {
    std::vector<std::string> labels;
    const int n = 3 + static_cast<int>(rng.index(3));
    int ab_edges = 0;
    for (int j = 0; j < n; ++j) {
      labels.push_back(rng.chance(0.5) ? "A" : "B");
    }
    for (int j = 0; j + 1 < n; ++j) {
      if (labels[j] != labels[j + 1]) ++ab_edges;
    }
    graphs.push_back(make_chain(labels));
    targets.push_back(static_cast<double>(ab_edges));
  }
  gp.fit(graphs, targets);
  EXPECT_GE(gp.chosen_h(), 0);
  EXPECT_LE(gp.chosen_h(), 3);
  EXPECT_GT(gp.signal_variance(), 0.0);
  EXPECT_GT(gp.noise_variance(), 0.0);
  EXPECT_TRUE(std::isfinite(gp.log_marginal_likelihood()));
}

TEST(WlGp, FixedDepthRespected) {
  auto feat = std::make_shared<graph::WlFeaturizer>(4);
  WlGpConfig config;
  config.max_h = 4;
  config.fit_h = false;
  config.fixed_h = 2;
  WlGp gp(feat, config);
  gp.fit({make_chain({"A", "B"}), make_chain({"B", "B"})},
         std::vector<double>{0.0, 1.0});
  EXPECT_EQ(gp.chosen_h(), 2);
}

TEST(WlGp, Validation) {
  auto feat = std::make_shared<graph::WlFeaturizer>(2);
  EXPECT_THROW(WlGp(nullptr, WlGpConfig{}), std::invalid_argument);
  WlGpConfig too_deep;
  too_deep.max_h = 5;
  EXPECT_THROW(WlGp(feat, too_deep), std::invalid_argument);
  WlGp gp(feat, WlGpConfig{.max_h = 2});
  EXPECT_THROW(gp.fit({make_chain({"A"})}, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(gp.predict(make_chain({"A"})), std::logic_error);
}

TEST(WlFitCache, SharedFitMatchesFullFitIncrementally) {
  // Grow the cache one record at a time (exercising factor materialization
  // at one size and border updates at every later size) and, at each size,
  // compare fit_shared against an independent full fit on two different
  // target columns. The shared path is bit-identical, so hyperparameters,
  // LML, and held-out predictions must match exactly.
  auto feat = std::make_shared<graph::WlFeaturizer>(3);
  WlGpConfig config;
  config.max_h = 3;
  WlFitCache cache(feat, 3);
  util::Rng rng(41);
  std::vector<graph::Graph> graphs;
  std::vector<double> count_targets;
  std::vector<double> edge_targets;
  for (int i = 0; i < 10; ++i) {
    std::vector<std::string> labels;
    const int n = 3 + static_cast<int>(rng.index(3));
    for (int j = 0; j < n; ++j) {
      labels.push_back(rng.chance(0.5) ? "A" : "B");
    }
    int ab_edges = 0;
    for (int j = 0; j + 1 < n; ++j) {
      if (labels[j] != labels[j + 1]) ++ab_edges;
    }
    graphs.push_back(make_chain(labels));
    count_targets.push_back(static_cast<double>(
        std::count(labels.begin(), labels.end(), std::string("B"))));
    edge_targets.push_back(static_cast<double>(ab_edges));
  }
  const graph::Graph held_out = make_chain({"A", "B", "A", "B"});

  for (std::size_t n = 0; n < graphs.size(); ++n) {
    cache.append(graphs[n]);
    if (n + 1 < 2) continue;
    const std::vector<graph::Graph> prefix(graphs.begin(),
                                           graphs.begin() + n + 1);
    for (const auto* targets : {&count_targets, &edge_targets}) {
      const std::vector<double> y(targets->begin(), targets->begin() + n + 1);
      WlGp full(feat, config);
      full.fit(prefix, y);
      WlGp shared(feat, config);
      shared.fit_shared(cache, y);
      EXPECT_EQ(shared.chosen_h(), full.chosen_h());
      EXPECT_DOUBLE_EQ(shared.signal_variance(), full.signal_variance());
      EXPECT_DOUBLE_EQ(shared.noise_variance(), full.noise_variance());
      EXPECT_DOUBLE_EQ(shared.log_marginal_likelihood(),
                       full.log_marginal_likelihood());
      const Prediction p_full = full.predict(held_out);
      const Prediction p_shared = shared.predict(held_out);
      EXPECT_DOUBLE_EQ(p_shared.mean, p_full.mean);
      EXPECT_DOUBLE_EQ(p_shared.variance, p_full.variance);
    }
  }
}

TEST(WlFitCache, Validation) {
  auto feat = std::make_shared<graph::WlFeaturizer>(2);
  EXPECT_THROW(WlFitCache(nullptr, 2), std::invalid_argument);
  EXPECT_THROW(WlFitCache(feat, 3), std::invalid_argument);
  EXPECT_THROW(WlFitCache(feat, -1), std::invalid_argument);

  WlFitCache cache(feat, 2);
  cache.append(make_chain({"A", "B"}));
  cache.append(make_chain({"B", "B"}));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_THROW(cache.features_at(3), std::out_of_range);
  EXPECT_THROW(cache.factor(0, 99, 0), std::out_of_range);

  WlGp gp(feat, WlGpConfig{.max_h = 2});
  const std::vector<double> one = {0.0};
  EXPECT_THROW(gp.fit_shared(cache, one), std::invalid_argument);
  const std::vector<double> two = {0.0, 1.0};
  auto other_feat = std::make_shared<graph::WlFeaturizer>(2);
  WlGp other(other_feat, WlGpConfig{.max_h = 2});
  EXPECT_THROW(other.fit_shared(cache, two), std::invalid_argument);

  // A cache shallower than the model's max_h cannot serve its grid.
  WlFitCache shallow(feat, 1);
  shallow.append(make_chain({"A", "B"}));
  shallow.append(make_chain({"B", "B"}));
  EXPECT_THROW(gp.fit_shared(shallow, two), std::invalid_argument);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Acquisition, ExpectedImprovementKnownValues) {
  // With mean = best and unit variance: EI = pdf(0) ~= 0.3989.
  EXPECT_NEAR(expected_improvement(0.0, 1.0, 0.0), 0.3989422804, 1e-6);
  // Deterministic improvement.
  EXPECT_DOUBLE_EQ(expected_improvement(2.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(expected_improvement(0.5, 0.0, 1.0), 0.0);
  // EI increases with variance.
  EXPECT_GT(expected_improvement(0.0, 4.0, 1.0),
            expected_improvement(0.0, 1.0, 1.0));
  EXPECT_THROW(expected_improvement(0.0, -1.0, 0.0), std::invalid_argument);
}

TEST(Acquisition, ProbabilityFeasible) {
  EXPECT_NEAR(probability_feasible(0.0, 1.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(probability_feasible(-1.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(probability_feasible(1.0, 0.0), 0.0);
  EXPECT_GT(probability_feasible(-1.0, 1.0), 0.8);
  EXPECT_LT(probability_feasible(1.0, 1.0), 0.2);
}

TEST(Acquisition, WeightedEiComposition) {
  const std::vector<double> cm = {-2.0, -2.0};
  const std::vector<double> cv = {0.01, 0.01};
  WeiInputs in;
  in.objective_mean = 1.0;
  in.objective_variance = 0.5;
  in.best_feasible = 0.5;
  in.have_feasible = true;
  in.constraint_means = cm;
  in.constraint_variances = cv;
  const double with_feasible_constraints = weighted_ei(in);
  EXPECT_GT(with_feasible_constraints, 0.0);

  // An almost-surely-violated constraint crushes the score.
  const std::vector<double> bad_cm = {3.0, -2.0};
  in.constraint_means = bad_cm;
  EXPECT_LT(weighted_ei(in), 1e-3 * with_feasible_constraints);

  // Without a feasible incumbent, wEI reduces to the PF product.
  in.constraint_means = cm;
  in.have_feasible = false;
  const double pf_only = weighted_ei(in);
  EXPECT_LE(pf_only, 1.0);
  EXPECT_GT(pf_only, 0.9);  // both constraints comfortably satisfied
}

TEST(Acquisition, WeightedEiValidatesSpans) {
  const std::vector<double> cm = {0.0};
  const std::vector<double> cv = {0.0, 0.0};
  WeiInputs in;
  in.constraint_means = cm;
  in.constraint_variances = cv;
  EXPECT_THROW(weighted_ei(in), std::invalid_argument);
}

TEST(Acquisition, SelectBestCandidate) {
  util::Rng rng(62);
  const std::vector<double> scores = {0.1, 0.7, 0.3};
  EXPECT_EQ(select_best_candidate(scores, rng), 1u);

  // Non-finite scores are dropped, never selected.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> mixed = {nan, 0.2, inf, 0.5};
  EXPECT_EQ(select_best_candidate(mixed, rng), 3u);

  // All-zero scores: ties break to the earliest index, as before.
  const std::vector<double> zeros = {0.0, 0.0, 0.0};
  EXPECT_EQ(select_best_candidate(zeros, rng), 0u);

  // No finite score at all: deterministic fallback draw from the caller's
  // rng instead of silently proposing index 0.
  const std::vector<double> bad = {nan, inf, nan};
  util::Rng a(7);
  util::Rng b(7);
  const std::size_t pick_a = select_best_candidate(bad, a);
  const std::size_t pick_b = select_best_candidate(bad, b);
  EXPECT_EQ(pick_a, pick_b);
  EXPECT_LT(pick_a, bad.size());

  EXPECT_THROW(select_best_candidate({}, rng), std::invalid_argument);
}

TEST(Acquisition, NonFiniteScoresAreDroppedAndCounted) {
  auto& dropped = obs::registry().counter("acquisition.nonfinite_scores");
  const std::uint64_t before = dropped.value();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  // The ranking path (VGAE-BO sorts the finite scores best-first).
  const std::vector<double> mixed = {0.3, nan, -inf, 0.9, nan, 0.1};
  EXPECT_EQ(finite_candidates(mixed), (std::vector<std::size_t>{0, 3, 5}));
  EXPECT_EQ(dropped.value(), before + 3);

  // A finite pool keeps every index, in order, and counts nothing.
  const std::vector<double> finite = {0.5, 0.0, 0.5, -0.0};
  EXPECT_EQ(finite_candidates(finite),
            (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(dropped.value(), before + 3);

  // An all-NaN pool (the sizer's wEI when every prediction is NaN) still
  // yields an in-range pick instead of an empty incumbent.
  util::Rng rng(5);
  const std::vector<double> all_nan(256, nan);
  EXPECT_LT(select_best_candidate(all_nan, rng), all_nan.size());
  EXPECT_TRUE(finite_candidates(all_nan).empty());
  EXPECT_EQ(dropped.value(), before + 3 + 2 * 256);
}

// ---- Oracle: blocked pool scoring against the per-point reference predict

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// JointGp's fitted state rebuilt from the public fit inputs and selected
// hyperparameters, with predict() exactly as it stood before blocked
// scoring: one k* vector, one forward solve and one pass per output per
// point.
class ReferenceJointGp {
 public:
  ReferenceJointGp(const std::vector<std::vector<double>>& inputs,
                   const std::vector<std::vector<double>>& targets,
                   const GpHyper& hyper)
      : inputs_(inputs), hyper_(hyper) {
    const std::size_t n = inputs.size();
    const std::size_t m = targets.front().size();
    y_mean_.assign(m, 0.0);
    y_scale_.assign(m, 1.0);
    std::vector<std::vector<double>> y_std(m, std::vector<double>(n));
    for (std::size_t k = 0; k < m; ++k) {
      std::vector<double> col(n);
      for (std::size_t i = 0; i < n; ++i) col[i] = targets[i][k];
      y_mean_[k] = util::mean(col);
      const double sd = util::stddev(col);
      y_scale_[k] = sd > 1e-12 ? sd : 1.0;
      for (std::size_t i = 0; i < n; ++i) {
        y_std[k][i] = (col[i] - y_mean_[k]) / y_scale_[k];
      }
    }
    la::MatrixD gram(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        const double k = kernel(inputs_[i], inputs_[j]);
        gram(i, j) = k;
        gram(j, i) = k;
      }
      gram(i, i) += hyper_.noise_variance;
    }
    chol_ = std::make_unique<la::Cholesky>(gram);
    for (const auto& y : y_std) alpha_.push_back(chol_->solve(y));
  }

  JointPrediction predict(std::span<const double> x) const {
    const std::size_t n = inputs_.size();
    const std::size_t m = y_mean_.size();
    std::vector<double> kvec(n);
    for (std::size_t i = 0; i < n; ++i) kvec[i] = kernel(inputs_[i], x);
    const auto v = chol_->solve_lower(kvec);
    double quad = 0.0;
    for (double vi : v) quad += vi * vi;
    const double var_std = std::max(0.0, hyper_.signal_variance - quad);
    JointPrediction out;
    out.mean.resize(m);
    out.variance.resize(m);
    for (std::size_t k = 0; k < m; ++k) {
      double mean_std = 0.0;
      for (std::size_t i = 0; i < n; ++i) mean_std += kvec[i] * alpha_[k][i];
      out.mean[k] = mean_std * y_scale_[k] + y_mean_[k];
      out.variance[k] = var_std * y_scale_[k] * y_scale_[k];
    }
    return out;
  }

 private:
  double kernel(std::span<const double> a, std::span<const double> b) const {
    double d2 = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double d = a[i] - b[i];
      d2 += d * d;
    }
    const double ls = hyper_.lengthscale;
    return std::exp(-0.5 * d2 / (ls * ls));
  }

  std::vector<std::vector<double>> inputs_;
  GpHyper hyper_;
  std::unique_ptr<la::Cholesky> chol_;
  std::vector<std::vector<double>> alpha_;
  std::vector<double> y_mean_;
  std::vector<double> y_scale_;
};

TEST(JointGpOracle, PoolScoringMatchesReferencePredictBitwise) {
  util::Rng rng(4242);
  constexpr std::size_t kDim = 7;
  constexpr std::size_t kOutputs = 5;  // objective + 4 constraint margins
  for (const std::size_t n : {2u, 20u, 40u}) {
    std::vector<std::vector<double>> xs(n, std::vector<double>(kDim));
    std::vector<std::vector<double>> ys(n, std::vector<double>(kOutputs));
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& v : xs[i]) v = rng.uniform();
      for (std::size_t k = 0; k < kOutputs; ++k) {
        ys[i][k] = std::sin(3.0 * xs[i][k % kDim]) + 0.1 * rng.normal();
      }
    }
    ys[0][2] = ys[1][2] = 10.0;  // a near-constant, clamped-margin column
    JointGp gp;
    gp.fit(xs, ys, true);
    const ReferenceJointGp ref(xs, ys, gp.hyper());
    for (const std::size_t count : {1u, 31u, 32u, 33u, 100u, 257u}) {
      la::MatrixD pool(count, kDim);
      for (std::size_t c = 0; c < count; ++c) {
        for (std::size_t d = 0; d < kDim; ++d) {
          // Mostly inside the unit cube, some candidates on training
          // points and some far outside.
          pool(c, d) = c % 9 == 4   ? xs[c % n][d]
                       : c % 9 == 7 ? rng.uniform(-3.0, 4.0)
                                    : rng.uniform();
        }
      }
      const PoolPrediction got = gp.predict_pool(pool);
      ASSERT_EQ(got.outputs, kOutputs);
      ASSERT_EQ(got.mean.size(), count * kOutputs);
      const std::vector<double> scores = weighted_ei_pool(got, 0.2, true);
      for (std::size_t c = 0; c < count; ++c) {
        SCOPED_TRACE("n " + std::to_string(n) + " count " +
                     std::to_string(count) + " candidate " + std::to_string(c));
        const JointPrediction want = ref.predict(pool.row(c));
        const JointPrediction single = gp.predict(pool.row(c));
        for (std::size_t k = 0; k < kOutputs; ++k) {
          ASSERT_TRUE(same_bits(got.mean_of(c)[k], want.mean[k]));
          ASSERT_TRUE(same_bits(got.variance_of(c)[k], want.variance[k]));
          ASSERT_TRUE(same_bits(single.mean[k], want.mean[k]));
          ASSERT_TRUE(same_bits(single.variance[k], want.variance[k]));
        }
        // The per-candidate acquisition loop's wEI, built through a fixed array.
        WeiInputs in;
        in.objective_mean = want.mean[0];
        in.objective_variance = want.variance[0];
        in.best_feasible = 0.2;
        in.have_feasible = true;
        std::array<double, kOutputs - 1> cm{}, cv{};
        for (std::size_t k = 0; k < cm.size(); ++k) {
          cm[k] = want.mean[k + 1];
          cv[k] = want.variance[k + 1];
        }
        in.constraint_means = cm;
        in.constraint_variances = cv;
        ASSERT_TRUE(same_bits(scores[c], weighted_ei(in)));
      }
    }
  }
}

TEST(JointGpOracle, PoolValidation) {
  JointGp gp;
  EXPECT_THROW(gp.predict_pool(la::MatrixD(3, 2)), std::logic_error);
  gp.fit({{0.1, 0.2}, {0.8, 0.4}, {0.5, 0.9}}, {{1.0}, {2.0}, {0.5}}, true);
  EXPECT_THROW(gp.predict_pool(la::MatrixD(3, 4)), std::invalid_argument);
  EXPECT_TRUE(gp.predict_pool(la::MatrixD(0, 2)).mean.empty());
}

}  // namespace
