#include "sizing/sizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "gp/acquisition.hpp"
#include "gp/joint_gp.hpp"
#include "obs/span.hpp"

namespace intooa::sizing {

namespace {

// Margins are clamped before entering the GP so the +10 "invalid design"
// sentinel does not dominate the standardization.
constexpr double kMarginClamp = 3.0;

std::vector<double> gp_targets(const EvalPoint& point) {
  std::vector<double> t;
  t.reserve(1 + point.margins.size());
  t.push_back(point.objective());
  for (double m : point.margins) {
    t.push_back(std::clamp(m, -kMarginClamp, kMarginClamp));
  }
  return t;
}

}  // namespace

Sizer::Sizer(EvalContext context, SizingConfig config)
    : context_(std::move(context)), config_(config) {
  if (config_.init_points < 2) {
    throw std::invalid_argument("Sizer: need at least 2 initial points");
  }
  if (config_.candidates == 0) {
    throw std::invalid_argument("Sizer: need a non-empty candidate pool");
  }
  if (config_.refit_hyper_every < 1) {
    throw std::invalid_argument("Sizer: refit_hyper_every must be >= 1");
  }
}

SizedResult Sizer::size(const circuit::Topology& topology,
                        util::Rng& rng) const {
  const circuit::ParamSchema schema =
      circuit::make_schema(topology, context_.behavioral);
  std::vector<double> base_unit(schema.size(), 0.5);
  std::vector<std::size_t> all_indices(schema.size());
  for (std::size_t i = 0; i < all_indices.size(); ++i) all_indices[i] = i;
  return optimize(topology, schema, base_unit, all_indices,
                  config_.init_points, config_.iterations, rng);
}

SizedResult Sizer::resize_subset(const circuit::Topology& topology,
                                 std::span<const double> base_values,
                                 std::span<const std::size_t> free_indices,
                                 util::Rng& rng, std::size_t budget) const {
  const circuit::ParamSchema schema =
      circuit::make_schema(topology, context_.behavioral);
  if (base_values.size() != schema.size()) {
    throw std::invalid_argument("resize_subset: base_values size mismatch");
  }
  for (std::size_t idx : free_indices) {
    if (idx >= schema.size()) {
      throw std::invalid_argument("resize_subset: free index out of range");
    }
  }
  const std::vector<double> base_unit = schema.to_unit(base_values);
  std::size_t init = config_.init_points;
  std::size_t iters = config_.iterations;
  if (budget > 0) {
    init = std::max<std::size_t>(2, budget / 4);
    iters = budget - init;
  }
  return optimize(topology, schema, base_unit, free_indices, init, iters, rng);
}

SizedResult Sizer::optimize(const circuit::Topology& topology,
                            const circuit::ParamSchema& schema,
                            std::span<const double> base_unit,
                            std::span<const std::size_t> free_indices,
                            std::size_t init_points, std::size_t iterations,
                            util::Rng& rng) const {
  INTOOA_SPAN("sizing.size");
  const std::size_t dim = free_indices.size();
  if (dim == 0) {
    throw std::invalid_argument("Sizer: no free parameters to optimize");
  }

  SizedResult result;
  result.topology = topology;

  // Evaluates a point in the free-parameter unit cube.
  auto evaluate_unit = [&](std::span<const double> u) {
    std::vector<double> full(base_unit.begin(), base_unit.end());
    for (std::size_t k = 0; k < dim; ++k) full[free_indices[k]] = u[k];
    const std::vector<double> values = schema.from_unit(full);
    EvalPoint point = evaluate_sized(topology, values, context_);
    result.history.push_back(point);
    ++result.simulations;
    return std::pair(point, values);
  };

  std::vector<std::vector<double>> xs;       // free-unit coordinates
  std::vector<std::vector<double>> targets;  // GP targets per point
  std::vector<EvalPoint> points;

  std::size_t best_idx = 0;
  std::vector<double> best_values;

  auto record = [&](std::vector<double> u) {
    const auto [point, values] = evaluate_unit(u);
    xs.push_back(std::move(u));
    targets.push_back(gp_targets(point));
    points.push_back(point);
    if (points.size() == 1 || better_than(point, points[best_idx])) {
      best_idx = points.size() - 1;
      best_values = values;
    }
  };

  // Initial design: the base point first (for refinement this is the
  // trusted sizing), then uniform random samples.
  {
    std::vector<double> u0(dim);
    for (std::size_t k = 0; k < dim; ++k) u0[k] = base_unit[free_indices[k]];
    record(std::move(u0));
  }
  for (std::size_t i = 1; i < init_points; ++i) {
    std::vector<double> u(dim);
    for (auto& v : u) v = rng.uniform();
    record(std::move(u));
  }

  gp::JointGp model;
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    const bool refit =
        iter % static_cast<std::size_t>(config_.refit_hyper_every) == 0;
    // Soften the objective of structurally invalid simulations (FoM = 0,
    // raw objective -6) to just below the worst valid one, so the GP's
    // resolution is spent on the real landscape.
    std::vector<std::vector<double>> fit_targets = targets;
    double worst_valid = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (points[i].perf.valid) {
        worst_valid = std::min(worst_valid, targets[i][0]);
      }
    }
    if (std::isfinite(worst_valid)) {
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (!points[i].perf.valid) fit_targets[i][0] = worst_valid - 1.0;
      }
    }
    model.fit(xs, fit_targets, refit);

    // Candidate pool: half global uniform, half local Gaussian around the
    // incumbent best. The whole pool is drawn first, in candidate order,
    // then scored in blocks.
    const std::vector<double>& anchor = xs[best_idx];
    la::MatrixD pool(config_.candidates, dim);
    for (std::size_t c = 0; c < config_.candidates; ++c) {
      const std::span<double> u = pool.row(c);
      if (c % 2 == 0) {
        for (auto& v : u) v = rng.uniform();
      } else {
        for (std::size_t k = 0; k < dim; ++k) {
          u[k] = std::clamp(anchor[k] + rng.normal(0.0, 0.08), 0.0, 1.0);
        }
      }
    }
    const std::vector<double> scores =
        gp::weighted_ei_pool(model.predict_pool(pool),
                             points[best_idx].objective(),
                             points[best_idx].feasible);
    const auto best_u = pool.row(gp::select_best_candidate(scores, rng));
    record(std::vector<double>(best_u.begin(), best_u.end()));
  }

  result.best = points[best_idx];
  result.best_values = std::move(best_values);
  return result;
}

}  // namespace intooa::sizing
