#include "baselines/vgae_bo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "gp/acquisition.hpp"
#include "gp/joint_gp.hpp"
#include "util/log.hpp"

namespace intooa::baselines {

namespace {
constexpr double kMarginClamp = 3.0;

std::vector<double> gp_targets(const sizing::EvalPoint& point) {
  std::vector<double> t;
  t.reserve(1 + point.margins.size());
  t.push_back(point.objective());
  for (double m : point.margins) {
    t.push_back(std::clamp(m, -kMarginClamp, kMarginClamp));
  }
  return t;
}
}  // namespace

VgaeBo::VgaeBo(VgaeBoConfig config) : config_(config) {
  if (config_.init_topologies < 2) {
    throw std::invalid_argument("VgaeBo: need at least 2 initial topologies");
  }
  if (config_.candidates == 0) {
    throw std::invalid_argument("VgaeBo: need a non-empty candidate pool");
  }
}

core::OptimizationOutcome VgaeBo::run(core::TopologyEvaluator& evaluator,
                                      util::Rng& rng) const {
  // Train the autoencoder (its own cost, separate from the simulation
  // budget — as in the paper, where the VGAE trains offline).
  Vae vae(config_.vae, rng);
  const double final_loss = vae.train(rng);
  util::log_debug("VGAE-BO: VAE final epoch loss " + std::to_string(final_loss));
  return run(evaluator, rng, vae);
}

core::OptimizationOutcome VgaeBo::run(core::TopologyEvaluator& evaluator,
                                      util::Rng& rng, Vae& vae) const {
  std::unordered_set<std::size_t> visited;
  std::vector<std::vector<double>> latents;   // BO inputs
  std::vector<std::vector<double>> targets;   // BO targets
  std::vector<sizing::EvalPoint> points;

  auto observe = [&](const circuit::Topology& topo) {
    const auto& sized = evaluator.evaluate(topo);
    visited.insert(topo.index());
    latents.push_back(vae.encode(topo));
    targets.push_back(gp_targets(sized.best));
    points.push_back(sized.best);
  };

  // Stage 2: random initial dataset.
  std::size_t guard = 0;
  while (visited.size() < config_.init_topologies && guard < 100000) {
    const circuit::Topology topo = circuit::Topology::random(rng);
    if (visited.count(topo.index())) {
      ++guard;
      continue;
    }
    observe(topo);
  }

  // Stage 3: latent-space BO.
  gp::JointGp model;
  for (std::size_t iter = 0; iter < config_.iterations; ++iter) {
    const bool refit =
        iter % static_cast<std::size_t>(config_.refit_hyper_every) == 0;
    // Same invalid-objective softening as the other optimizers: keep the
    // latent GP's resolution on the structurally valid landscape.
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
    model.fit(latents, fit_targets, refit);

    bool have_feasible = false;
    double best_objective = 0.0;
    std::size_t best_idx = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (points[i].feasible &&
          (!have_feasible || points[i].objective() > best_objective)) {
        have_feasible = true;
        best_objective = points[i].objective();
        best_idx = i;
      }
    }

    // Candidate latents: half prior samples, half perturbations of the
    // incumbent's latent; scored by wEI, decoded best-first until an
    // unvisited topology appears. Non-finite scores are dropped before
    // ranking.
    const std::vector<double>& anchor =
        have_feasible ? latents[best_idx] : latents.front();
    la::MatrixD pool(config_.candidates, config_.vae.latent_dim);
    for (std::size_t c = 0; c < config_.candidates; ++c) {
      const std::span<double> z = pool.row(c);
      if (c % 2 == 0) {
        for (auto& v : z) v = rng.normal(0.0, config_.prior_sigma);
      } else {
        for (std::size_t k = 0; k < z.size(); ++k) {
          z[k] = anchor[k] + rng.normal(0.0, 0.3);
        }
      }
    }
    const std::vector<double> scores = gp::weighted_ei_pool(
        model.predict_pool(pool), best_objective, have_feasible);
    std::vector<std::size_t> ranked = gp::finite_candidates(scores);
    std::sort(ranked.begin(), ranked.end(),
              [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });

    // Decode best-first; the many-to-one decoder often collapses onto
    // visited topologies — skip those (they cost nothing, per the shared
    // visited rule) and take the first fresh decode.
    bool advanced = false;
    for (std::size_t c : ranked) {
      const circuit::Topology topo = vae.decode(pool.row(c));
      if (visited.count(topo.index())) continue;
      observe(topo);
      advanced = true;
      break;
    }
    if (!advanced) {
      // Whole pool decoded to visited designs: fall back to a random
      // unvisited topology so the budget is still spent.
      std::size_t tries = 0;
      while (tries++ < 10000) {
        const circuit::Topology topo = circuit::Topology::random(rng);
        if (!visited.count(topo.index())) {
          observe(topo);
          break;
        }
      }
    }
  }

  core::OptimizationOutcome outcome;
  const auto best_feasible = evaluator.best_feasible();
  const auto best_any =
      best_feasible ? best_feasible : evaluator.best_overall();
  outcome.success = best_feasible.has_value();
  outcome.best_index = best_any;
  if (best_any) {
    const auto& record = evaluator.history()[*best_any];
    outcome.best_topology = record.topology;
    outcome.best_point = record.sized.best;
    outcome.best_values = record.sized.best_values;
  }
  return outcome;
}

}  // namespace intooa::baselines
