// Unit tests for intooa::baselines — the mini neural-net substrate
// (gradient checks against finite differences), the VAE over topology
// one-hots, the FE-GA embedding/decoding and campaign, and VGAE-BO.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "baselines/fega.hpp"
#include "baselines/nn.hpp"
#include "baselines/vae.hpp"
#include "baselines/vgae_bo.hpp"
#include "circuit/library.hpp"
#include "util/rng.hpp"

namespace {

using namespace intooa;
using namespace intooa::baselines;

TEST(Nn, LinearForwardMatchesManualComputation) {
  util::Rng rng(71);
  Linear layer(2, 1, rng);
  // Overwrite parameters deterministically through the flat [W | b] span.
  const auto params = layer.parameters();
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(layer.gradients().size(), 3u);
  params[0] = 2.0;  // w00
  params[1] = -3.0; // w01
  params[2] = 0.5;  // b0
  const auto y = layer.forward(std::vector<double>{1.0, 2.0});
  ASSERT_EQ(y.size(), 1u);
  EXPECT_DOUBLE_EQ(y[0], 2.0 - 6.0 + 0.5);
}

TEST(Nn, LinearBackwardMatchesFiniteDifference) {
  util::Rng rng(72);
  Linear layer(3, 2, rng);
  const std::vector<double> x = {0.3, -0.7, 1.1};
  const std::vector<double> grad_out = {1.0, -2.0};

  layer.zero_grad();
  const auto y0 = layer.forward(x);
  const auto grad_in = layer.backward(grad_out);
  (void)y0;

  // Scalar loss L = grad_out . y; check dL/dparam by finite differences.
  const auto params = layer.parameters();
  const auto grads = layer.gradients();
  auto loss = [&]() {
    const auto y = layer.forward(x);
    return grad_out[0] * y[0] + grad_out[1] * y[1];
  };
  const double h = 1e-6;
  for (std::size_t i = 0; i < params.size(); i += 3) {  // sample every 3rd
    const double orig = params[i];
    params[i] = orig + h;
    const double lp = loss();
    params[i] = orig - h;
    const double lm = loss();
    params[i] = orig;
    EXPECT_NEAR((lp - lm) / (2 * h), grads[i], 1e-5) << "param " << i;
  }
  // Input gradient check.
  for (std::size_t i = 0; i < x.size(); ++i) {
    auto xs = x;
    xs[i] += h;
    layer.forward(xs);
    const auto yp = layer.forward(xs);
    xs[i] -= 2 * h;
    const auto ym = layer.forward(xs);
    const double fd = (grad_out[0] * (yp[0] - ym[0]) +
                       grad_out[1] * (yp[1] - ym[1])) /
                      (2 * h);
    EXPECT_NEAR(fd, grad_in[i], 1e-5);
  }
}

TEST(Nn, ReluForwardBackward) {
  Relu relu;
  const auto y = relu.forward(std::vector<double>{-1.0, 0.0, 2.0});
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
  const auto g = relu.backward(std::vector<double>{1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(g[0], 0.0);
  EXPECT_DOUBLE_EQ(g[2], 1.0);
}

TEST(Nn, AdamMinimizesQuadratic) {
  // Minimize (x - 3)^2 with Adam over 500 steps.
  double x = 0.0, grad = 0.0;
  Adam adam(0.05);
  for (int i = 0; i < 500; ++i) {
    grad = 2.0 * (x - 3.0);
    adam.step({{std::span<double>(&x, 1), std::span<const double>(&grad, 1)}});
  }
  EXPECT_NEAR(x, 3.0, 0.05);
}

TEST(Nn, AdamRejectsChangedBlockShapes) {
  std::vector<double> p(3, 0.0), g(3, 1.0), g2(2, 1.0);
  Adam adam;
  adam.step({{p, g}});
  EXPECT_EQ(adam.first_moment(0).size(), 3u);
  EXPECT_THROW(adam.step({{p, g}, {p, g}}), std::invalid_argument);
  EXPECT_THROW(adam.step({{p, g2}}), std::invalid_argument);
}

/// The pointer-gather Adam loop that nn.cpp's flat, fast-pathed Adam
/// replaced, kept verbatim as the oracle the new one must match bit for bit.
class ReferenceAdam {
 public:
  ReferenceAdam(double lr, double beta1, double beta2, double eps)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  void attach(std::vector<double*> params, std::vector<double*> grads) {
    params_.insert(params_.end(), params.begin(), params.end());
    grads_.insert(grads_.end(), grads.begin(), grads.end());
    m_.resize(params_.size(), 0.0);
    v_.resize(params_.size(), 0.0);
  }

  void step() {
    ++t_;
    const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
    for (std::size_t i = 0; i < params_.size(); ++i) {
      const double g = *grads_[i];
      m_[i] = beta1_ * m_[i] + (1.0 - beta1_) * g;
      v_[i] = beta2_ * v_[i] + (1.0 - beta2_) * g * g;
      const double mhat = m_[i] / bc1;
      const double vhat = v_[i] / bc2;
      *params_[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }

  const std::vector<double>& m() const { return m_; }
  const std::vector<double>& v() const { return v_; }

 private:
  double lr_, beta1_, beta2_, eps_;
  long t_ = 0;
  std::vector<double*> params_;
  std::vector<double*> grads_;
  std::vector<double> m_;
  std::vector<double> v_;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(Nn, AdamSubnormalFixedPoint) {
  // 0.9 * k ulps rounds back to k ulps for k <= 5 (0.9 * 6 = 5.4 -> 5), and
  // 3e-3 * 5 ulps rounds to zero.
  EXPECT_EQ(adam_subnormal_fixed_point(3e-3, 0.9, 1e-8, 1.0), 5);
  // Early bias correction divides the moment by bc1 < 1 first; still zero.
  EXPECT_EQ(adam_subnormal_fixed_point(3e-3, 0.9, 1e-8, 0.1), 5);
  // 0.5 * 1 ulp ties to the even zero; 0.5 * 2 ulps does not vanish.
  EXPECT_EQ(adam_subnormal_fixed_point(0.5, 0.9, 1e-8, 1.0), 1);
  // Any lr > 0.5 moves the parameter by at least one ulp: no fast path.
  EXPECT_EQ(adam_subnormal_fixed_point(0.75, 0.9, 1e-8, 1.0), 0);
  // beta1 = 0.5 halves 1 ulp to a tie that rounds to zero: no fixed point.
  EXPECT_EQ(adam_subnormal_fixed_point(1e-3, 0.5, 1e-8, 1.0), 0);
  // The search stops at 16 ulps.
  EXPECT_EQ(adam_subnormal_fixed_point(1e-3, 0.999, 1e-8, 1.0), 16);
  // A non-positive eps could flip the update's sign: no fast path.
  EXPECT_EQ(adam_subnormal_fixed_point(3e-3, 0.9, 0.0, 1.0), 0);
  EXPECT_EQ(adam_subnormal_fixed_point(-3e-3, 0.9, 1e-8, 1.0), 0);
}

// The fast path vs the reference loop over seeded gradient streams: dense
// gradients, zero stretches long enough (>= 8000 steps) for first moments
// to decay to their subnormal fixed point followed by revivals, -0.0
// gradients, and parameters reset to +-0.0 and subnormals (where the sign
// and size of a tiny update are visible). p, m and v must agree bit for bit
// after every step.
TEST(Nn, AdamMatchesReferenceBitForBit) {
  struct Config {
    double lr, beta1;
  };
  // lr = 0.75 has K = 0: the fast path must never fire.
  const Config configs[] = {
      {1e-3, 0.9}, {3e-3, 0.9}, {0.5, 0.9}, {0.75, 0.9}, {1e-2, 0.99}};
  const std::size_t sizes[] = {40, 1, 55};
  const std::size_t steps = 20000;
  const double ulp = std::numeric_limits<double>::denorm_min();

  for (const Config& config : configs) {
    SCOPED_TRACE(testing::Message() << "lr " << config.lr << " beta1 "
                                    << config.beta1);
    util::Rng rng(4242);
    std::vector<std::vector<double>> p, g;
    for (std::size_t size : sizes) {
      p.emplace_back(size);
      g.emplace_back(size, 0.0);
      for (auto& x : p.back()) x = rng.uniform(-1.0, 1.0);
    }
    p[0][1] = -0.0;
    p[2][5] = 0.0;
    auto ref_p = p;
    auto ref_g = g;
    Adam adam(config.lr, config.beta1, 0.999, 1e-8);
    ReferenceAdam reference(config.lr, config.beta1, 0.999, 1e-8);
    std::vector<std::pair<std::size_t, std::size_t>> where;  // (block, i)
    for (std::size_t b = 0; b < p.size(); ++b) {
      std::vector<double*> ps, gs;
      for (std::size_t i = 0; i < p[b].size(); ++i) {
        ps.push_back(&ref_p[b][i]);
        gs.push_back(&ref_g[b][i]);
        where.emplace_back(b, i);
      }
      reference.attach(ps, gs);
    }

    std::size_t mismatches = 0;
    for (std::size_t t = 0; t < steps && mismatches == 0; ++t) {
      for (std::size_t e = 0; e < where.size(); ++e) {
        const auto [b, i] = where[e];
        const std::size_t start = 300 + 41 * e;  // staggered zero stretches
        double grad = 0.0;
        switch (e % 4) {
          case 0:  // dense
            grad = rng.normal() * 0.1;
            break;
          case 1:  // +0.0 for 9000 steps, revived, then -0.0 to the end
            grad = t < start          ? rng.normal()
                   : t < start + 9000 ? 0.0
                   : t < start + 9400 ? rng.normal() * 1e-3
                                      : -0.0;
            break;
          case 2:  // -0.0 for 8000 steps, revived, zero again
            grad = t < start           ? rng.normal()
                   : t < start + 8000  ? -0.0
                   : t < start + 8100  ? rng.normal()
                   : t < start + 16100 ? 0.0
                                       : rng.normal();
            break;
          default:  // sparse, sometimes a subnormal itself
            grad = rng.uniform() < 0.05 ? rng.normal()
                   : rng.uniform() < 0.01
                       ? (rng.uniform() < 0.5 ? 3.0 : -2.0) * ulp
                       : 0.0;
            break;
        }
        g[b][i] = grad;
        ref_g[b][i] = grad;
        // Reset some settled parameters to signed zeros and subnormals.
        if (t == 9500 || t == 17000) {
          const double reset = e % 3 == 0   ? -0.0
                               : e % 3 == 1 ? 0.0
                                            : 2.0 * ulp;
          p[b][i] = reset;
          ref_p[b][i] = reset;
        }
      }
      adam.step({{p[0], g[0]}, {p[1], g[1]}, {p[2], g[2]}});
      reference.step();

      for (std::size_t e = 0; e < where.size(); ++e) {
        const auto [b, i] = where[e];
        if (!same_bits(p[b][i], ref_p[b][i]) ||
            !same_bits(adam.first_moment(b)[i], reference.m()[e]) ||
            !same_bits(adam.second_moment(b)[i], reference.v()[e])) {
          ADD_FAILURE() << "step " << t << " element " << e << ": p "
                        << p[b][i] << " vs " << ref_p[b][i] << ", m "
                        << adam.first_moment(b)[i] << " vs "
                        << reference.m()[e];
          ++mismatches;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(Nn, SoftmaxProperties) {
  const auto p = softmax(std::vector<double>{1.0, 2.0, 3.0});
  double sum = 0.0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
  // Stability under large logits.
  const auto big = softmax(std::vector<double>{1000.0, 1001.0});
  EXPECT_NEAR(big[0] + big[1], 1.0, 1e-12);
  EXPECT_TRUE(softmax(std::vector<double>{}).empty());
}

TEST(Vae, OnehotRoundTrip) {
  EXPECT_EQ(onehot_dim(), 49u);
  util::Rng rng(73);
  for (int i = 0; i < 100; ++i) {
    const circuit::Topology t = circuit::Topology::random(rng);
    const auto x = topology_onehot(t);
    double sum = 0.0;
    for (double v : x) sum += v;
    EXPECT_DOUBLE_EQ(sum, 5.0);  // one hot bit per slot
    EXPECT_EQ(decode_topology(x), t);
  }
  EXPECT_THROW(decode_topology(std::vector<double>(10, 0.0)),
               std::invalid_argument);
}

TEST(Vae, TrainingReducesLossAndReconstructs) {
  util::Rng rng(74);
  VaeConfig config;
  config.epochs = 15;
  config.train_samples = 800;
  Vae vae(config, rng);

  // Loss of an untrained model on random data ~= uniform CE:
  // sum over slots of log(#types) ~= 12.56.
  const double final_loss = vae.train(rng);
  EXPECT_LT(final_loss, 7.0);  // clearly below the uniform baseline

  const double acc = vae.reconstruction_accuracy(200, rng);
  EXPECT_GT(acc, 0.05);  // far above the 1/30625 chance level
}

TEST(Vae, EncodeDecodeShapes) {
  util::Rng rng(75);
  VaeConfig config;
  config.epochs = 1;
  config.train_samples = 50;
  Vae vae(config, rng);
  vae.train(rng);
  const auto z = vae.encode(circuit::named_topology("NMC"));
  EXPECT_EQ(z.size(), config.latent_dim);
  const auto logits = vae.decode_logits(z);
  EXPECT_EQ(logits.size(), onehot_dim());
  EXPECT_NO_THROW(vae.decode(z));
  EXPECT_THROW(vae.decode_logits(std::vector<double>{0.0}),
               std::invalid_argument);
}

/// FNV-1a 64 over the bytes of every encode() (and, if `decoded`, every
/// decode_logits() of that latent) for a fixed sample of 64 topologies.
std::uint64_t vae_digest(Vae& vae, bool decoded) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const std::vector<double>& values) {
    for (const double v : values) {
      unsigned char bytes[sizeof v];
      std::memcpy(bytes, &v, sizeof v);
      for (const unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
    }
  };
  for (std::size_t i = 0; i < 64; ++i) {
    const auto z = vae.encode(circuit::Topology::from_index(
        (i * 479) % circuit::design_space_size()));
    mix(decoded ? vae.decode_logits(z) : z);
  }
  return h;
}

TEST(Vae, TrainingACopyLeavesTheOriginalUntouched) {
  // The campaign trains one VAE and hands every VGAE-BO run a copy; a copy
  // must own its weights and optimizer, never write through to the shared
  // instance.
  util::Rng rng(77);
  VaeConfig config;
  config.epochs = 1;
  config.train_samples = 50;
  Vae original(config, rng);
  original.train(rng);
  const std::uint64_t before = vae_digest(original, false);

  Vae copy = original;
  EXPECT_EQ(vae_digest(copy, false), before);
  copy.train(rng);
  EXPECT_EQ(vae_digest(original, false), before);
  EXPECT_NE(vae_digest(copy, false), before);  // the copy did train
}

TEST(Vae, TrainedWeightsMatchGolden) {
  // Digests of the weights the original pointer-gather Adam trained for
  // this config. 9000 steps at hidden 64 let dead ReLU units' first
  // moments settle at their subnormal fixed point, so the fast path runs
  // and must reproduce every bit.
  util::Rng rng(7);
  VaeConfig config;
  config.epochs = 9;
  config.train_samples = 1000;
  Vae vae(config, rng);
  EXPECT_EQ(vae.train(rng), 3.4292109785129474);
  EXPECT_EQ(vae_digest(vae, false), 0x34c0de0fb8f2faecull);
  EXPECT_EQ(vae_digest(vae, true), 0x22d83b40d56f0a5aull);
}

TEST(FeGa, EmbedDecodeRoundTrip) {
  util::Rng rng(76);
  for (int i = 0; i < 200; ++i) {
    const circuit::Topology t = circuit::Topology::random(rng);
    EXPECT_EQ(decode_genes(embed(t)), t);
  }
}

TEST(FeGa, DecodeClampsOutOfRangeGenes) {
  const auto t =
      decode_genes(std::vector<double>{-0.5, 2.0, 0.999, 0.0, 0.5});
  for (circuit::Slot slot : circuit::all_slots()) {
    EXPECT_TRUE(circuit::is_allowed(slot, t.type(slot)));
  }
  EXPECT_THROW(decode_genes(std::vector<double>{0.1}), std::invalid_argument);
}

TEST(FeGa, CampaignReachesEvaluationBudget) {
  sizing::SizingConfig sizing_config;
  sizing_config.init_points = 3;
  sizing_config.iterations = 3;
  core::TopologyEvaluator evaluator(
      sizing::EvalContext(circuit::spec_by_name("S-1")), sizing_config);
  FeGaConfig config;
  config.population = 6;
  config.max_evaluations = 15;
  const FeGa ga(config);
  util::Rng rng(77);
  const auto outcome = ga.run(evaluator, rng);
  EXPECT_GE(evaluator.history().size(), 15u);
  EXPECT_TRUE(outcome.best_index.has_value());
}

TEST(FeGa, Validation) {
  EXPECT_THROW(FeGa(FeGaConfig{.population = 1}), std::invalid_argument);
  FeGaConfig bad;
  bad.population = 4;
  bad.elitism = 4;
  EXPECT_THROW(FeGa{bad}, std::invalid_argument);
}

TEST(VgaeBo, CampaignRunsWithinBudget) {
  sizing::SizingConfig sizing_config;
  sizing_config.init_points = 3;
  sizing_config.iterations = 3;
  core::TopologyEvaluator evaluator(
      sizing::EvalContext(circuit::spec_by_name("S-1")), sizing_config);
  VgaeBoConfig config;
  config.vae.epochs = 2;
  config.vae.train_samples = 100;
  config.init_topologies = 4;
  config.iterations = 5;
  config.candidates = 40;
  const VgaeBo bo(config);
  util::Rng rng(78);
  const auto outcome = bo.run(evaluator, rng);
  EXPECT_EQ(evaluator.history().size(), 9u);  // 4 init + 5 iterations
  EXPECT_TRUE(outcome.best_index.has_value());
}

TEST(VgaeBo, Validation) {
  VgaeBoConfig bad;
  bad.init_topologies = 1;
  EXPECT_THROW(VgaeBo{bad}, std::invalid_argument);
  VgaeBoConfig bad2;
  bad2.candidates = 0;
  EXPECT_THROW(VgaeBo{bad2}, std::invalid_argument);
}

}  // namespace
