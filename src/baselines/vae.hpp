#pragma once
// Variational autoencoder over topology one-hot encodings — the learned
// continuous latent space of the VGAE-BO baseline [15], [16]. The paper's
// VGAE uses graph convolutions; because a behavior-level topology is
// uniquely determined by its 5-slot type vector, an MLP over the (lossless)
// concatenated per-slot one-hot encoding sees exactly the same information
// (see DESIGN.md substitution table). What matters for the baseline's
// behavior — forcing the discrete space into a continuous one, with the
// decode round-trip discontinuity the paper critiques — is fully present.

#include <vector>

#include "baselines/nn.hpp"
#include "circuit/topology.hpp"
#include "util/rng.hpp"

namespace intooa::baselines {

/// Total one-hot width: the sum of the five slots' allowed-type counts
/// (7+7+25+5+5 = 49).
std::size_t onehot_dim();

/// Concatenated per-slot one-hot encoding of a topology.
std::vector<double> topology_onehot(const circuit::Topology& topology);

/// Decodes per-slot scores back to the nearest valid topology (argmax over
/// each slot's segment) — the discretization step of latent-space BO.
circuit::Topology decode_topology(std::span<const double> scores);

/// VAE training/topology hyperparameters.
struct VaeConfig {
  std::size_t latent_dim = 6;
  std::size_t hidden_dim = 64;
  double beta = 0.01;       ///< KL weight
  double learning_rate = 3e-3;
  std::size_t epochs = 30;
  std::size_t train_samples = 3000;  ///< random topologies in the train set
};

/// MLP VAE: encoder 49 -> hidden -> (mu, logvar); decoder latent -> hidden
/// -> 49 logits, trained with per-slot softmax cross-entropy + beta * KL.
/// A copy owns its weights and optimizer state: training it leaves the
/// original untouched.
class Vae {
 public:
  Vae(VaeConfig config, util::Rng& rng);

  /// Trains on `config.train_samples` random topologies (one Adam step per
  /// sample per epoch). Returns the mean loss of the final epoch.
  double train(util::Rng& rng);

  /// Posterior mean latent of a topology (inference: no sampling).
  std::vector<double> encode(const circuit::Topology& topology);

  /// Decoder logits for a latent point.
  std::vector<double> decode_logits(std::span<const double> z);

  /// Decoder output discretized to the nearest valid topology.
  circuit::Topology decode(std::span<const double> z);

  /// Fraction of a sample of random topologies that survive an
  /// encode-decode round trip unchanged (reconstruction quality metric).
  double reconstruction_accuracy(std::size_t samples, util::Rng& rng);

  const VaeConfig& config() const { return config_; }

 private:
  /// One training step; returns the sample loss.
  double step(const std::vector<double>& x, util::Rng& rng);

  VaeConfig config_;
  Linear enc1_;
  Relu enc_act_;
  Linear enc2_;  // outputs [mu, logvar]
  Linear dec1_;
  Relu dec_act_;
  Linear dec2_;
  Adam adam_;
};

}  // namespace intooa::baselines
