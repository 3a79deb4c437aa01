#include "baselines/vae.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace intooa::baselines {

std::size_t onehot_dim() {
  std::size_t dim = 0;
  for (circuit::Slot slot : circuit::all_slots()) {
    dim += circuit::allowed_types(slot).size();
  }
  return dim;
}

std::vector<double> topology_onehot(const circuit::Topology& topology) {
  std::vector<double> x(onehot_dim(), 0.0);
  std::size_t offset = 0;
  for (circuit::Slot slot : circuit::all_slots()) {
    const auto allowed = circuit::allowed_types(slot);
    x[offset + circuit::allowed_index(slot, topology.type(slot))] = 1.0;
    offset += allowed.size();
  }
  return x;
}

circuit::Topology decode_topology(std::span<const double> scores) {
  if (scores.size() != onehot_dim()) {
    throw std::invalid_argument("decode_topology: bad score width");
  }
  std::array<circuit::SubcktType, circuit::kSlotCount> types{};
  std::size_t offset = 0;
  for (std::size_t s = 0; s < circuit::kSlotCount; ++s) {
    const auto allowed = circuit::allowed_types(circuit::all_slots()[s]);
    std::size_t best = 0;
    for (std::size_t i = 1; i < allowed.size(); ++i) {
      if (scores[offset + i] > scores[offset + best]) best = i;
    }
    types[s] = allowed[best];
    offset += allowed.size();
  }
  return circuit::Topology(types);
}

Vae::Vae(VaeConfig config, util::Rng& rng)
    : config_(config),
      enc1_(onehot_dim(), config.hidden_dim, rng),
      enc2_(config.hidden_dim, 2 * config.latent_dim, rng),
      dec1_(config.latent_dim, config.hidden_dim, rng),
      dec2_(config.hidden_dim, onehot_dim(), rng),
      adam_(config.learning_rate) {}

double Vae::step(const std::vector<double>& x, util::Rng& rng) {
  const std::size_t latent = config_.latent_dim;

  // Forward.
  const auto h_enc = enc_act_.forward(enc1_.forward(x));
  const auto stats = enc2_.forward(h_enc);  // [mu, logvar]
  std::vector<double> mu(stats.begin(),
                         stats.begin() + static_cast<long>(latent));
  std::vector<double> logvar(stats.begin() + static_cast<long>(latent),
                             stats.end());
  std::vector<double> eps(latent), z(latent);
  for (std::size_t i = 0; i < latent; ++i) {
    // Clamp logvar for numerical safety early in training.
    logvar[i] = std::clamp(logvar[i], -8.0, 8.0);
    eps[i] = rng.normal();
    z[i] = mu[i] + eps[i] * std::exp(0.5 * logvar[i]);
  }
  const auto h_dec = dec_act_.forward(dec1_.forward(z));
  const auto logits = dec2_.forward(h_dec);

  // Loss: per-slot softmax CE + beta * KL, and its gradient w.r.t. logits.
  double ce = 0.0;
  std::vector<double> grad_logits(logits.size(), 0.0);
  std::size_t offset = 0;
  for (circuit::Slot slot : circuit::all_slots()) {
    const std::size_t width = circuit::allowed_types(slot).size();
    const auto probs = softmax(
        std::span<const double>(logits.data() + offset, width));
    for (std::size_t i = 0; i < width; ++i) {
      const double target = x[offset + i];
      if (target > 0.5) ce -= std::log(std::max(probs[i], 1e-12));
      grad_logits[offset + i] = probs[i] - target;
    }
    offset += width;
  }
  double kl = 0.0;
  for (std::size_t i = 0; i < latent; ++i) {
    kl += -0.5 * (1.0 + logvar[i] - mu[i] * mu[i] - std::exp(logvar[i]));
  }
  const double loss = ce + config_.beta * kl;

  // Backward.
  enc1_.zero_grad();
  enc2_.zero_grad();
  dec1_.zero_grad();
  dec2_.zero_grad();

  const auto grad_hdec = dec2_.backward(grad_logits);
  const auto grad_z = dec1_.backward(dec_act_.backward(grad_hdec));

  std::vector<double> grad_stats(2 * latent, 0.0);
  for (std::size_t i = 0; i < latent; ++i) {
    const double sigma = std::exp(0.5 * logvar[i]);
    // dz/dmu = 1; dz/dlogvar = 0.5 * eps * sigma.
    grad_stats[i] = grad_z[i] + config_.beta * mu[i];
    grad_stats[latent + i] = grad_z[i] * 0.5 * eps[i] * sigma +
                             config_.beta * 0.5 * (std::exp(logvar[i]) - 1.0);
  }
  enc1_.backward(enc_act_.backward(enc2_.backward(grad_stats)));

  adam_.step({{enc1_.parameters(), enc1_.gradients()},
              {enc2_.parameters(), enc2_.gradients()},
              {dec1_.parameters(), dec1_.gradients()},
              {dec2_.parameters(), dec2_.gradients()}});
  return loss;
}

double Vae::train(util::Rng& rng) {
  std::vector<std::vector<double>> data;
  data.reserve(config_.train_samples);
  for (std::size_t i = 0; i < config_.train_samples; ++i) {
    data.push_back(topology_onehot(circuit::Topology::random(rng)));
  }
  double last_epoch_mean = 0.0;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(data);
    double acc = 0.0;
    for (const auto& x : data) acc += step(x, rng);
    last_epoch_mean = acc / static_cast<double>(data.size());
  }
  return last_epoch_mean;
}

std::vector<double> Vae::encode(const circuit::Topology& topology) {
  const auto x = topology_onehot(topology);
  const auto h = enc_act_.forward(enc1_.forward(x));
  const auto stats = enc2_.forward(h);
  return std::vector<double>(
      stats.begin(), stats.begin() + static_cast<long>(config_.latent_dim));
}

std::vector<double> Vae::decode_logits(std::span<const double> z) {
  if (z.size() != config_.latent_dim) {
    throw std::invalid_argument("Vae::decode_logits: bad latent size");
  }
  const auto h = dec_act_.forward(dec1_.forward(z));
  return dec2_.forward(h);
}

circuit::Topology Vae::decode(std::span<const double> z) {
  return decode_topology(decode_logits(z));
}

double Vae::reconstruction_accuracy(std::size_t samples, util::Rng& rng) {
  if (samples == 0) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const circuit::Topology t = circuit::Topology::random(rng);
    if (decode(encode(t)) == t) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(samples);
}

}  // namespace intooa::baselines
