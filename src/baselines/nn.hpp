#pragma once
// Minimal neural-network substrate for the VGAE-BO baseline [15], [16]:
// fully-connected layers with hand-derived backpropagation and the Adam
// optimizer. No autodiff framework is needed — the VAE in vae.hpp is the
// only consumer and its computation graph is fixed.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace intooa::baselines {

/// Dense affine layer y = W x + b with cached activations for backprop.
class Linear {
 public:
  /// Xavier/Glorot-uniform initialization.
  Linear(std::size_t in_dim, std::size_t out_dim, util::Rng& rng);

  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }

  /// Forward pass; caches `x` for the next backward() call.
  std::vector<double> forward(std::span<const double> x);

  /// Backward pass for the most recent forward(): accumulates dL/dW and
  /// dL/db into the internal gradient buffers and returns dL/dx.
  std::vector<double> backward(std::span<const double> grad_out);

  /// Zeroes the accumulated gradients (call once per minibatch).
  void zero_grad();

  /// Flat parameter block [W | b]: the row-major out_dim x in_dim weights,
  /// then the out_dim biases. gradients() has the same layout. Adam steps
  /// these spans in place.
  std::span<double> parameters() { return params_; }
  std::span<double> gradients() { return grads_; }

 private:
  std::size_t in_dim_;
  std::size_t out_dim_;
  std::vector<double> params_;  // [W | b]
  std::vector<double> grads_;   // [gW | gb]
  std::vector<double> last_x_;  // cached input
};

/// ReLU activation with cached mask.
class Relu {
 public:
  std::vector<double> forward(std::span<const double> x);
  std::vector<double> backward(std::span<const double> grad_out) const;

 private:
  std::vector<bool> mask_;
};

/// One parameter block stepped by Adam: a module's parameters() and
/// gradients() spans.
struct AdamBlock {
  std::span<double> params;
  std::span<const double> grads;
};

/// Adam optimizer. It owns only its moment estimates, one (m, v) pair per
/// block, and never points into the modules it updates: each step() is
/// handed the blocks, so a copy of a model together with its Adam steps the
/// copy's own parameters.
class Adam {
 public:
  explicit Adam(double lr = 1e-3, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8);

  /// One Adam update of every block. The first call fixes the block count
  /// and sizes; later calls must pass blocks of the same shapes, in the
  /// same order.
  void step(std::initializer_list<AdamBlock> blocks);

  /// First and second moment estimates of block `block` (valid after the
  /// first step).
  std::span<const double> first_moment(std::size_t block) const {
    return m_.at(block);
  }
  std::span<const double> second_moment(std::size_t block) const {
    return v_.at(block);
  }

 private:
  double lr_, beta1_, beta2_, eps_;
  long t_ = 0;
  double fixed_point_bc1_ = 0.0;  // bc1 that fixed_point_ulps_ was found at
  int fixed_point_ulps_ = 0;
  std::vector<std::vector<double>> m_;  // per block
  std::vector<std::vector<double>> v_;
};

/// The largest K <= 16 such that every first moment m of +-1..+-K
/// multiples of denorm_min is a fixed point of a zero-gradient Adam step at
/// bias correction `bc1`: beta1 * m + (1 - beta1) * 0.0 == m, and the
/// update numerator lr * (m / bc1) rounds to a zero of m's sign. Returns 0
/// unless eps > 0, which keeps the update's denominator positive.
int adam_subnormal_fixed_point(double lr, double beta1, double eps,
                               double bc1);

/// Numerically stable softmax over a contiguous span.
std::vector<double> softmax(std::span<const double> logits);

}  // namespace intooa::baselines
