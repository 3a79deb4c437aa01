#pragma once
// Multi-output GP with one shared RBF kernel: all outputs (FoM objective +
// constraint margins) observe the same inputs, so sharing the kernel
// hyperparameters lets us factorize one Gram matrix per fit instead of M,
// and compute one predictive variance per query. Hyperparameters are
// chosen by maximizing the SUM of per-output marginal likelihoods (each
// output is standardized first). This is an efficiency refinement of
// running M independent GPs — important on the single-box budget this repo
// targets — and is used by the sizing BO and the VGAE-BO baseline's latent
// space model.

#include <memory>
#include <span>
#include <vector>

#include "gp/gp.hpp"
#include "la/cholesky.hpp"

namespace intooa::gp {

/// Joint prediction: per-output posterior means and variances.
struct JointPrediction {
  std::vector<double> mean;
  std::vector<double> variance;
};

/// Joint predictions of a candidate pool, candidate-major: candidate c's
/// output k is at index c * outputs + k, in original units.
struct PoolPrediction {
  std::size_t outputs = 0;
  std::vector<double> mean;
  std::vector<double> variance;

  std::span<const double> mean_of(std::size_t c) const {
    return std::span<const double>(mean).subspan(c * outputs, outputs);
  }
  std::span<const double> variance_of(std::size_t c) const {
    return std::span<const double>(variance).subspan(c * outputs, outputs);
  }
};

/// Multi-output GP regression with a shared isotropic RBF kernel on
/// [0,1]^d inputs.
class JointGp {
 public:
  JointGp() = default;

  /// Fits to `inputs` (N x d) and `targets` (N rows, M columns given
  /// row-major as targets[i][m]). When `refit_hyper` is false and a
  /// previous fit exists, the cached hyperparameters are reused (cheap
  /// incremental refit during BO); otherwise a full MLE grid search runs.
  void fit(const std::vector<std::vector<double>>& inputs,
           const std::vector<std::vector<double>>& targets, bool refit_hyper);

  bool trained() const { return chol_ != nullptr; }
  std::size_t size() const { return inputs_.size(); }
  std::size_t outputs() const { return y_mean_.size(); }

  /// Posterior means/variances of all outputs at `x`, in original units:
  /// the one-candidate case of predict_pool.
  JointPrediction predict(std::span<const double> x) const;

  /// Posterior means/variances at every row of `xs` (one candidate per
  /// row). Candidates are scored in blocks of kPoolBlock: one k* block,
  /// one blocked forward solve, then the variance quads and the means.
  /// Each candidate undergoes exactly the operations, in the same order,
  /// of a lone prediction, so the results do not depend on the pool.
  PoolPrediction predict_pool(const la::MatrixD& xs) const;

  /// Candidates per block in predict_pool: wide enough to vectorize the
  /// forward solve, small enough that its scratch stays a few pages.
  static constexpr std::size_t kPoolBlock = 32;

  const GpHyper& hyper() const { return hyper_; }

 private:
  double kernel_value(std::span<const double> a, std::span<const double> b,
                      double lengthscale) const;
  void factorize(double lengthscale, double noise);

  std::vector<std::vector<double>> inputs_;
  std::vector<std::vector<double>> y_std_;   // [output][point]
  std::vector<std::vector<double>> alpha_;   // [output] = K^{-1} y_std
  std::unique_ptr<la::Cholesky> chol_;
  GpHyper hyper_;
  bool have_hyper_ = false;
  std::vector<double> y_mean_;
  std::vector<double> y_scale_;
};

}  // namespace intooa::gp
