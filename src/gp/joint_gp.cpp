#include "gp/joint_gp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/stats.hpp"

namespace intooa::gp {

namespace {
constexpr double kHalfLog2Pi = 0.9189385332046727;

const std::vector<double>& lengthscale_grid() {
  static const std::vector<double> grid = {0.05, 0.08, 0.13, 0.2, 0.33,
                                           0.5,  0.8,  1.3,  2.0, 3.0};
  return grid;
}
const std::vector<double>& noise_grid() {
  static const std::vector<double> grid = {1e-6, 1e-4, 1e-3, 1e-2, 1e-1};
  return grid;
}
}  // namespace

double JointGp::kernel_value(std::span<const double> a,
                             std::span<const double> b,
                             double lengthscale) const {
  if (a.size() != b.size()) {
    throw std::invalid_argument("JointGp: dimension mismatch");
  }
  double d2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    d2 += d * d;
  }
  return std::exp(-0.5 * d2 / (lengthscale * lengthscale));
}

void JointGp::factorize(double lengthscale, double noise) {
  const std::size_t n = inputs_.size();
  la::MatrixD gram(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double k = kernel_value(inputs_[i], inputs_[j], lengthscale);
      gram(i, j) = k;
      gram(j, i) = k;
    }
    gram(i, i) += noise;
  }
  chol_ = std::make_unique<la::Cholesky>(gram);
  obs::registry().gauge("gp.joint_fit.jitter").set(chol_->jitter());
  alpha_.clear();
  for (const auto& y : y_std_) alpha_.push_back(chol_->solve(y));
}

void JointGp::fit(const std::vector<std::vector<double>>& inputs,
                  const std::vector<std::vector<double>>& targets,
                  bool refit_hyper) {
  INTOOA_SPAN("gp.joint_fit");
  obs::registry()
      .histogram("gp.cholesky_dim")
      .record(static_cast<std::uint64_t>(inputs.size()));
  if (inputs.size() != targets.size()) {
    throw std::invalid_argument("JointGp::fit: size mismatch");
  }
  if (inputs.size() < 2) {
    throw std::invalid_argument("JointGp::fit: need at least 2 points");
  }
  const std::size_t n = inputs.size();
  const std::size_t m = targets.front().size();
  if (m == 0) throw std::invalid_argument("JointGp::fit: zero outputs");
  for (const auto& row : targets) {
    if (row.size() != m) {
      throw std::invalid_argument("JointGp::fit: ragged targets");
    }
  }
  const std::size_t dim = inputs.front().size();
  for (const auto& row : inputs) {
    if (row.size() != dim) {
      throw std::invalid_argument("JointGp::fit: ragged inputs");
    }
  }

  inputs_ = inputs;
  y_mean_.assign(m, 0.0);
  y_scale_.assign(m, 1.0);
  y_std_.assign(m, std::vector<double>(n));
  for (std::size_t k = 0; k < m; ++k) {
    std::vector<double> col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = targets[i][k];
    y_mean_[k] = util::mean(col);
    const double sd = util::stddev(col);
    y_scale_[k] = sd > 1e-12 ? sd : 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      y_std_[k][i] = (col[i] - y_mean_[k]) / y_scale_[k];
    }
  }

  if (refit_hyper || !have_hyper_) {
    double best_lml = -std::numeric_limits<double>::infinity();
    GpHyper best;
    for (double ls : lengthscale_grid()) {
      la::MatrixD base(n, n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
          const double k = kernel_value(inputs_[i], inputs_[j], ls);
          base(i, j) = k;
          base(j, i) = k;
        }
      }
      for (double noise : noise_grid()) {
        la::MatrixD gram = base;
        for (std::size_t i = 0; i < n; ++i) gram(i, i) += noise;
        // Zero-jitter scoring: jitter escalation inside the grid would score
        // the cell with a different effective noise than its label claims.
        const auto chol = la::Cholesky::try_exact(gram);
        if (!chol) continue;
        double lml = 0.0;
        const double logdet = chol->log_det();
        for (std::size_t k = 0; k < m; ++k) {
          const auto alpha = chol->solve(y_std_[k]);
          double fit_term = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            fit_term += y_std_[k][i] * alpha[i];
          }
          lml += -0.5 * fit_term - 0.5 * logdet -
                 kHalfLog2Pi * static_cast<double>(n);
        }
        if (lml > best_lml) {
          best_lml = lml;
          best.lengthscale = ls;
          best.noise_variance = noise;
          best.signal_variance = 1.0;
          best.log_marginal_likelihood = lml;
        }
      }
    }
    if (!std::isfinite(best_lml)) {
      throw std::runtime_error("JointGp::fit: no viable hyperparameters");
    }
    hyper_ = best;
    have_hyper_ = true;
  }
  factorize(hyper_.lengthscale, hyper_.noise_variance);
}

JointPrediction JointGp::predict(std::span<const double> x) const {
  la::MatrixD xs(1, x.size());
  std::copy(x.begin(), x.end(), xs.row(0).begin());
  PoolPrediction pool = predict_pool(xs);
  return {std::move(pool.mean), std::move(pool.variance)};
}

PoolPrediction JointGp::predict_pool(const la::MatrixD& xs) const {
  if (!trained()) throw std::logic_error("JointGp::predict: not trained");
  const std::size_t dim = inputs_.front().size();
  if (xs.cols() != dim) {
    throw std::invalid_argument("JointGp: dimension mismatch");
  }
  constexpr std::size_t W = kPoolBlock;
  const std::size_t n = inputs_.size();
  const std::size_t m = y_mean_.size();
  const std::size_t count = xs.rows();
  const double ls2 = hyper_.lengthscale * hyper_.lengthscale;
  PoolPrediction out;
  out.outputs = m;
  out.mean.resize(count * m);
  out.variance.resize(count * m);

  // Scratch for one block, candidate-minor (index [row * W + j] for
  // candidate j of the block); a short last block is padded with zeros
  // whose results are dropped. Every per-candidate expression below is the
  // one kernel_value and a lone prediction evaluate, accumulated in the
  // same order.
  std::vector<double> xt(dim * W);
  std::vector<double> kstar(n * W);
  std::vector<double> v(n * W);
  std::array<double, W> acc{};
  std::array<double, W> var_std{};
  for (std::size_t first = 0; first < count; first += W) {
    const std::size_t w = std::min(W, count - first);
    for (std::size_t d = 0; d < dim; ++d) {
      for (std::size_t j = 0; j < W; ++j) {
        xt[d * W + j] = j < w ? xs(first + j, d) : 0.0;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      acc.fill(0.0);
      for (std::size_t d = 0; d < dim; ++d) {
        const double a = inputs_[i][d];
        const double* xd = xt.data() + d * W;
        for (std::size_t j = 0; j < W; ++j) {
          const double diff = a - xd[j];
          acc[j] += diff * diff;
        }
      }
      double* ki = kstar.data() + i * W;
      for (std::size_t j = 0; j < W; ++j) {
        ki[j] = j < w ? std::exp(-0.5 * acc[j] / ls2) : 0.0;
      }
    }
    chol_->solve_lower_block<W>(kstar, v);
    acc.fill(0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double* vi = v.data() + i * W;
      for (std::size_t j = 0; j < W; ++j) acc[j] += vi[j] * vi[j];
    }
    for (std::size_t j = 0; j < W; ++j) {
      var_std[j] = std::max(0.0, hyper_.signal_variance - acc[j]);
    }
    for (std::size_t k = 0; k < m; ++k) {
      acc.fill(0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const double a = alpha_[k][i];
        const double* ki = kstar.data() + i * W;
        for (std::size_t j = 0; j < W; ++j) acc[j] += ki[j] * a;
      }
      for (std::size_t j = 0; j < w; ++j) {
        const std::size_t at = (first + j) * m + k;
        out.mean[at] = acc[j] * y_scale_[k] + y_mean_[k];
        out.variance[at] = var_std[j] * y_scale_[k] * y_scale_[k];
      }
    }
  }
  return out;
}

}  // namespace intooa::gp
