#include "baselines/nn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace intooa::baselines {

Linear::Linear(std::size_t in_dim, std::size_t out_dim, util::Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      params_(in_dim * out_dim + out_dim, 0.0),
      grads_(in_dim * out_dim + out_dim, 0.0) {
  if (in_dim == 0 || out_dim == 0) {
    throw std::invalid_argument("Linear: zero dimension");
  }
  const double bound =
      std::sqrt(6.0 / static_cast<double>(in_dim + out_dim));
  for (std::size_t i = 0; i < in_dim * out_dim; ++i) {
    params_[i] = rng.uniform(-bound, bound);
  }
}

std::vector<double> Linear::forward(std::span<const double> x) {
  if (x.size() != in_dim_) throw std::invalid_argument("Linear: bad input size");
  last_x_.assign(x.begin(), x.end());
  const double* w = params_.data();
  const double* b = w + in_dim_ * out_dim_;
  std::vector<double> y(out_dim_);
  for (std::size_t o = 0; o < out_dim_; ++o) {
    double acc = b[o];
    const double* row = w + o * in_dim_;
    for (std::size_t i = 0; i < in_dim_; ++i) acc += row[i] * x[i];
    y[o] = acc;
  }
  return y;
}

std::vector<double> Linear::backward(std::span<const double> grad_out) {
  if (grad_out.size() != out_dim_) {
    throw std::invalid_argument("Linear: bad grad size");
  }
  if (last_x_.size() != in_dim_) {
    throw std::logic_error("Linear: backward before forward");
  }
  const double* w = params_.data();
  double* gw = grads_.data();
  double* gb = gw + in_dim_ * out_dim_;
  std::vector<double> grad_in(in_dim_, 0.0);
  for (std::size_t o = 0; o < out_dim_; ++o) {
    const double go = grad_out[o];
    gb[o] += go;
    double* grow = gw + o * in_dim_;
    const double* wrow = w + o * in_dim_;
    for (std::size_t i = 0; i < in_dim_; ++i) {
      grow[i] += go * last_x_[i];
      grad_in[i] += go * wrow[i];
    }
  }
  return grad_in;
}

void Linear::zero_grad() { std::fill(grads_.begin(), grads_.end(), 0.0); }

std::vector<double> Relu::forward(std::span<const double> x) {
  mask_.assign(x.size(), false);
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] > 0.0) {
      y[i] = x[i];
      mask_[i] = true;
    }
  }
  return y;
}

std::vector<double> Relu::backward(std::span<const double> grad_out) const {
  if (grad_out.size() != mask_.size()) {
    throw std::invalid_argument("Relu: bad grad size");
  }
  std::vector<double> grad_in(grad_out.size(), 0.0);
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    if (mask_[i]) grad_in[i] = grad_out[i];
  }
  return grad_in;
}

Adam::Adam(double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

int adam_subnormal_fixed_point(double lr, double beta1, double eps,
                               double bc1) {
  if (!(eps > 0.0)) return 0;
  const double ulp = std::numeric_limits<double>::denorm_min();
  int k = 0;
  for (; k < 16; ++k) {
    for (const double m : {(k + 1) * ulp, -(k + 1) * ulp}) {
      const double numerator = lr * (m / bc1);
      if (beta1 * m + (1.0 - beta1) * 0.0 != m || numerator != 0.0 ||
          std::signbit(numerator) != std::signbit(m)) {
        return k;
      }
    }
  }
  return k;
}

void Adam::step(std::initializer_list<AdamBlock> blocks) {
  if (m_.empty()) {
    for (const AdamBlock& block : blocks) {
      m_.emplace_back(block.params.size(), 0.0);
      v_.emplace_back(block.params.size(), 0.0);
    }
  }
  if (blocks.size() != m_.size()) {
    throw std::invalid_argument("Adam: block count changed");
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  // bc1 reaches exactly 1.0 within a few hundred steps, so K is found anew
  // only while it still changes.
  if (bc1 != fixed_point_bc1_) {
    fixed_point_ulps_ = adam_subnormal_fixed_point(lr_, beta1_, eps_, bc1);
    fixed_point_bc1_ = bc1;
  }
  const double settled =
      fixed_point_ulps_ * std::numeric_limits<double>::denorm_min();
  std::size_t b = 0;
  for (const AdamBlock& block : blocks) {
    const std::size_t n = m_[b].size();
    if (block.params.size() != n || block.grads.size() != n) {
      throw std::invalid_argument("Adam: block size changed");
    }
    double* __restrict p = block.params.data();
    const double* __restrict g = block.grads.data();
    double* __restrict m = m_[b].data();
    double* __restrict v = v_[b].data();
    for (std::size_t i = 0; i < n; ++i) {
      const double gi = g[i];
      // A moment stuck at a few ulps under a zero gradient (dead ReLU
      // units, inactive one-hot inputs) is a fixed point whose update is a
      // signed zero: the general path below would compute exactly this,
      // but through subnormal multiplies and divides that each take a
      // microcode assist.
      if (gi == 0.0 && m[i] != 0.0 && std::fabs(m[i]) <= settled &&
          !std::isnan(v[i])) {
        v[i] = beta2_ * v[i] + (1.0 - beta2_) * gi * gi;
        p[i] -= std::copysign(0.0, m[i]);
        continue;
      }
      m[i] = beta1_ * m[i] + (1.0 - beta1_) * gi;
      v[i] = beta2_ * v[i] + (1.0 - beta2_) * gi * gi;
      const double mhat = m[i] / bc1;
      const double vhat = v[i] / bc2;
      p[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
    ++b;
  }
}

std::vector<double> softmax(std::span<const double> logits) {
  if (logits.empty()) return {};
  const double mx = *std::max_element(logits.begin(), logits.end());
  std::vector<double> out(logits.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] - mx);
    sum += out[i];
  }
  for (auto& v : out) v /= sum;
  return out;
}

}  // namespace intooa::baselines
